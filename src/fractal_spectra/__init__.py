"""Spectra of Laplacians on finite-level approximations of projective-limit
fractals: Laakso spaces, the Sierpinski pate a choux, and connected spaces
isospectral to fractal strings."""

from . import errors
from .eigensolve import (
    EigenPairs,
    FDModel,
    SpectrumEntry,
    SpectrumList,
    cluster,
    compare_spectra,
    solve_below,
    verify_nesting,
)
from .fiber import LevelFamily
from .gasket import (
    ChouxSpec,
    GasketGraph,
    build_gasket,
    choux_numeric_spectra,
    d3_maps,
    decimation_branch,
    decimation_check,
    dirichlet_chain,
    gasket_graph_spectrum,
    gasket_levels,
    hausdorff_dimension,
)
from .laakso import (
    LaaksoSpec,
    laakso_analytic_spectrum,
    laakso_numeric_spectra,
    laakso_numeric_spectrum,
    laakso_refinement_spectra,
)
from .metric_graph import (
    DiscreteOperator,
    MetricGraph,
    graph_operator,
)
from .strings import (
    StringSpec,
    isospectrality_report,
    rationalize,
    string_analytic_spectrum,
    stitched_numeric_spectra,
    zeta_partial,
)

__version__ = "0.1.0"
