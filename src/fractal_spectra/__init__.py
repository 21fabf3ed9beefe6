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
    counting_function,
    richardson,
    solve_below,
    verify_nesting,
)
from .fiber import (
    FiberStructure,
    LevelFamily,
    LevelLink,
    classify_levels,
    discretize_levels,
    fiber_complement,
    fiber_project,
    graph_levels,
    lift,
    new_subspace_split,
    project_down,
)
from .gasket import (
    ChouxSpec,
    GasketGraph,
    build_choux,
    build_gasket,
    choux_numeric_spectra,
    choux_numeric_spectrum,
    decimation_branch,
    decimation_check,
    gasket_graph_spectrum,
    hausdorff_dimension,
)
from .laakso import (
    LaaksoSpec,
    build_laakso,
    laakso_analytic_spectrum,
    laakso_numeric_spectra,
    laakso_numeric_spectrum,
    wormhole_table,
)
from .metric_graph import (
    DiscreteOperator,
    Edge,
    MetricGraph,
    Mesh,
    Vertex,
    assemble,
    dirichlet_energy,
    discretize,
    graph_operator,
)
from .strings import (
    StringSpec,
    build_stitched,
    isospectrality_report,
    rationalize,
    string_analytic_spectrum,
    stitched_numeric_spectra,
    stitched_numeric_spectrum,
    zeta_partial,
)

__version__ = "0.1.0"
