"""Spectra of Laplacians on finite-level approximations of projective-limit
fractals: Laakso spaces, the Sierpinski pate a choux, and connected spaces
isospectral to fractal strings."""

from . import errors
from .eigensolve import (
    SpectrumEntry,
    SpectrumList,
    compare_spectra,
    verify_nesting,
)
from .fiber import LevelFamily
from .gasket import (
    ChouxSpec,
    choux_numeric_spectra,
    decimation_branch,
    decimation_chain,
    decimation_check,
    hausdorff_dimension,
)
from .laakso import (
    LaaksoSpec,
    laakso_analytic_spectrum,
    laakso_family,
    laakso_numeric_spectra,
    laakso_numeric_spectrum,
    laakso_refinement_spectra,
)
from .strings import (
    StringSpec,
    rationalize,
    string_analytic_spectrum,
    stitched_numeric_spectra,
    zeta_partial,
)

__version__ = "0.1.0"
