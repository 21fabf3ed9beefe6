"""Exception types shared across the package."""


class FractalSpectraError(Exception):
    """Base class for all package errors."""


class InvalidSpaceSpec(FractalSpectraError):
    """A space specification violates its constraints."""


class InvalidSequence(InvalidSpaceSpec):
    """Laakso subdivision sequence is not of the form {j, j+1} with j >= 2."""


class ResolutionTooCoarse(InvalidSpaceSpec):
    """Gasket resolution is too coarse to resolve all gluing sets."""


class InfeasibleNesting(InvalidSpaceSpec):
    """Fractal-string lengths are not strictly decreasing."""


class NoCommonPitch(FractalSpectraError):
    """No common rational pitch exists at the requested resolution."""


class MisalignedMeshes(FractalSpectraError):
    """Spectra were computed at different pitches and cannot be nested."""


class NoConvergence(FractalSpectraError):
    """A spectrum could not be completed: its decimation counts do not add
    up (``gasket._decimate``).  No run calls a solver; the dense reference
    of the tests raises it too, when its solver fails."""
