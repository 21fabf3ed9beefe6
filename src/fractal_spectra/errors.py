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


class DisconnectedGraph(FractalSpectraError):
    """Graph is not connected."""


class NonDividingPitch(FractalSpectraError):
    """Mesh pitch does not divide every edge length."""


class NoCommonPitch(FractalSpectraError):
    """No common rational pitch exists at the requested resolution."""


class DimensionMismatch(FractalSpectraError):
    """Vector length does not match the operator or mesh size."""


class IncompatibleMesh(FractalSpectraError):
    """Vector or mesh does not match the fiber structure."""


class MisalignedMeshes(FractalSpectraError):
    """Spectra were computed at different pitches and cannot be nested."""


class NotPositiveMass(FractalSpectraError):
    """Mass matrix has a non-positive diagonal entry."""


class NoConvergence(FractalSpectraError):
    """Iterative eigensolver failed to converge."""

    def __init__(self, iterations: int, message: str = ""):
        self.iterations = iterations
        super().__init__(message or f"no convergence after {iterations} iterations")


class BeyondTruncation(FractalSpectraError):
    """Query point lies beyond the truncation of a spectrum list."""


class UnclassifiableVector(FractalSpectraError):
    """Eigenvector is neither fiber-constant nor fiber-mean-zero after rotation."""


class DivergentRange(FractalSpectraError):
    """Zeta partial sum requested in a range where convergence was demanded
    but the exponent is at or below the estimated abscissa."""
