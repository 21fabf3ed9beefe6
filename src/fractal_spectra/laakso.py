"""Laakso-space approximations over the unit interval.

Level n is the quotient of [0,1] x {0,1}^n by wormhole identifications: at a
point of L_m \\ L_{m-1} (multiples of 1/d_m that are not multiples of any
coarser d) the m-th fiber coordinate is collapsed.  All levels share the
common grid of multiples of 1/d_n, so every edge has the length 1/d_n,
meshes align exactly and the discrete nesting holds to machine precision;
only the grid path is described, and the runs of each level are counted
from d_(l-1) and d_l: they give the mesh spectra and, as intervals of the
quantum graph, the analytic one with its multiplicities.
"""

from __future__ import annotations

from .errors import InvalidSequence
from .eigensolve import SpectrumList
from .fiber import LevelFamily, PathBase, continuum_spectra, equilateral_spectra, path_family
from .metric_graph import DIRICHLET, NEUMANN


class LaaksoSpec:
    """Subdivision sequence {j_l}, refinement and boundary mode.

    Every j_l must lie in {j, j+1} for a fixed base j >= 2; depth is the
    sequence length.  The mesh pitch is 1/(refine * d_n).
    """

    def __init__(self, j: list[int], refine: int = 8, boundary: str = NEUMANN):
        self.j = [int(x) for x in j]
        self.refine = refine
        self.boundary = boundary
        if self.j:
            base = min(self.j)
            if base < 2 or max(self.j) > base + 1:
                raise InvalidSequence(f"sequence {self.j} is not within {{j, j+1}} for j >= 2")
        if self.refine < 2:
            raise InvalidSequence("refinement must be >= 2")
        if self.boundary not in (NEUMANN, DIRICHLET):
            raise InvalidSequence(f"unknown boundary mode {self.boundary!r}")

    @property
    def depth(self) -> int:
        return len(self.j)

    @property
    def d(self) -> list[int]:
        """Cumulative subdivision counts d_0=1, d_m = j_1*...*j_m."""
        out = [1]
        for jl in self.j:
            out.append(out[-1] * jl)
        return out

    @property
    def pitch(self) -> float:
        return 1.0 / (self.refine * self.d[self.depth])


def laakso_family(spec: LaaksoSpec) -> LevelFamily:
    """Levels 0..n as the base path and the run tables of its Dirichlet
    pieces, in closed form (``fiber.path_family``).

    The base is the path through the grid points k / d_n, both ends
    Dirichlet vertices under the Dirichlet boundary; level 0 is the whole
    path.  Fiber coordinate m is collapsed at the points born at level m,
    the multiples of 1/d_m that are not multiples of 1/d_(m-1).  Level
    l >= 1 has a piece for each of the t = 2^(l-1) sets S in {1..l} with
    max S = l, marked at the points born at a level in S: at every inner
    multiple of 1/d_l except the C = d_(l-1) - 1 multiples of 1/d_(l-1),
    each of which is marked in half of the pieces.  With u = d_n / d_l, the
    d_l cells of a piece are runs of u - 1 points, save that an unmarked
    coarser point joins its two cells into a run of 2u - 1 and that under
    Neumann (e = 1) the two end cells are runs of u points with a free end.
    So level l has t (d_l - C - 2e) runs of u - 1 points, t C / 2 of
    2u - 1 and, under Neumann, t of u at each end.  At l = n, u = 1: a run
    of no point is one cell between two marks, which has mesh nodes."""
    d = spec.d
    D = d[-1]
    free = spec.boundary != DIRICHLET  # the path ends are kept
    spans = [[(1 - free, D + free, 1)]]
    for level in range(1, spec.depth + 1):
        u, coarse, t = D // d[level], d[level - 1] - 1, 1 << level >> 1
        spans.append([(1, u, t * (d[level] - coarse - 2 * free)), (1, 2 * u, t * coarse // 2),
                      *[(0, u, t), (D + 1 - u, D + 1, t)] * free])
    return path_family(PathBase(D + 1, 1.0 / D), spans)


def laakso_analytic_spectrum(family: LevelFamily, lam_max: float) -> SpectrumList:
    """Spectrum below ``lam_max`` of the deepest level of a Laakso family
    (``laakso_family``) as a quantum graph, from the runs of its levels,
    with exact multiplicities and tags (``fiber.continuum_spectra``)."""
    return continuum_spectra(family, lam_max, "analytic(laakso)")[-1]


def laakso_refinement_spectra(family: LevelFamily, lam_max: float,
                              refines: list[int]) -> list[list[SpectrumList]]:
    """Numeric spectra of levels 0..n at each refinement of ``refines``, from
    the closed-form values of the runs of the pieces of the base path,
    refined into runs of mesh nodes (``fiber.equilateral_spectra``).

    Level-0 eigenvalues are tagged "base" and those new at level i, from the
    pieces of that level, "new@i"; a multiplicity is the number of copies
    of a value, which the closed forms give the same bits
    (``fiber._cluster_levels`` merges equal values only).
    """
    return equilateral_spectra(family, refines, lam_max, "numeric(laakso,level={})")


def laakso_numeric_spectra(spec: LaaksoSpec, lam_max: float) -> list[SpectrumList]:
    """Numeric spectra of levels 0..n at the spec's refinement."""
    return laakso_refinement_spectra(laakso_family(spec), lam_max, [spec.refine])[0]


def laakso_numeric_spectrum(spec: LaaksoSpec, lam_max: float) -> SpectrumList:
    """Numeric spectrum of the deepest level; see laakso_numeric_spectra."""
    return laakso_numeric_spectra(spec, lam_max)[-1]
