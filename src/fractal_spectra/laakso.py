"""Laakso-space approximations over the unit interval.

Level n is the quotient of [0,1] x {0,1}^n by wormhole identifications: at a
point of L_m \\ L_{m-1} (multiples of 1/d_m that are not multiples of any
coarser d) the m-th fiber coordinate is collapsed.  All levels share the
common grid of multiples of 1/d_n, so every edge has the length 1/d_n,
meshes align exactly and the discrete nesting holds to machine precision;
only the grid path is described, and the runs of each level are counted
from d_(l-1) and d_l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidSequence
from .eigensolve import SpectrumEntry, SpectrumList
from .fiber import LevelFamily, PathBase, equilateral_spectra, path_family
from .metric_graph import DIRICHLET, NEUMANN


@dataclass
class LaaksoSpec:
    """Subdivision sequence {j_l}, refinement and boundary mode.

    Every j_l must lie in {j, j+1} for a fixed base j >= 2; depth is the
    sequence length.  The mesh pitch is 1/(refine * d_n).
    """

    j: list[int]
    refine: int = 8
    boundary: str = NEUMANN

    def __post_init__(self):
        self.j = [int(x) for x in self.j]
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


def laakso_analytic_spectrum(spec: LaaksoSpec, lam_max: float) -> SpectrumList:
    """Eigenvalue set of the limit Laplacian, truncated at lam_max.

    Three generating families, each contributing integer multiples of pi^2:
    k^2 d_n^2 (n >= 0), 4 k^2 d_n^2 (n >= 2) and 4 (2k+1)^2 d_n^2 (n >= 1).
    Entries are de-duplicated exactly on the integer coefficient; the tag
    lists every (family, n, k) source.  Multiplicities are not claimed: each
    entry carries multiplicity 1 and its source count.  Levels n run up to
    the spec's depth.
    """
    d = spec.d
    pi2 = math.pi**2
    cmax = lam_max / pi2
    sources: dict[int, list[str]] = {}

    def add(c: int, tag: str):
        sources.setdefault(c, []).append(tag)

    for nn in range(spec.depth + 1):
        dn2 = d[nn] ** 2
        k = 1
        while k * k * dn2 <= cmax:
            add(k * k * dn2, f"f1(n={nn},k={k})")
            k += 1
        if nn >= 2:
            k = 1
            while 4 * k * k * dn2 <= cmax:
                add(4 * k * k * dn2, f"f2(n={nn},k={k})")
                k += 1
        if nn >= 1:
            k = 0
            while 4 * (2 * k + 1) ** 2 * dn2 <= cmax:
                add(4 * (2 * k + 1) ** 2 * dn2, f"f3(n={nn},k={k})")
                k += 1

    entries = []
    if spec.boundary == NEUMANN:
        entries.append(SpectrumEntry(0.0, 1, "constant(outside-family-listing)"))
    for c in sorted(sources):
        entries.append(SpectrumEntry(c * pi2, 1, ";".join(sources[c])))
    return SpectrumList(entries=entries, origin="analytic(laakso)", truncation=lam_max)


def laakso_refinement_spectra(spec: LaaksoSpec, lam_max: float,
                              refines: list[int]) -> list[list[SpectrumList]]:
    """Numeric spectra of levels 0..n at each refinement of ``refines``, from
    the closed-form values of the runs of the pieces of the base path,
    refined into runs of mesh nodes (``fiber.equilateral_spectra``).

    Level-0 eigenvalues are tagged "base" and those new at level i, from the
    pieces of that level, "new@i"; a multiplicity is the number of copies
    of a value, which the closed forms give the same bits
    (``fiber._cluster_levels`` merges equal values only).
    """
    return equilateral_spectra(laakso_family(spec), refines, lam_max, "numeric(laakso,level={})")


def laakso_numeric_spectra(spec: LaaksoSpec, lam_max: float) -> list[SpectrumList]:
    """Numeric spectra of levels 0..n at the spec's refinement."""
    return laakso_refinement_spectra(spec, lam_max, [spec.refine])[0]


def laakso_numeric_spectrum(spec: LaaksoSpec, lam_max: float) -> SpectrumList:
    """Numeric spectrum of the deepest level; see laakso_numeric_spectra."""
    return laakso_numeric_spectra(spec, lam_max)[-1]
