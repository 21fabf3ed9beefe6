"""Laakso-space approximations over the unit interval.

Level n is the quotient of [0,1] x {0,1}^n by wormhole identifications: at a
point of L_m \\ L_{m-1} (multiples of 1/d_m that are not multiples of any
coarser d) the m-th fiber coordinate is collapsed.  All levels are built on
the common grid of multiples of 1/d_n so that meshes align exactly and the
discrete nesting holds to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import InvalidSequence
from .eigensolve import DEFAULT_SEED, SpectrumEntry, SpectrumList
from .fiber import LevelFamily, LevelLink, discretize_levels, level_spectra
from .metric_graph import DIRICHLET, NEUMANN, MetricGraph, Vertex, assemble


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


def wormhole_table(spec: LaaksoSpec) -> dict[int, list[Fraction]]:
    """Positions L_m \\ L_{m-1} per level m (endpoints excluded)."""
    d = spec.d
    table: dict[int, list[Fraction]] = {}
    seen: set[Fraction] = set()
    for m in range(1, spec.depth + 1):
        new = []
        for i in range(1, d[m]):
            x = Fraction(i, d[m])
            if x not in seen:
                seen.add(x)
                new.append(x)
        table[m] = new
    return table


def _birth_level(k: int, d: list[int], depth: int) -> int | None:
    """Level m at which grid index k (over d_n) becomes a wormhole; None for
    endpoints."""
    D = d[depth]
    if k == 0 or k == D:
        return None
    for m in range(1, depth + 1):
        if (k * d[m]) % D == 0:
            return m
    raise AssertionError("grid point has no level")  # unreachable


def build_laakso(spec: LaaksoSpec) -> LevelFamily:
    """All level graphs 0..n on the common grid, plus fiber links."""
    n = spec.depth
    d = spec.d
    D = d[n]
    length = 1.0 / D
    birth = [_birth_level(k, d, n) for k in range(D + 1)]

    def canon(k: int, w: tuple, level: int) -> tuple:
        m = birth[k]
        if m is not None and m <= level:
            w = w[: m - 1] + (0,) + w[m:]
        return w

    graphs: list[MetricGraph] = []
    indices: list[dict] = []  # vertex key -> index per level
    edge_indices: list[dict] = []
    for lvl in range(n + 1):
        words = list(product((0, 1), repeat=lvl))
        keys = sorted({(k, canon(k, w, lvl)) for k in range(D + 1) for w in words})
        idx = {key: i for i, key in enumerate(keys)}
        verts = [
            Vertex(
                x=k / D,
                word=w,
                boundary=spec.boundary if k in (0, D) else None,
            )
            for (k, w) in keys
        ]
        weight = 0.5**lvl
        edges = []
        eidx = {}
        for w in words:
            for c in range(D):
                eidx[(c, w)] = len(edges)
                edges.append(
                    (idx[(c, canon(c, w, lvl))], idx[(c + 1, canon(c + 1, w, lvl))], length, weight)
                )
        graphs.append(MetricGraph(verts, edges, total_mass=1.0))
        indices.append(idx)
        edge_indices.append(eidx)

    links = []
    for lvl in range(1, n + 1):
        vparent = [0] * len(indices[lvl])
        for (k, w), i in indices[lvl].items():
            pw = canon(k, w[: lvl - 1], lvl - 1)
            vparent[i] = indices[lvl - 1][(k, pw)]
        eparent = [0] * len(edge_indices[lvl])
        for (c, w), i in edge_indices[lvl].items():
            eparent[i] = edge_indices[lvl - 1][(c, w[: lvl - 1])]
        links.append(LevelLink(level=lvl, fiber_size=2, vertex_parent=vparent, edge_parent=eparent))
    return LevelFamily(graphs=graphs, links=links)


def laakso_analytic_spectrum(
    spec: LaaksoSpec, lam_max: float, max_level: int | None = None
) -> SpectrumList:
    """Eigenvalue set of the limit Laplacian, truncated at lam_max.

    Three generating families, each contributing integer multiples of pi^2:
    k^2 d_n^2 (n >= 0), 4 k^2 d_n^2 (n >= 2) and 4 (2k+1)^2 d_n^2 (n >= 1).
    Entries are de-duplicated exactly on the integer coefficient; the tag
    lists every (family, n, k) source.  Multiplicities are not claimed: each
    entry carries multiplicity 1 and its source count.
    """
    if max_level is None:
        max_level = spec.depth
    d = spec.d
    pi2 = np.pi**2
    cmax = lam_max / pi2
    sources: dict[int, list[str]] = {}

    def add(c: int, tag: str):
        sources.setdefault(c, []).append(tag)

    for nn in range(0, max_level + 1):
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
    return SpectrumList(
        entries=entries,
        origin="analytic(laakso)",
        truncation=lam_max,
        meta={"j": spec.j, "max_level": max_level, "boundary": spec.boundary},
    )


def laakso_levels(spec: LaaksoSpec):
    """Pencils of levels 0..n at the spec's pitch from one build, plus the
    fiber structures between them (fibers[i] connects level i+1 to i)."""
    meshes, fibers = discretize_levels(build_laakso(spec), spec.pitch)
    return [assemble(m) for m in meshes], fibers


def laakso_numeric_spectra(
    spec: LaaksoSpec, lam_max: float, levels=None, seed: int = DEFAULT_SEED
) -> list[SpectrumList]:
    """Numeric spectra of the requested levels (default: all) with origin tags.

    Eigenvectors are classified into pullbacks (tag "base") and new-at-level
    vectors (tag "new@i"); multiplicities come from gap clustering.
    ``seed`` draws the start vector of the Krylov solver.
    """
    ops, fibers = laakso_levels(spec)
    meta = {"j": spec.j, "refine": spec.refine, "boundary": spec.boundary,
            "zero_mode": "included, outside the analytic family listing"}
    return level_spectra(ops, fibers, lam_max, "numeric(laakso,level={})", meta, levels, seed,
                         truncation=lam_max, pitch=spec.pitch)


def laakso_numeric_spectrum(
    spec: LaaksoSpec, lam_max: float, level: int | None = None, seed: int = DEFAULT_SEED
) -> SpectrumList:
    """Numeric spectrum of one level (default: deepest); see laakso_numeric_spectra."""
    return laakso_numeric_spectra(spec, lam_max, [spec.depth if level is None else level], seed)[0]
