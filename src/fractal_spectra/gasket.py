"""Sierpinski gasket graphs, spectral decimation, and gasket-with-fibers
("pate a choux") builders.

The gasket Laplacian here is the probabilistic graph Laplacian, realized as
the pencil (D - W, D); its continuum counterpart is defined by decimation
limits, not by edge-wise finite differences, so no metric mesh is involved.
One fiber level k glues the k-th binary coordinate over the new vertices
V_k \\ V_{k-1}.

Every pâte à choux piece has its spectrum in closed form by spectral
decimation (Fukushima & Shima, Potential Anal., 1992; Strichartz,
*Differential Equations on Fractals*, 2006, ch. 3), with exact
multiplicities and no solve (``choux_family``, ``_piece_spectrum``).

The gasket has the six symmetries of its triangle, the group D3
(``d3_maps``), which split its pencil into the A1, A2 and E blocks of
``eigensolve.solve_below`` (Bajorin et al., "Vibration modes of 3n-gaskets
and other fractals", J. Phys. A, 2008).  The Dirichlet decimation chain is
the whole Dirichlet gasket of each level so split (``dirichlet_chain``):
a dense solve, and so a check of the decimation that the pieces assume
(``decimation_check``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InvalidSpaceSpec, NoConvergence, ResolutionTooCoarse
from .eigensolve import SpectrumList, cluster, solve_below
from .fiber import LevelFamily, level_spectra
from .metric_graph import DIRICHLET, NEUMANN, SPECTRAL_BOUND, MetricGraph, graph_operator

# corners of the gasket as (x, y / sqrt(3)) times 2, the scale of level 0
_CORNERS = [(0, 0), (2, 0), (1, 1)]


@dataclass
class GasketGraph:
    """Level-m cell graph of the Sierpinski gasket.

    ``points[i]`` is (x, y/sqrt(3)) times 2^(m+1), exact integers;
    ``birth[i]`` is the level at which the vertex first appears (corners
    have birth 0); ``edges`` are (u, v) index rows in sorted order.
    """

    level: int
    points: np.ndarray
    birth: np.ndarray
    edges: np.ndarray

    @property
    def n_vertices(self) -> int:
        return len(self.points)


def gasket_levels(m: int) -> list[GasketGraph]:
    """Gaskets of levels 0..m from one midpoint-subdivision pass; level k's
    points (at its own scale) and births are the first entries of level m's.

    Every cell (a, b, c) gives the midpoints of ab, bc and ca and the cells
    (a, ab, ca), (ab, b, bc), (ca, bc, c); a midpoint is numbered where it
    first appears in that cell order."""
    if m < 0:
        raise ValueError("gasket level must be >= 0")
    points = np.array(_CORNERS, dtype=np.int64)
    birth = np.zeros(3, dtype=np.int64)
    cells = np.array([[0, 1, 2]], dtype=np.int64)

    def graph(lvl):
        edges = np.stack([cells, np.roll(cells, -1, axis=1)], axis=2).reshape(-1, 2)
        edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
        return GasketGraph(level=lvl, points=points, birth=birth, edges=edges)

    out = [graph(0)]
    for lvl in range(1, m + 1):
        points = 2 * points  # the scale of level lvl, where every midpoint is whole
        corner = points[cells]
        mids = ((corner + np.roll(corner, -1, axis=1)) // 2).reshape(-1, 2)
        key = mids[:, 0] * (2 ** (lvl + 1) + 1) + mids[:, 1]
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        ab, bc, ca = (len(points) + rank[inverse.ravel()]).reshape(-1, 3).T
        a, b, c = cells.T
        cells = np.stack([a, ab, ca, ab, b, bc, ca, bc, c], axis=1).reshape(-1, 3)
        points = np.concatenate([points, mids[np.sort(first)]])
        birth = np.concatenate([birth, np.full(len(first), lvl)])
        out.append(graph(lvl))
    return out


def build_gasket(m: int) -> GasketGraph:
    """Vertices and edges of the level-m gasket via midpoint subdivision."""
    return gasket_levels(m)[-1]


def n_points(m: int) -> int:
    """|V_m| = (3^(m+1) + 3) / 2: the vertices of the level-m gasket, which
    are the first |V_m| vertices of every finer level."""
    return (3 ** (m + 1) + 3) // 2


#: the six symmetries of the gasket as permutations of the barycentric
#: coordinates, in the order e, r, r^2, s, rs, r^2 s of
#: ``eigensolve.solve_below``: r cycles the corners, s swaps the first two
_D3_PERMUTATIONS = ((0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0))


def d3_maps(g: GasketGraph) -> np.ndarray:
    """The six symmetries of the gasket (the group D3) as a (6, n) array of
    vertex maps, row g taking vertex v to ``maps[g, v]``.

    A point (x, u) of level m has the integer barycentric coordinates
    (W - x - u, x - u, 2u), W = 2^(m+1); a symmetry permutes them, and
    ``searchsorted`` on the key x (W + 1) + u finds the image's index.  Each
    map preserves the edges and the births, so also every Dirichlet piece of
    the pâte à choux, and the rotations fix no vertex (none lies at the
    centroid)."""
    w = 2 ** (g.level + 1)
    x, u = g.points.T
    bary = np.stack([w - x - u, x - u, 2 * u])
    key = x * (w + 1) + u
    order = np.argsort(key)
    maps = []
    for perm in _D3_PERMUTATIONS:
        b = bary[list(perm)]
        image = (b[1] + b[2] // 2) * (w + 1) + b[2] // 2
        maps.append(order[np.searchsorted(key, image, sorter=order)])
    return np.stack(maps)


def _base(g: GasketGraph, boundary: str | None) -> MetricGraph:
    """The graph of g, the corners marked Dirichlet when ``boundary`` is
    "dirichlet"."""
    return MetricGraph(np.arange(g.n_vertices), g.edges, 1.0, 1.0,
                       (g.birth == 0) & (boundary == DIRICHLET))


def gasket_graph_spectrum(g: GasketGraph, boundary: str | None = None) -> SpectrumList:
    """Probabilistic graph-Laplacian spectrum of the level-m gasket.

    ``boundary="dirichlet"`` removes the three corner points.  The whole
    spectrum is solved, split by the symmetries of the gasket
    (``d3_maps``).
    """
    op = graph_operator(_base(g, boundary), boundary)
    maps = np.searchsorted(op.kept_vertices, d3_maps(g)[:, op.kept_vertices])
    return cluster(solve_below(op, SPECTRAL_BOUND, maps).values,
                   origin=f"numeric(gasket,m={g.level})", truncation=np.inf,
                   meta={"gasket_level": g.level, "boundary": boundary,
                         "normalization": "probabilistic"})


def dirichlet_chain(levels: list[GasketGraph]) -> list[SpectrumList]:
    """The Dirichlet spectra of the gaskets ``levels[1:]``, of levels 1..m
    from one ``gasket_levels`` pass, each solved whole in its D3 blocks
    (``gasket_graph_spectrum``)."""
    return [gasket_graph_spectrum(g, DIRICHLET) for g in levels[1:]]


#: eigenvalues of the degree-normalized-times-4 Laplacian that have no
#: decimation preimage (the classical forbidden values)
EXCEPTIONAL = (2.0, 5.0, 6.0)

#: Dirichlet interior vertices of the gasket are 4-regular, so the pencil
#: eigenvalue mu relates to the decimation variable by lambda = 4 mu
DECIMATION_SCALE = 4.0


def decimation_check(spec_m: SpectrumList, spec_m1: SpectrumList, tol: float = 1e-8) -> dict:
    """Verify the decimation relation between consecutive Dirichlet spectra.

    Every level-(m+1) eigenvalue lambda' must either satisfy
    lambda'(5 - lambda') = lambda for some level-m eigenvalue, or belong to
    the exceptional set {2, 5, 6}.  Inputs are probabilistic spectra; the
    check runs in the lambda = 4 mu variable.
    """
    lam_m = DECIMATION_SCALE * spec_m.values()
    report = {"matched": [], "exceptional": [], "unexplained": []}
    for e in spec_m1.entries:
        lp = DECIMATION_SCALE * e.value
        target = lp * (5.0 - lp)
        dev = float(np.min(np.abs(lam_m - target))) if len(lam_m) else np.inf
        if dev <= tol * max(1.0, abs(target)):
            report["matched"].append({"level_m1": lp, "image": target, "dev": dev})
        elif min(abs(lp - x) for x in EXCEPTIONAL) <= tol * max(1.0, lp):
            report["exceptional"].append(lp)
        else:
            report["unexplained"].append(lp)
    total = len(spec_m1.entries)
    explained = total - len(report["unexplained"])
    report["fraction_explained"] = explained / total if total else 1.0
    report["pass"] = not report["unexplained"]
    return report


def decimation_branch(spectra: list[SpectrumList], levels: list[int]) -> list[float]:
    """Renormalized ground-branch values 5^m * lambda_min per level."""
    out = []
    for s, m in zip(spectra, levels):
        lam = DECIMATION_SCALE * s.values()
        lam = lam[lam > 1e-12]
        out.append(float(5.0**m * np.min(lam)))
    return out


@dataclass
class ChouxSpec:
    """Fiber depth i over a level-m gasket; needs m >= i so every gluing set
    V_k \\ V_{k-1}, k <= i, is resolved."""

    fiber_depth: int
    gasket_level: int
    boundary: str | None = None

    def __post_init__(self):
        if self.fiber_depth < 0 or self.gasket_level < 0:
            raise ResolutionTooCoarse("depths must be nonnegative")
        if self.gasket_level < self.fiber_depth:
            raise ResolutionTooCoarse(
                f"gasket level {self.gasket_level} < fiber depth {self.fiber_depth}"
            )
        if self.boundary not in (None, NEUMANN, DIRICHLET):
            raise InvalidSpaceSpec(f"unknown boundary mode {self.boundary!r}")


def _decimate(x: np.ndarray, c: np.ndarray, kept: int, born: int, new2: int):
    """One step j -> j + 1 of spectral decimation: the spectrum (values x,
    counts c) of a gasket piece on the level-j gasket, on which it keeps
    ``kept`` vertices, to its spectrum on the level-(j + 1) gasket, which
    adds ``born`` kept vertices; the values are in the variable
    lambda = 4 mu.

    Each value continues to both preimages psi_+(x) = (5 + sqrt(25 - 4x)) / 2
    and psi_-(x) = 2x / (5 + sqrt(25 - 4x)) of phi(y) = y (5 - y) with its
    count, but for the forbidden psi_+(0) = 5 and psi_-(6) = 2; 6 is new
    ``kept`` times, 2 ``new2`` times, and 5 takes the rest of the
    ``kept + born`` values.  A negative count for 5 or 2 raises
    ``NoConvergence``.  0 and 6 are tested with ==: 6 is never a preimage,
    and psi_-(0) = 0 exactly, whereas a tolerance would take the psi_-
    chains of 4, a fifth smaller at each step, for 0."""
    root = np.sqrt(25.0 - 4.0 * x)
    plus, minus = x != 0.0, x != 6.0
    new5 = born - int(c[plus].sum() + c[minus].sum()) - new2
    if min(new5, new2) < 0:
        raise NoConvergence(0, f"decimation counts {new5} for 5 and {new2} for 2 "
                               f"of {kept + born} values")
    x = np.concatenate([(5.0 + root[plus]) / 2, 2.0 * x[minus] / (5.0 + root[minus]),
                        [6.0, 2.0, 5.0]])
    c = np.concatenate([c[plus], c[minus], [kept, new2, new5]])
    return x[c > 0], c[c > 0]


def _piece_spectrum(m: int, level: int, key: int) -> tuple[np.ndarray, np.ndarray]:
    """The whole spectrum of the piece ``key`` of level ``level`` of
    ``choux_family`` over the level-m gasket (``fiber.LevelFamily``): its
    walk-Laplacian values mu and their multiplicities, by spectral
    decimation from the level-``level`` gasket (``_decimate``).

    K_j, the number of kept vertices of V_j, is ``key`` at j = level - 1
    (at j = 0 on level 0), and K_(j+1) = K_j + 3^(j+1) at j >= level, as
    every vertex born above ``level`` is kept.  On the level-``level``
    gasket, level >= 1, every kept vertex lies in V_(level-1), all its
    neighbours are born at ``level`` and so eliminated: the pencil is
    diagonal, lambda = 4 K_(level-1) times.  Level 0 is the triangle:
    0 once and 6 twice, nothing with its corners eliminated.  2 is new
    3^level - K_(level-1) times at the first step of a piece, or once at
    the first of the whole gasket with eliminated corners, and never later.
    """
    if level:
        x, c = np.array([4.0]), np.array([key])
    elif key:
        x, c = np.array([0.0, 6.0]), np.array([1, 2])
    else:
        x, c = np.zeros(0), np.zeros(0, dtype=np.int64)
    kept, new2 = key, 3 ** level - key if level else int(key == 0)
    for j in range(level, m):
        x, c = _decimate(x, c, kept, 3 ** (j + 1), new2)
        kept, new2 = kept + 3 ** (j + 1), 0
    return x / DECIMATION_SCALE, c


def choux_family(spec: ChouxSpec, g: GasketGraph | None = None) -> LevelFamily:
    """Fiber levels 0..i over the level-m gasket ``g`` (built when not
    given): 2^i binary fiber copies glued at V_k \\ V_{k-1} in coordinate k.

    Level l >= 1 gains the spectrum of the gasket with Dirichlet marks at
    the vertices born at a level in S, for each S in {1..l} with max S = l,
    once.  Its spectrum depends only on K_(l-1), its number of kept
    vertices of V_(l-1), which is |V_(l-1)| less the eliminated corners and
    3^b for each b in S below l (``_piece_spectrum``); so each piece is
    keyed on it, and no two pieces of a level share a key.  Level 0, the
    gasket, is keyed on its kept corners, 3 or 0."""
    g = build_gasket(spec.gasket_level) if g is None else g
    corners = 3 * (spec.boundary != DIRICHLET)
    runs = [(np.array([corners]), np.ones(1, dtype=np.int64))]
    marked = np.zeros(1, dtype=np.int64)  # sum of 3^b over b in S below l, for every S
    for level in range(1, spec.fiber_depth + 1):
        runs.append((n_points(level - 1) - 3 + corners - marked, np.ones_like(marked)))
        marked = np.r_[marked, marked + 3 ** level]
    return LevelFamily(_base(g, spec.boundary), runs,
                       [len(g.edges) << level for level in range(1, spec.fiber_depth + 1)],
                       partial(_piece_spectrum, spec.gasket_level))


def choux_numeric_spectra(spec: ChouxSpec, family: LevelFamily | None = None) -> list[SpectrumList]:
    """Probabilistic Laplacian spectra of the glued space's fiber levels
    0..i with origin tags, from ``family``, ``choux_family(spec)`` when not
    given."""
    meta = {"fiber_depth": spec.fiber_depth, "gasket_level": spec.gasket_level,
            "boundary": spec.boundary}
    return level_spectra(choux_family(spec) if family is None else family, SPECTRAL_BOUND,
                         "numeric(choux,i={})", meta, truncation=np.inf)


def hausdorff_dimension() -> float:
    """Hausdorff dimension of the limit space: 1 + dim(SG) = log(6)/log(2)."""
    return math.log(6.0) / math.log(2.0)
