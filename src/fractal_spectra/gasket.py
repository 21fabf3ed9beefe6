"""Sierpinski gasket graphs, spectral decimation, and gasket-with-fibers
("pate a choux") builders.

The gasket Laplacian here is the probabilistic graph Laplacian, realized as
the pencil (D - W, D); its continuum counterpart is defined by decimation
limits, not by edge-wise finite differences, so no metric mesh is involved.
One fiber level k glues the k-th binary coordinate over the new vertices
V_k \\ V_{k-1}.

The gasket has the six symmetries of its triangle, the group D3
(``d3_maps``); births, Dirichlet corners and so every pâte à choux piece
are invariant under them, which lets the pipeline solve one component per
orbit and split an invariant pencil into its A1, A2 and E blocks (Bajorin
et al., "Vibration modes of 3n-gaskets and other fractals", J. Phys. A,
2008).  The Dirichlet decimation chain is read from the cells of the same
level-m gasket (``dirichlet_chain``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpaceSpec, ResolutionTooCoarse
from .eigensolve import SpectrumList, cluster, solve_below
from .fiber import LevelFamily, binary_family, cell_values, level_spectra
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
    return _gasket_spectrum(solve_below(op, SPECTRAL_BOUND, maps).values, g.level, boundary)


def _gasket_spectrum(values: np.ndarray, m: int, boundary: str | None) -> SpectrumList:
    """The clustered whole spectrum ``values`` of the level-m gasket."""
    return cluster(values, origin=f"numeric(gasket,m={m})", truncation=np.inf,
                   meta={"gasket_level": m, "boundary": boundary, "normalization": "probabilistic"})


def dirichlet_chain(family: LevelFamily, m: int) -> list[SpectrumList]:
    """The Dirichlet spectra of the gaskets of levels 1..m, as
    ``gasket_graph_spectrum`` gives them, from the pieces of ``family``,
    whose base is the level-m gasket (``choux_family``).

    The level-m gasket cut at V_(m-k) falls into 3^(m-k) cells, each a
    level-k gasket with Dirichlet corners, pencil for pencil; so level k is
    one such cell (``fiber.cell_values``), solved once per run with the
    family's pieces: a cell that is already one of them is not solved
    again."""
    levels = range(1, m + 1)
    cuts = np.arange(family.base.n_vertices) < np.array([n_points(m - k) for k in levels])[:, None]
    cells = cell_values(family, cuts, SPECTRAL_BOUND)
    return [_gasket_spectrum(cells[n_points(k) - 3], k, DIRICHLET) for k in levels]


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


def choux_family(spec: ChouxSpec) -> LevelFamily:
    """Fiber levels 0..i over the level-m gasket as the gasket, its
    Dirichlet pieces and its symmetries (``fiber.binary_family``,
    ``d3_maps``): 2^i binary fiber copies glued at V_k \\ V_{k-1} in
    coordinate k."""
    g = build_gasket(spec.gasket_level)
    return binary_family(_base(g, spec.boundary), g.birth, spec.fiber_depth, d3_maps(g))


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
