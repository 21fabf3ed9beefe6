"""Sierpinski gasket graphs, spectral decimation, and gasket-with-fibers
("pate a choux") builders.

The gasket Laplacian here is the probabilistic graph Laplacian, realized as
the pencil (D - W, D); its continuum counterpart is defined by decimation
limits, not by edge-wise finite differences, so no metric mesh is involved.
One fiber level k glues the k-th binary coordinate over the new vertices
V_k \\ V_{k-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpaceSpec, ResolutionTooCoarse
from .eigensolve import SpectrumList, cluster, solve_below
from .fiber import LevelFamily, binary_family, binary_graphs, level_spectra
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


def _base(g: GasketGraph, boundary: str | None) -> MetricGraph:
    """The graph of g, the corners marked Dirichlet when ``boundary`` is
    "dirichlet"."""
    return MetricGraph(np.arange(g.n_vertices), g.edges, 1.0, 1.0,
                       (g.birth == 0) & (boundary == DIRICHLET))


def gasket_graph_spectrum(g: GasketGraph, boundary: str | None = None) -> SpectrumList:
    """Probabilistic graph-Laplacian spectrum of the level-m gasket.

    ``boundary="dirichlet"`` removes the three corner points.  The whole
    spectrum is solved.
    """
    op = graph_operator(_base(g, boundary), boundary)
    pairs = solve_below(op, SPECTRAL_BOUND)
    return cluster(pairs.values, origin=f"numeric(gasket,m={g.level})", truncation=np.inf,
                   meta={"gasket_level": g.level, "boundary": boundary,
                         "normalization": "probabilistic"})


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
    """Fiber levels 0..i over the level-m gasket as the gasket and its
    Dirichlet pieces (``fiber.binary_family``): 2^i binary fiber copies
    glued at V_k \\ V_{k-1} in coordinate k."""
    g = build_gasket(spec.gasket_level)
    return binary_family(_base(g, spec.boundary), g.birth, spec.fiber_depth)


def build_choux(spec: ChouxSpec) -> list[MetricGraph]:
    """The graphs of fiber levels 0..i over the level-m gasket
    (``fiber.binary_graphs``)."""
    g = build_gasket(spec.gasket_level)
    return binary_graphs(_base(g, spec.boundary), g.birth, spec.fiber_depth)


def choux_numeric_spectra(spec: ChouxSpec) -> list[SpectrumList]:
    """Probabilistic Laplacian spectra of the glued space's fiber levels
    0..i with origin tags."""
    meta = {"fiber_depth": spec.fiber_depth, "gasket_level": spec.gasket_level,
            "boundary": spec.boundary}
    return level_spectra(choux_family(spec), SPECTRAL_BOUND, "numeric(choux,i={})", meta,
                         truncation=np.inf)


def hausdorff_dimension() -> float:
    """Hausdorff dimension of the limit space: 1 + dim(SG) = log(6)/log(2)."""
    return math.log(6.0) / math.log(2.0)
