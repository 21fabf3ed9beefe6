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
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import ResolutionTooCoarse
from .eigensolve import SpectrumList, cluster, solve_below
from .fiber import LevelFamily, graph_levels, level_spectra, link_levels
from .metric_graph import MetricGraph, Vertex, graph_operator

#: the probabilistic Laplacian I - D^{-1} W of any graph has its spectrum in
#: [0, 2], so solving below this bound returns every eigenpair, with the
#: inertia count proving the list complete
SPECTRAL_BOUND = 2.0

# corners of the gasket; y coordinates are stored as rational multiples of
# sqrt(3) so midpoint subdivision stays exact
_CORNERS = [
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(0)),
    (Fraction(1, 2), Fraction(1, 2)),
]


@dataclass
class GasketGraph:
    """Level-m cell graph of the Sierpinski gasket.

    ``points[i]`` is (x, y/sqrt(3)) as exact rationals, ``birth[i]`` the
    level at which the vertex first appears (corners have birth 0).
    """

    level: int
    points: list
    birth: list
    edges: list  # (u, v) index pairs

    @property
    def n_vertices(self) -> int:
        return len(self.points)


def gasket_levels(m: int) -> list[GasketGraph]:
    """Gaskets of levels 0..m from one midpoint-subdivision pass; level k's
    points and births are the first entries of level m's."""
    if m < 0:
        raise ValueError("gasket level must be >= 0")
    index = {p: i for i, p in enumerate(_CORNERS)}
    points, birth, cells = list(_CORNERS), [0, 0, 0], [(0, 1, 2)]

    def graph(lvl):
        edges = sorted(edge for (a, b, c) in cells for edge in ((a, b), (b, c), (c, a)))
        return GasketGraph(level=lvl, points=list(points), birth=list(birth), edges=edges)

    out = [graph(0)]
    for lvl in range(1, m + 1):
        new_cells = []
        for (a, b, c) in cells:
            pa, pb, pc = points[a], points[b], points[c]
            mab = ((pa[0] + pb[0]) / 2, (pa[1] + pb[1]) / 2)
            mbc = ((pb[0] + pc[0]) / 2, (pb[1] + pc[1]) / 2)
            mca = ((pc[0] + pa[0]) / 2, (pc[1] + pa[1]) / 2)
            ids = []
            for p in (mab, mbc, mca):
                if p not in index:
                    index[p] = len(index)
                    points.append(p)
                    birth.append(lvl)
                ids.append(index[p])
            iab, ibc, ica = ids
            new_cells.extend([(a, iab, ica), (iab, b, ibc), (ica, ibc, c)])
        cells = new_cells
        out.append(graph(lvl))
    return out


def build_gasket(m: int) -> GasketGraph:
    """Vertices and edges of the level-m gasket via midpoint subdivision."""
    return gasket_levels(m)[-1]


def _gasket_metric_graph(g: GasketGraph, fiber_depth: int = 0, boundary: str | None = None):
    """MetricGraph of the gasket with 2^i binary fiber copies glued at
    V_k \\ V_{k-1} in coordinate k."""

    def canon(vi, w):
        """Collapse coordinate b of a word at a vertex born at level
        1 <= b <= len(w), the word's level."""
        b = g.birth[vi]
        if 1 <= b <= len(w):
            w = w[: b - 1] + (0,) + w[b:]
        return w

    lvl = fiber_depth
    words = list(product((0, 1), repeat=lvl))
    keys = sorted({(vi, canon(vi, w)) for vi in range(g.n_vertices) for w in words})
    idx = {key: i for i, key in enumerate(keys)}
    weight = 0.5**lvl
    verts = [
        Vertex(
            x=(float(p[0]), float(p[1]) * math.sqrt(3.0)),
            word=(vi,) + w,
            boundary=boundary if g.birth[vi] == 0 else None,
        )
        for (vi, w) in keys
        for p in (g.points[vi],)
    ]
    edges = []
    eidx = {}
    for w in words:
        for ei, (a, b) in enumerate(g.edges):
            eidx[(ei, w)] = len(edges)
            edges.append((idx[(a, canon(a, w))], idx[(b, canon(b, w))], 1.0, weight))
    mg = MetricGraph(verts, edges)
    return mg, idx, eidx, canon


def gasket_graph_spectrum(g: GasketGraph, boundary: str | None = None) -> SpectrumList:
    """Probabilistic graph-Laplacian spectrum of the level-m gasket.

    ``boundary="dirichlet"`` removes the three corner points.  The whole
    spectrum is solved for values only.
    """
    mg, _, _, _ = _gasket_metric_graph(g, 0, boundary)
    op = graph_operator(mg, boundary)
    pairs = solve_below(op, SPECTRAL_BOUND, vectors=False)
    out = cluster(pairs.values, origin=f"numeric(gasket,m={g.level})", truncation=np.inf)
    out.meta = {"gasket_level": g.level, "boundary": boundary, "normalization": "probabilistic"}
    return out


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


def build_choux(spec: ChouxSpec) -> LevelFamily:
    """Fiber levels 0..i over the level-m gasket, with links."""
    g = build_gasket(spec.gasket_level)
    graphs, indices, edge_indices, canons = zip(
        *(_gasket_metric_graph(g, lvl, spec.boundary) for lvl in range(spec.fiber_depth + 1))
    )
    canon = canons[0]
    links = link_levels(indices, edge_indices, lambda key: (key[0], canon(key[0], key[1][:-1])),
                        lambda key: (key[0], key[1][:-1]))
    return LevelFamily(graphs=list(graphs), links=links)


def choux_levels(spec: ChouxSpec):
    """Graph-Laplacian pencils of fiber levels 0..i from one build, plus the
    fiber structures between them."""
    return graph_levels(build_choux(spec), spec.boundary)


def choux_numeric_spectra(spec: ChouxSpec) -> list[SpectrumList]:
    """Probabilistic Laplacian spectra of the glued space's fiber levels
    0..i with origin tags."""
    ops, fibers = choux_levels(spec)
    meta = {"fiber_depth": spec.fiber_depth, "gasket_level": spec.gasket_level,
            "boundary": spec.boundary}
    return level_spectra(ops, fibers, SPECTRAL_BOUND, "numeric(choux,i={})", meta, truncation=np.inf)


def choux_numeric_spectrum(spec: ChouxSpec) -> SpectrumList:
    """Spectrum of the deepest fiber level; see choux_numeric_spectra."""
    return choux_numeric_spectra(spec)[-1]


def hausdorff_dimension() -> float:
    """Hausdorff dimension of the limit space: 1 + dim(SG) = log(6)/log(2)."""
    return math.log(6.0) / math.log(2.0)
