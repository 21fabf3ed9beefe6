"""The loop builders of the Laakso space, the pâte à choux and the stitched
strings, the tests' only builders of the levels of a family: the reference
for the level sizes of the package's families and for the integer gaskets
of ``dense_reference.gasket_levels``, and the source of the parent maps
between levels (``LevelLink``) that the fiber projectors of
``tests/level_reference.py`` need.

Each level is built key by key: every (position, word) pair of the full
product of fiber sets is enumerated, a Python ``canon`` closure collapses
its fiber coordinates, the keys are sorted, the edges are walked word by
word, the gasket is subdivided in ``Fraction`` arithmetic and the graph is
checked one vertex and edge at a time, connectivity by a union-find.

The pieces of the path families, listed as masks and cut into runs one
mask at a time (``path_pieces``, ``distinct_runs``, ``run_tables``), and
the walk over the marks of the Laakso birth levels (``laakso_births``,
``binary_run_tables``) are the references for the run tables that the
families count; the masks are also the input of the component route that
the path route is held to (``tests/test_properties.py``).  ``kept_counts``
gives the kept vertex count of each level from the whole spectra of a
family's pieces, and ``edge_counts`` the edge count of each level of a
path family from its run keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

import piece_reference
from dense_reference import REL_TOL, MetricGraph
from fractal_spectra import strings
from fractal_spectra.errors import FractalSpectraError
from fractal_spectra.metric_graph import DIRICHLET
from fractal_spectra.strings import StringSpec


class DisconnectedGraph(FractalSpectraError):
    """Graph is not connected."""


@dataclass
class LevelLink:
    """Graph-level covering data from level ``level`` down to ``level - 1``:
    the level-(i-1) vertex and edge that each level-i vertex and edge covers."""

    level: int
    vertex_parent: np.ndarray
    edge_parent: np.ndarray


@dataclass
class LevelFamily:
    """Graphs of levels 0..n plus the links between consecutive levels."""

    graphs: list[MetricGraph]
    links: list[LevelLink]


def validate(labels: list, edges: list[tuple], total_mass: float | None = None) -> None:
    """The checks of a loop-built graph on its hashable vertex labels and
    (u, v, length, weight) edges: distinct labels, positive lengths and
    weights, endpoints in range, connectivity by a union-find and the
    declared mass."""
    n = len(labels)
    if len(set(labels)) != n:
        raise ValueError("duplicate vertex label")
    for u, v, length, weight in edges:
        if not (length > 0 and weight > 0):
            raise ValueError("edge lengths and weights must be positive")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError("edge endpoint out of range")
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v, _, _ in edges:
        ra, rb = find(u), find(v)
        if ra != rb:
            parent[ra] = rb
    if n > 0 and len({find(i) for i in range(n)}) != 1:
        raise DisconnectedGraph("metric graph is not connected")
    if total_mass is not None:
        m = float(sum(length * weight for _, _, length, weight in edges))
        if abs(m - total_mass) > REL_TOL * max(1.0, abs(total_mass)):
            raise ValueError(f"total measure {m} != declared mass {total_mass}")


def _family(keys_of_level, edges_of_level, n_levels, length, marked, canon, total_mass=None):
    """Levels 0..n_levels - 1 from per-level vertex keys (base vertex, word)
    and edges (base edge, word, u key, v key), validated by ``validate``."""
    graphs, indices, edge_indices = [], [], []
    for lvl in range(n_levels):
        keys = sorted(keys_of_level(lvl))
        idx = {key: i for i, key in enumerate(keys)}
        weight = 0.5**lvl
        eidx, edges = {}, []
        for ekey, a, b in edges_of_level(lvl):
            eidx[ekey] = len(edges)
            edges.append((idx[a], idx[b], length, weight))
        validate(keys, edges, total_mass)
        graphs.append(MetricGraph(
            np.array([(v, *w) for v, w in keys]).reshape(len(keys), -1),
            [(u, v) for u, v, _, _ in edges], length, weight,
            dirichlet=[marked(v) for v, _ in keys],
        ))
        indices.append(idx)
        edge_indices.append(eidx)
    links = [
        LevelLink(
            level=lvl,
            vertex_parent=np.array([indices[lvl - 1][(v, canon(v, w[:-1]))]
                                    for (v, w) in indices[lvl]], dtype=np.int64),
            edge_parent=np.array([edge_indices[lvl - 1][(e, w[:-1])]
                                  for (e, w) in edge_indices[lvl]], dtype=np.int64),
        )
        for lvl in range(1, n_levels)
    ]
    return LevelFamily(graphs=graphs, links=links)


def laakso_births(spec) -> list[int]:
    """The birth level of each grid point k / d_n of a ``LaaksoSpec``: the
    first level m >= 1 whose grid of multiples of 1 / d_m holds it, where
    fiber coordinate m is collapsed; 0 at the endpoints, which are never
    collapsed."""
    d = spec.d
    D = d[-1]
    birth = [0] * (D + 1)
    for m in range(spec.depth, 0, -1):
        birth[::D // d[m]] = [m] * (d[m] + 1)
    birth[0] = birth[D] = 0
    return birth


def build_laakso(spec) -> LevelFamily:
    """All level graphs 0..n of a ``LaaksoSpec`` on the common grid."""
    n = spec.depth
    D = spec.d[n]
    birth = laakso_births(spec)

    def canon(k, w):
        """Collapse coordinate m of a word at a wormhole born at level
        m <= len(w), the word's level."""
        m = birth[k]
        if 0 < m <= len(w):
            w = w[: m - 1] + (0,) + w[m:]
        return w

    def words(lvl):
        return list(product((0, 1), repeat=lvl))

    return _family(
        lambda lvl: {(k, canon(k, w)) for k in range(D + 1) for w in words(lvl)},
        lambda lvl: [((c, w), (c, canon(c, w)), (c + 1, canon(c + 1, w)))
                     for w in words(lvl) for c in range(D)],
        n + 1, 1.0 / D,
        lambda k: spec.boundary == DIRICHLET and k in (0, D),
        canon, total_mass=1.0,
    )


_CORNERS = [
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(0)),
    (Fraction(1, 2), Fraction(1, 2)),
]


@dataclass
class GasketGraph:
    """Level-m gasket: ``points[i]`` is (x, y/sqrt(3)) as exact rationals,
    ``birth[i]`` the level at which the vertex first appears."""

    level: int
    points: list
    birth: list
    edges: list  # (u, v) index pairs, sorted


def gasket_levels(m: int) -> list[GasketGraph]:
    """Gaskets of levels 0..m from one midpoint-subdivision pass."""
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


def build_choux(spec) -> LevelFamily:
    """Fiber levels 0..i of a ``ChouxSpec`` over the level-m gasket, with
    2^i binary fiber copies glued at V_k \\ V_{k-1} in coordinate k."""
    g = gasket_levels(spec.gasket_level)[-1]

    def canon(vi, w):
        """Collapse coordinate b of a word at a vertex born at level
        1 <= b <= len(w), the word's level."""
        b = g.birth[vi]
        if 1 <= b <= len(w):
            w = w[: b - 1] + (0,) + w[b:]
        return w

    def words(lvl):
        return list(product((0, 1), repeat=lvl))

    return _family(
        lambda lvl: {(vi, canon(vi, w)) for vi in range(len(g.points)) for w in words(lvl)},
        lambda lvl: [((ei, w), (a, canon(a, w)), (b, canon(b, w)))
                     for w in words(lvl) for ei, (a, b) in enumerate(g.edges)],
        spec.fiber_depth + 1, 1.0,
        lambda vi: spec.boundary == DIRICHLET and g.birth[vi] == 0,
        canon,
    )


def _fiber_sets(spec: StringSpec):
    """G_1 = {1..m_1}; G_i = {1..m_i + 1} for i >= 2."""
    out = [tuple(range(1, spec.mults[0] + 1))]
    for m in spec.mults[1:]:
        out.append(tuple(range(1, m + 2)))
    return out


def build_stitched(spec: StringSpec, top: int | None = None) -> LevelFamily:
    """Levels 0..``top`` (by default 0..N) of the stitched space on the
    common grid.

    Coordinate 1 is free on the whole open base interval; coordinate k >= 2
    is free only on the open right-end segment of length l_k of the sheet
    whose earlier coordinates are all 1.  Collapsed coordinates are
    canonicalized to 1.  Dirichlet conditions sit at the two original
    endpoints.
    """
    g = spec.grid_unit
    l1 = spec.lengths[0]
    K = int(l1 / g)
    fibers = _fiber_sets(spec)
    # cell c covers (c*g, (c+1)*g); attach_cell[k] = first cell inside the
    # level-(k+1) duplicated region
    attach_cell = [int((l1 - l) / g) for l in spec.lengths]

    def canon_cell(c: int, w: tuple) -> tuple:
        out = list(w)
        distinguished = len(out) == 0 or out[0] == 1
        for k in range(2, len(w) + 1):
            if not (distinguished and c >= attach_cell[k - 1]):
                out[k - 1] = 1
            if out[k - 1] != 1:
                distinguished = False
        return tuple(out)

    def canon_vertex(p: int, w: tuple) -> tuple:
        out = list(w)
        if len(w) >= 1 and not (0 < p < K):
            out[0] = 1
        distinguished = all(x == 1 for x in out[:1])
        for k in range(2, len(w) + 1):
            if not (distinguished and attach_cell[k - 1] < p < K):
                out[k - 1] = 1
            if out[k - 1] != 1:
                distinguished = False
        return tuple(out)

    top = spec.depth if top is None else top
    graphs, indices, edge_indices = [], [], []
    for lvl in range(top + 1):
        words = list(product(*fibers[:lvl])) if lvl else [()]
        vkeys = sorted({(p, canon_vertex(p, w)) for p in range(K + 1) for w in words})
        idx = {key: i for i, key in enumerate(vkeys)}
        ekeys = sorted({(c, canon_cell(c, w)) for c in range(K) for w in words})
        eidx = {key: i for i, key in enumerate(ekeys)}
        ends, weights = [], []
        for (c, w) in ekeys:
            weight = 1.0
            distinguished = True
            for k in range(1, lvl + 1):
                free = (k == 1) or (distinguished and c >= attach_cell[k - 1])
                if free:
                    weight /= len(fibers[k - 1])
                if k >= 1 and w[k - 1] != 1:
                    distinguished = False
            ends.append((idx[(c, canon_vertex(c, w))], idx[(c + 1, canon_vertex(c + 1, w))]))
            weights.append(weight)
        labels = np.array([(p, *w) for (p, w) in vkeys])
        validate([(p, *w) for (p, w) in vkeys],
                 [(u, v, float(g), w) for (u, v), w in zip(ends, weights)], float(l1))
        graphs.append(MetricGraph(labels, ends, float(g), weights,
                                  dirichlet=(labels[:, 0] == 0) | (labels[:, 0] == K)))
        indices.append(idx)
        edge_indices.append(eidx)

    # a level-i vertex or edge covers the one that drops its last coordinate
    links = [
        LevelLink(
            level=lvl,
            vertex_parent=np.array([indices[lvl - 1][(p, canon_vertex(p, w[:-1]))]
                                    for (p, w) in indices[lvl]], dtype=np.int64),
            edge_parent=np.array([edge_indices[lvl - 1][(c, canon_cell(c, w[:-1]))]
                                  for (c, w) in edge_indices[lvl]], dtype=np.int64),
        )
        for lvl in range(1, top + 1)
    ]
    return LevelFamily(graphs=graphs, links=links)


def path_pieces(spec) -> list[list[tuple[np.ndarray, int]]]:
    """The pieces of levels 1..n of the path family of a ``LaaksoSpec`` or
    ``StringSpec`` as (marks, copies) rows over its base path: every birth
    set of the Laakso grid (``piece_reference.binary_pieces``), and for the strings
    the base path m_1 - 1 times and the right-end segment from a_k, m_k
    times."""
    if isinstance(spec, StringSpec):
        K, starts, base = strings._path(spec)
        p = np.arange(K + 1)
        return [[(np.zeros(K + 1, dtype=bool), spec.mults[0] - 1)],
                *([(p <= a, m)] for a, m in zip(starts[1:], spec.mults[1:]))]
    return piece_reference.binary_pieces(laakso_births(spec), spec.depth)


def distinct_runs(drop: np.ndarray, copies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The run table (keys ascending, counts) of the rows of ``drop``, the
    eliminated vertices of a path, one row per piece, each row counted
    ``copies`` times (``fiber.LevelFamily.runs``): every run of every row
    is listed, keyed and counted, an edge between two eliminated vertices
    as a run of none, key 0."""
    edge = np.diff(np.pad(~drop, ((0, 0), (1, 1))).astype(np.int8), axis=1)
    rows, start = np.nonzero(edge == 1)
    stop = np.nonzero(edge == -1)[1]
    empty = np.nonzero(drop[:, :-1] & drop[:, 1:])[0]
    keys, inverse = np.unique(np.r_[4 * (stop - start) + 2 * (start == 0) + (stop == drop.shape[1]),
                                    np.zeros(len(empty), dtype=np.int64)], return_inverse=True)
    return keys, np.bincount(inverse, copies[np.r_[rows, empty]], len(keys)).astype(np.int64)


def run_tables(base: MetricGraph, pieces) -> list[tuple[np.ndarray, np.ndarray]]:
    """The run tables of levels 0..n of a path ``base`` with the (marks,
    copies) ``pieces`` of levels 1..n, level 0 being ``base`` itself."""
    tables = []
    for level in [[(np.zeros(base.n_vertices, dtype=bool), 1)], *pieces]:
        marks, copies = zip(*level)
        tables.append(distinct_runs(base.dirichlet | np.stack(marks), np.asarray(copies)))
    return tables


def kept_counts(family) -> list[int]:
    """The number of kept vertices of each level of a package family
    (``fiber.LevelFamily``): the sizes of its pieces and of those below,
    with their copies, a piece's size being the sum of the multiplicities
    of its whole spectrum."""
    kept, size = [], 0
    for level, (keys, copies) in enumerate(family.runs):
        size += sum(copy * sum(family.spectrum(level, key, float("inf"))[1])
                    for key, copy in zip(keys, copies))
        kept.append(size)
    return kept


def edge_counts(family) -> list[int]:
    """The number of edges of each level of a path family
    (``fiber.LevelFamily``): the edges spanned by its runs and those below,
    with their copies, m + 1 - f for a run of m vertices with f free ends.
    The runs tile the edges only with the runs of no vertex listed."""
    edges, size = [], 0
    for keys, copies in family.runs:
        size += sum(copy * ((key >> 2) + 1 - (key >> 1 & 1) - (key & 1))
                    for key, copy in zip(keys, copies))
        edges.append(size)
    return edges


def binary_run_tables(spec) -> list[tuple[list[int], list[int]]]:
    """The run tables of levels 0..n of the Laakso path of ``spec``, walked
    mark by mark from the birth levels (``laakso_births``,
    ``_binary_runs``): the route the package took before it counted them in
    closed form, and the reference for ``laakso.laakso_family``."""
    birth = laakso_births(spec)
    n = len(birth)
    # the marks of level l: the Dirichlet ends and the vertices born at a
    # level in 1..l, each with its birth bit (bit b - 1 for level b, none
    # for a Dirichlet end)
    marks = [(0, 0), (n - 1, 0)] if spec.boundary == DIRICHLET else []
    born = [[] for _ in range(spec.depth + 1)]
    for v, b in enumerate(birth):
        if b:
            born[b].append((v, 1 << b >> 1))
    tables = []
    for level in range(spec.depth + 1):
        marks = sorted(marks + born[level]) if level else marks
        tables.append(_binary_runs(marks, n, level))
    return tables


def _binary_runs(marks: list[tuple[int, int]], n: int, level: int):
    """The run table of level ``level`` on a path of n vertices, from its
    ``marks`` (position, birth bit) in position order, counted without
    listing the 2^(level-1) pieces.

    A run lies strictly between two marks u < w: the vertices born at a
    level in 1..level, the Dirichlet vertices and the positions -1 and n
    just outside the path.  It may hold no vertex, an edge between two marks
    on the path, but not at a position outside it.  Let b_u and b_w be the
    births of u and w, for a mark born in 1..level, and I the set of births
    of the marks inside the run.  The run is one of the piece of S exactly
    when S holds level, b_u and b_w and misses I, and no Dirichlet vertex
    lies inside it; so it comes with 2^(level - |{level, b_u, b_w} u I|)
    pieces, none when {level, b_u, b_w} meets I.  Level 0 is the base, one
    piece.

    The pairs (u, w) are taken from each u by the number of marks inside
    them, one step per mark, while the inner marks miss level and b_u and
    are not Dirichlet vertices: on nested births (the Laakso grid) a run
    holds at most one coarser mark, so the walk ends after a few steps.
    Sets of births are bit masks, bit b - 1 standing for level b.
    """
    pos = [-1, *(v for v, _ in marks), n]
    bit = [0, *(b for _, b in marks), 0]
    last = len(pos) - 1
    top = (1 << level) >> 1
    table: dict[int, int] = {}
    for u in range(last):
        start, stop, inner, w = pos[u], top | bit[u], 0, u
        while w < last:
            w += 1
            need = stop | bit[w]
            if not inner & need and pos[w] - start > (u == 0 or w == last):
                key = 4 * (pos[w] - start - 1) + 2 * (u == 0) + (w == last)
                table[key] = table.get(key, 0) + (1 << (level - (need | inner).bit_count()))
            inner |= bit[w]
            if not bit[w] or inner & stop:
                break
    keys = sorted(table)
    return keys, [table[key] for key in keys]
