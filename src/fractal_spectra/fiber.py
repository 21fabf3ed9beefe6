"""Level spectra of projective-limit spaces from Dirichlet pieces of their
base graph.

A level-n approximation is a base graph times fibers, and the fiber
projector P of level l splits the level-l space into range(P), which
carries the spectrum of level l - 1, and ker(P), whose eigenfunctions
have mean zero over each fiber of coordinate l (on binary fibers: are odd
in it) and vanish where that coordinate is collapsed (arXiv 1204.5207;
Barlow & Evans, "Markov processes on vermiculated spaces", 2004).  So
every eigenvalue new at level l is an eigenvalue of a piece of the level-0
graph with extra Dirichlet vertices, and no level above 0 is built to find
it.  Every family hands the pipeline a LevelFamily, which describes those
pieces:

- a base graph times the binary fibers {0,1}^l, with coordinate b collapsed
  at the vertices born at level b (the Laakso space and the pâte à choux):
  the values new at level l are those of the base graph with Dirichlet
  marks at the vertices born at a level in S, for every S in {1..l} with
  max S = l.  On the gasket these pieces are listed (``binary_family``);
  on the Laakso path only the runs of each length and end type that they
  cut it into are counted, from the birth levels (``binary_path_family``);
- the stitched strings (``strings.stitched_family``): m_1 - 1 copies of the
  base path at level 1, and m_k Dirichlet paths of l_k / g cells at
  level k, one run per level (``path_family``).

Every family goes through one pipeline: find the values of each distinct
part of the pieces once, with the number of its copies, and tag each value
with the level it is new at (``_level_values``), then cluster the values
with their counts (``level_spectra``, which the pâte à choux uses); no
value is listed once per copy.  The walk Laplacian of a run of a path has
its values in closed form (``_run_values``): no matrix is formed and no
eigensolver called, and a run of m vertices lists its m values.  Any other
base (the gasket of the pâte à choux) is split into connected components
by label propagation over the NumPy CSR arrays of its pencil, each solved
densely by ``solve_below``.  A base with
symmetries (``LevelFamily.maps``: the six of the gasket) has pieces that
they carry onto themselves, so the components of a piece fall into orbits:
one component per orbit is solved, counted orbit size times, and a
component that is its own orbit is split into its symmetry blocks.  The
component solves of a family are cached on it for the run, so that other
cuts of its base (the decimation chain's cells, ``cell_values``) reuse
them.  The Laakso and string levels, whose edges have one length, map
their vertex values to the mesh by the Chebyshev rule first, adding edge
modes counted from |E_l| and |V_l| as counts (``equilateral_spectra``).  No
eigenvector is formed.

The trade-off: the pipeline assumes the decomposition instead of checking
it on every run.  The tests hold it to the whole level pencils, whose
eigenvectors they classify by the fiber projectors of the levels below
(``tests/level_reference.py``), and to the mesh pencils of
``tests/mesh_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .eigensolve import SpectrumList, cluster, solve_below
from .metric_graph import (
    SPECTRAL_BOUND,
    DiscreteOperator,
    EquilateralMesh,
    MetricGraph,
    _component_labels,
    _laplacian,
    _node_numbers,
    walk_kernels,
)


@dataclass
class LevelFamily:
    """Levels 0..n of a space, given by its level-0 graph ``base``, whose
    marked vertices are Dirichlet vertices, and for each level l >= 1 the
    pieces that carry its new eigenvalues and its edge count |E_l|.

    ``pieces[l - 1]`` lists (marks, copies): level l gains the spectrum of
    ``base`` with the extra Dirichlet vertices ``marks``, ``copies`` times.
    A base that is a path in vertex order, edge k joining vertices k and
    k + 1, with one weight on every edge, gives its pieces as ``runs``
    instead: ``runs[l]``, for l = 0..n, is the table (keys, counts) of the
    runs of kept vertices of the pieces of level l, level 0 being ``base``
    with its Dirichlet vertices, and level l gains the values of each run
    ``count`` times.  A run of m vertices whose first (last) vertex is the
    first (last) of the path, so a free path end, has the key
    4 m + 2 [first free] + [last free] (``path_family``,
    ``binary_path_family``).

    ``maps``, when given, is a (6, n) array of vertex maps of ``base``
    forming the group D3 (``eigensolve.solve_below``), each preserving its
    edges, its weights, its Dirichlet marks and the marks of every piece.
    ``solved`` holds the values of each distinct component of a piece
    solved so far, keyed on (cut, key): the family of a run is built once,
    so it is the run's solve cache.
    """

    base: MetricGraph
    pieces: list[list[tuple[np.ndarray, int]]] = field(default_factory=list)
    n_edges: list[int] = field(default_factory=list)
    maps: np.ndarray | None = None
    runs: list[tuple[np.ndarray, np.ndarray]] | None = None
    solved: dict = field(default_factory=dict, repr=False, compare=False)


def binary_family(base: MetricGraph, birth, depth: int,
                  maps: np.ndarray | None = None) -> LevelFamily:
    """Levels 0..depth of ``base`` times the binary fibers {0,1}^l, with
    fiber coordinate b collapsed at the base vertices born at level b
    (``birth[v]``, 0 for a vertex that is never collapsed), with the
    symmetries ``maps`` of ``base`` (see ``LevelFamily``).

    Level l has 2^l copies of every base edge, and its new values are those
    of ``base`` with Dirichlet marks at the vertices born at a level in S,
    for each of the 2^(l-1) sets S in {1..l} with max S = l; a set is a
    bit mask, bit b - 1 standing for level b.  On a path base the pieces
    are counted instead of listed (``binary_path_family``).
    """
    birth = np.asarray(birth, dtype=np.int64)
    bit = np.where(birth >= 1, np.left_shift(1, np.maximum(birth - 1, 0)), 0)
    pieces = [[((bit & (s | 1 << (level - 1))) != 0, 1) for s in range(1 << (level - 1))]
              for level in range(1, depth + 1)]
    return LevelFamily(base, pieces, [len(base.ends) << level for level in range(1, depth + 1)],
                       maps)


def binary_path_family(base: MetricGraph, birth, depth: int) -> LevelFamily:
    """``binary_family`` of a path base (see ``LevelFamily.runs``), each
    level's pieces given by their run table (``_binary_runs``)."""
    birth = np.asarray(birth, dtype=np.int64)
    return LevelFamily(base, n_edges=[len(base.ends) << level for level in range(1, depth + 1)],
                       runs=[_binary_runs(birth, base.dirichlet, level)
                             for level in range(depth + 1)])


def _binary_runs(birth: np.ndarray, dirichlet: np.ndarray, level: int):
    """The run table of level ``level`` of ``binary_family`` on a path base,
    counted without listing the 2^(level-1) pieces.

    A run lies strictly between two marks u < w: the vertices born at a
    level in 1..level, the Dirichlet vertices and the positions -1 and n
    just outside the path.  Let b_u and b_w be the births of u and w, for
    a mark born in 1..level, and I the set of births of the marks inside
    the run.  The run is one of the piece of S exactly when S holds level,
    b_u and b_w and misses I, and no Dirichlet vertex lies inside it; so it
    comes with 2^(level - |{level, b_u, b_w} u I|) pieces, none when
    {level, b_u, b_w} meets I.  Level 0 is the base, one piece.

    The pairs (u, w) are taken by the number of marks inside them, one
    step per mark, keeping the u whose inner marks miss level and b_u and
    are not Dirichlet vertices: on nested births (the Laakso grid) a run
    holds at most one coarser mark, so the walk ends after a few steps.
    Sets of births are bit masks, bit b - 1 standing for level b.
    """
    n = len(birth)
    at = np.flatnonzero(dirichlet | (birth >= 1) & (birth <= level))
    pos = np.r_[-1, at, n]
    bit = np.r_[0, np.where(dirichlet[at], 0, np.left_shift(1, birth[at]) >> 1), 0]
    top = (1 << level) >> 1
    u = np.arange(len(pos) - 1)
    w, inner = u + 1, np.zeros_like(u)
    keys, counts = [], []
    while len(u):
        need = top | bit[u] | bit[w]
        m = pos[w] - pos[u] - 1
        ok = ((inner & need) == 0) & (m > 0)
        keys.append((4 * m + 2 * (u == 0) + (w == len(pos) - 1))[ok])
        counts.append(np.left_shift(1, level - _popcount((need | inner)[ok])))
        inner = inner | bit[w]
        go = (bit[w] != 0) & ((inner & (top | bit[u])) == 0)
        u, w, inner = u[go], w[go] + 1, inner[go]
    keys, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    return keys, np.bincount(inverse, np.concatenate(counts), len(keys)).astype(np.int64)


def _popcount(x: np.ndarray) -> np.ndarray:
    """The number of set bits of each entry of x >= 0 (``np.bitwise_count``
    needs NumPy 2)."""
    count = np.zeros_like(x)
    while x.any():
        count += x != 0
        x = x & (x - 1)
    return count


def path_family(base: MetricGraph, spans, n_edges: list[int]) -> LevelFamily:
    """Levels 0..n of a path base (see ``LevelFamily.runs``) whose level l
    gains the values of the runs ``spans[l]``, each given as
    (first, stop, copies): the kept vertices first..stop-1 of the base,
    ``copies`` times."""
    n = base.n_vertices
    runs = []
    for spans_l in spans:
        first, stop, copies = np.array(spans_l, dtype=np.int64).reshape(-1, 3).T
        runs.append((4 * (stop - first) + 2 * (first == 0) + (stop == n), copies))
    return LevelFamily(base, n_edges=n_edges, runs=runs)


def _distinct_components(op: DiscreteOperator, copies: np.ndarray,
                         images: np.ndarray | None = None):
    """Yield (key, count, maps) for each distinct connected component of the
    pencil ``op``.  The key is the component's size n, its number of
    entries z, its CSR data, indices and indptr and its masses, as the bytes
    of one int64 row (the floats as their bits); ``count`` sums ``copies``,
    given per row, over the first rows of the components equal to it.

    ``images``, when given, holds the rows that six maps forming D3 send
    each row to, maps that permute the components among themselves.  Then
    each orbit of components is keyed once, on the component holding its
    smallest row, with ``copies`` times the orbit's size; a component that
    is its own orbit comes with its ``maps`` in its own numbering (for
    ``solve_below``), any other with None.

    The rows are permuted component by component, so each component's rows
    are a contiguous run whose columns stay inside the run, and a component
    is a slice of the CSR arrays; within a component the order is
    ascending, so every row keeps its column order.  Components of one size
    and one number of entries are compared as rows of one array, so no
    Python loop runs over the components.
    """
    if not op.n:
        return
    u, v = op.rows(), op.indices
    coupled = u < v  # each coupling once
    n_comp, labels = _component_labels(op.n, u[coupled], v[coupled])
    order = np.argsort(labels, kind="stable")
    place = np.empty_like(order)
    place[order] = np.arange(op.n)
    length = np.diff(op.indptr)[order]
    indptr = np.r_[0, np.cumsum(length)]
    source = np.repeat(op.indptr[order] - indptr[:-1], length) + np.arange(indptr[-1])
    data, indices = op.data[source], place[op.indices[source]]
    M, copies = op.M[order], copies[order]
    sizes = np.bincount(labels, minlength=n_comp)
    stop = np.cumsum(sizes)
    start = stop - sizes
    weight, keep, local = copies[start], np.ones(n_comp, dtype=bool), {}
    if images is not None:
        first = order[start]  # the smallest row of each component
        orbit = labels[images[:, first]]
        keep = first[orbit].min(axis=0) == first
        size = 1 + np.count_nonzero(np.diff(np.sort(orbit, axis=0), axis=0), axis=0)
        weight = weight * size
        for c in np.flatnonzero(size == 1).tolist():
            rows = order[start[c]:stop[c]]
            local[c] = np.searchsorted(rows, images[:, rows])
    lo = indptr[start]
    nnz = indptr[stop] - lo
    for n, z in sorted(set(zip(sizes[keep].tolist(), nnz[keep].tolist()))):
        k = np.flatnonzero(keep & (sizes == n) & (nnz == z))
        entries, nodes = lo[k, None] + np.arange(z), start[k, None] + np.arange(n + 1)
        rows = np.concatenate([np.tile([n, z], (len(k), 1)), data.view(np.int64)[entries],
                               indices[entries] - start[k, None], indptr[nodes] - lo[k, None],
                               M.view(np.int64)[nodes[:, :-1]]], axis=1)
        keys, index, inverse = np.unique(rows.view(np.dtype((np.void, rows.shape[1] * 8))).ravel(),
                                         return_index=True, return_inverse=True)
        counts = np.bincount(inverse, weight[k], len(keys)).astype(np.int64)
        yield from zip(keys.tolist(), counts.tolist(), [local.get(c) for c in k[index].tolist()])


def _pencil(key: bytes) -> DiscreteOperator:
    """The pencil of a ``_distinct_components`` key."""
    row = np.frombuffer(key, dtype=np.int64)
    n, z = row[:2]
    data, indices, indptr, M = np.split(row[2:], [z, 2 * z, 2 * z + n + 1])
    return DiscreteOperator(data.view(np.float64), indices, indptr, M.view(np.float64))


def _components(family: LevelFamily, drop: np.ndarray, copies: np.ndarray):
    """``_distinct_components`` of the pieces of ``family.base`` whose
    eliminated vertices are the rows of ``drop``, each with its ``copies``,
    assembled as one disjoint union; with ``family.maps``, one component per
    D3 orbit."""
    base = family.base
    n = base.n_vertices
    pos = _node_numbers(drop.ravel())
    offset = n * np.arange(len(drop))[:, None]
    ends = (offset[:, :, None] + base.ends).reshape(-1, 2)
    op = _laplacian(int(np.count_nonzero(~drop)), pos[ends[:, 0]], pos[ends[:, 1]],
                    np.tile(base.weight, len(drop)))
    images = None
    if family.maps is not None:
        images = (offset + family.maps[:, None, :]).reshape(len(family.maps), -1)
        images = pos[images[:, ~drop.ravel()]]
    return _distinct_components(op, np.repeat(copies, n)[~drop.ravel()], images)


def _run_values(key: int, cut: float) -> np.ndarray:
    """The eigenvalues <= cut (1 + 1e-12) of the pencil of a
    ``_distinct_runs`` key, ascending.

    The pencil of a run of m vertices is the walk Laplacian of the path
    with its free ends kept and every other end next to an eliminated
    vertex, whatever the edge weight; its values are 2 sin^2(theta_k / 2),
    k = 0..m-1, with theta_k = k pi / (m - 1) for two free ends,
    (2k + 1) pi / 2m for one and (k + 1) pi / (m + 1) for none (the
    discrete cosine and sine transforms diagonalize it).  The sine keeps
    the small values to a few units in their last place.  theta / pi is
    taken as a reduced fraction, so equal angles of different runs give
    equal bits."""
    m, free = key >> 2, (key >> 1 & 1) + (key & 1)
    k = np.arange(m)
    p, q = {2: (k, m - 1), 1: (2 * k + 1, 2 * m), 0: (k + 1, m + 1)}[free]
    g = np.gcd(p, q)
    values = 2 * np.sin(np.pi * (p // g) / (2 * (q // g))) ** 2
    return values[values <= cut * (1 + 1e-12)]


def _level_values(family: LevelFamily, cut: float):
    """Eigenvalues <= ``cut`` new at each level, as the arrays (values,
    counts): level l gains each of its values ``count`` times; and the
    number of kept vertices of each level: the sizes of its pieces and of
    those below, with their copies.

    Level 0 is ``base`` itself.  A piece's pencil is the vertex pencil of
    ``base`` (``graph_operator``) with its marks eliminated too.  On a path
    base every piece is a set of runs of the path, counted in
    ``family.runs``, whose values are in closed form (``_run_values``).
    On any other base the pieces of a level are assembled as one disjoint
    union and split into connected components (``_components``), one per
    orbit of ``family.maps``, and only a component not seen before is
    solved (``_part_values``): on self-similar spaces most pieces repeat,
    and the same input to the same LAPACK call gives the same bits.
    """
    base = family.base
    path = family.runs is not None
    new, kept, size = [], [], 0
    for level in family.runs if path else [[(np.zeros(base.n_vertices, dtype=bool), 1)],
                                           *family.pieces]:
        if path:
            keys, copies = level
            size += int(copies @ (keys >> 2))
            parts = [(_run_values(key, cut), count)
                     for key, count in zip(keys.tolist(), copies.tolist())]
        else:
            marks, copies = zip(*level)
            drop = base.dirichlet | np.stack(marks)
            copies = np.asarray(copies)
            size += int(copies @ np.count_nonzero(~drop, axis=1))
            parts = [(_part_values(family, key, cut, maps), count)
                     for key, count, maps in _components(family, drop, copies)]
        new.append((np.concatenate([np.zeros(0), *(values for values, _ in parts)]),
                    np.concatenate([np.zeros(0, dtype=np.int64),
                                    *(np.full(len(values), count) for values, count in parts)])))
        kept.append(size)
    return new, kept


def _part_values(family: LevelFamily, key: bytes, cut: float,
                 maps: np.ndarray | None = None) -> np.ndarray:
    """The eigenvalues <= ``cut`` of the component key ``key``, solved once
    per family (``family.solved``)."""
    if (cut, key) not in family.solved:
        family.solved[cut, key] = solve_below(_pencil(key), cut, maps).values
    return family.solved[cut, key]


def cell_values(family: LevelFamily, marks: np.ndarray, cut: float) -> dict[int, np.ndarray]:
    """The eigenvalues <= ``cut`` of a cell of ``family.base`` for each row
    of ``marks``, keyed on the cell's size, for rows that each cut the base
    (with its Dirichlet vertices) into equal connected components, as a
    self-similar graph falls into its cells at the vertices of a coarser
    level, each row's of its own size.

    All rows are split at once (``_components``), and of the components of
    one size only one is solved: the first one already in
    ``family.solved``, else the first one."""
    drop = family.base.dirichlet | marks
    cells: dict[int, list] = {}
    for key, _, maps in _components(family, drop, np.ones(len(drop), dtype=np.int64)):
        size = int(np.frombuffer(key, dtype=np.int64, count=1)[0])  # a key starts with its size
        cells.setdefault(size, []).append((key, maps))
    values = {}
    for size, found in cells.items():
        key, maps = next((c for c in found if (cut, c[0]) in family.solved), found[0])
        values[size] = _part_values(family, key, cut, maps)
    return values


def _cluster_levels(new: list[tuple[np.ndarray, np.ndarray]], origin: str, meta: dict,
                    **cluster_kw) -> list[SpectrumList]:
    """Level i's spectrum from the values and counts ``new[0..i]``, new[0]
    tagged "base" and new[k] "new@k", gap-clustered by ``cluster`` with
    ``cluster_kw``, values of count 0 left out; its ``meta`` is ``meta``
    plus the number of the values with their counts, ``count``.
    ``origin`` is formatted with the level."""
    values, counts, tags, out = np.zeros(0), np.zeros(0, dtype=np.int64), [], []
    for level, (fresh, copies) in enumerate(new):
        listed = copies > 0
        values = np.concatenate([values, fresh[listed]])
        counts = np.concatenate([counts, copies[listed]])
        tags += ["base" if level == 0 else f"new@{level}"] * int(np.count_nonzero(listed))
        order = np.argsort(values, kind="stable")
        out.append(cluster(values[order], counts=counts[order], origin=origin.format(level),
                           tags=[tags[k] for k in order],
                           meta={**meta, "count": int(counts.sum())}, **cluster_kw))
    return out


def level_spectra(family: LevelFamily, lam_max: float, origin: str, meta: dict,
                  **cluster_kw) -> list[SpectrumList]:
    """Vertex-pencil spectrum below ``lam_max`` of every level 0..n with
    origin tags: level i's spectrum is the union of the base values (tag
    "base") and the piece values of levels 1..i (tag "new@k"), from
    ``_level_values``, clustered (``_cluster_levels``)."""
    return _cluster_levels(_level_values(family, lam_max)[0], origin, meta, **cluster_kw)


def equilateral_spectra(family: LevelFamily, refines: list[int], lam_max: float, origin: str,
                        meta: dict) -> list[list[SpectrumList]]:
    """Finite-difference spectra below ``lam_max`` of every level of a family
    whose edges all have one length, cut into each of ``refines`` cells
    (``EquilateralMesh``), from one solve of the vertex pencils as in
    ``level_spectra``, at the largest ``EquilateralMesh.vertex_cut``.

    At each refinement the vertex values map to their branch values, each
    with its count, less the walk-kernel values 0 and 2, and the edge
    modes join with the growth of their multiplicity at level i as their
    count.  The edge modes need |E_i|, the kept
    |V_i| and the walk kernels of each level.  Every level has the kernels
    of the base graph: they are 0 once a vertex is eliminated, and
    otherwise the constants and, on a bipartite graph (whose levels all
    map onto it), the +-1 colourings.  So the values 0 and 2, the smallest
    and the largest, are new at level 0.  The levels are clustered as in
    ``level_spectra``, with ``meta`` plus the refinement, so each level's
    count is the number of mesh eigenvalues <= lam_max.
    """
    base = family.base
    meshes = [EquilateralMesh.of(base, refine) for refine in refines]
    cut = max(mesh.vertex_cut(lam_max) for mesh in meshes)
    kernels = walk_kernels(base)
    new, kept = _level_values(family, cut)
    whole = cut == SPECTRAL_BOUND  # only a whole spectrum holds the vertex value 2
    values, counts = new[0]
    order = np.argsort(values, kind="stable")
    counts = counts[order]
    # the kernels of the connected base are simple: its smallest value and,
    # in a whole spectrum, its largest, each listed once
    counts[:1] -= kernels[0]
    counts[len(counts) - 1:] -= kernels[1] * whole
    nu = [(values[order], counts), *new[1:]]
    n_edges = [len(base.ends), *family.n_edges]
    out = []
    for mesh in meshes:
        levels, low = [], 0
        for (values, counts), edges, n_kept in zip(nu, n_edges, kept):
            branch, source = mesh.branch_values(values, lam_max)
            modes, mult = mesh.edge_modes(edges, n_kept, kernels, lam_max)
            levels.append((np.concatenate([branch, modes]),
                           np.concatenate([counts[source], mult - low])))
            low = mult
        out.append(_cluster_levels(levels, origin, {**meta, "refine": mesh.refine},
                                   truncation=lam_max, pitch=mesh.pitch))
    return out
