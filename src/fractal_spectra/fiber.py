"""Fiber correspondences between consecutive approximation levels.

Every builder outputs a LevelFamily: the graphs of levels 0..n on a common
grid, plus LevelLinks recording which level-i vertex/edge covers which
level-(i-1) vertex/edge.  The Laakso space and the pâte à choux are both a
base graph times binary fibers, glued at base vertices by birth level, and
share one array builder (``_binary_fiber_family``); the stitched strings,
whose fibers are not binary and whose coordinates are free only on one
sheet, copy each level from the one below (``strings.build_stitched``).
From a link and two levels' vertex pencils we derive a
FiberStructure, the node that each level-i node covers at level i-1, and
from it the contrast basis of the fiber-mean-zero vectors.

``level_spectra`` is the pipeline every family uses.  The fiber projector P
splits the level-i space into range(P), which carries the level-(i-1)
spectrum unchanged, and ker(P), which carries the eigenvalues new at level
i; so it solves level 0 once and then only the ker(P) block of each level
(``new_blocks``), and each eigenvalue's origin is known from where it was
solved.  The Laakso and string levels, whose edges have one length, run it
on their vertex pencils and map the values to the mesh by the Chebyshev
rule (``equilateral_spectra``).  No eigenvector is formed.  The tests
check both against the mesh pencils of ``tests/mesh_reference.py`` and an
independent route (``tests/level_reference.py``): solve the whole level
pencil with LAPACK's generalized driver and classify every eigenvector by
the projectors of the levels below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .eigensolve import DEFAULT_SEED, SpectrumList, cluster, solve_below
from .errors import IncompatibleMesh
from .metric_graph import (
    DIRICHLET,
    SPECTRAL_BOUND,
    DiscreteOperator,
    EquilateralMesh,
    MetricGraph,
    graph_operator,
    walk_kernels,
)

#: relative tolerance of the two checks that make the split of a level
#: pencil by the fiber projector exact (see ``new_blocks``)
SPLIT_RTOL = 1e-12


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


def _binary_fiber_family(base_ends, birth, depth: int, length: float, dirichlet,
                         total_mass: float | None = None) -> LevelFamily:
    """Levels 0..depth of a base graph times the binary fibers {0,1}^l, with
    fiber coordinate b collapsed at the base vertices born at level b.

    ``base_ends`` are the base graph's edges as (u, v) rows, ``birth[v]`` is
    the level at which base vertex v is born (0 for a vertex that is never
    collapsed), and ``dirichlet`` marks base vertices whose copies are
    Dirichlet vertices.  At level l a vertex is the code ``v * 2^l + word``,
    the word's first coordinate being its most significant bit, with bit
    l - b cleared when 1 <= b = birth[v] <= l; so integer order is the order
    of (base vertex, word) pairs.  Edges run word by word and, within a
    word, base edge by base edge; each has ``length`` and the fiber measure
    2^-l.  A vertex covers the vertex one level down that drops its last
    coordinate, ``code >> 1`` (its word is canonical already), and an edge
    covers its base edge under the shortened word.
    """
    base_ends = np.asarray(base_ends, dtype=np.int64).reshape(-1, 2)
    birth = np.asarray(birth, dtype=np.int64)
    dirichlet = np.asarray(dirichlet, dtype=bool)
    n_edges = len(base_ends)
    graphs, links = [], []
    for lvl in range(depth + 1):
        words = np.arange(2**lvl, dtype=np.int64)[:, None]
        # the word bit that each base vertex clears (0: none)
        clear = np.where((birth >= 1) & (birth <= lvl), 1 << np.maximum(lvl - birth, 0), 0)

        def code(v):  # one row per word
            return (v << lvl) | (words & ~clear[v])

        codes = np.sort(code(np.arange(len(birth))), axis=None)
        codes = codes[np.r_[True, codes[1:] != codes[:-1]]]  # np.unique, without its hash table
        ends = np.searchsorted(codes, code(base_ends.ravel())).reshape(-1, 2)
        graphs.append(MetricGraph(codes, ends, length, 0.5**lvl, dirichlet[codes >> lvl],
                                  total_mass))
        if lvl:
            edge_parent = (words >> 1) * n_edges + np.arange(n_edges)
            links.append(LevelLink(level=lvl,
                                   vertex_parent=np.searchsorted(graphs[-2].labels, codes >> 1),
                                   edge_parent=edge_parent.ravel()))
    return LevelFamily(graphs=graphs, links=links)


@dataclass
class FiberStructure:
    """Node-level covering map from a level-i space to level i-1:
    ``parent[j]`` is the lower-level node covered by node j.  Nodes over the
    glued set are their own single copy."""

    level: int
    n_low: int
    n_high: int
    parent: np.ndarray


def contrast_basis(fs: FiberStructure) -> sp.csr_matrix:
    """Euclidean-orthonormal basis of the fiber-mean-zero vectors: Helmert
    contrasts on each fiber, ``n_high - n_low`` columns in all.

    A fiber of copies c_0..c_{s-1} (ascending node order) gets s - 1 columns;
    column k has 1/sqrt(k(k+1)) on c_0..c_{k-1} and -k/sqrt(k(k+1)) on c_k,
    so two copies give (e_a - e_b)/sqrt(2).  Collapsed nodes get no column.
    Columns run fiber by fiber in the order of the lower-level nodes.
    """
    counts = np.bincount(fs.parent, minlength=fs.n_low)
    members = np.argsort(fs.parent, kind="stable")  # fiber by fiber, ascending
    first = np.cumsum(counts) - counts
    first_col = np.cumsum(counts - 1) - (counts - 1)
    rows, cols, vals = [], [], []
    for s in np.unique(counts[counts > 1]):
        fibers = np.flatnonzero(counts == s)
        nodes = members[first[fibers, None] + np.arange(s)]  # (fibers, s)
        k = np.arange(1, s)
        helmert = np.triu(np.ones((s, s - 1))) * (1.0 / np.sqrt(k * (k + 1)))
        helmert[k, k - 1] = -k / np.sqrt(k * (k + 1))
        r, c = np.nonzero(helmert)
        rows.append(nodes[:, r].ravel())
        cols.append((first_col[fibers, None] + c).ravel())
        vals.append(np.tile(helmert[r, c], len(fibers)))
    shape = (fs.n_high, fs.n_high - fs.n_low)
    if not rows:
        return sp.csr_matrix(shape)
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape
    )


def vertex_fiber_structure(
    op_hi_keep: np.ndarray, op_lo_keep: np.ndarray, link: LevelLink
) -> FiberStructure:
    """Fiber structure on graph-Laplacian operators (vertex nodes only).

    ``op_*_keep`` are the vertex indices retained by graph_operator, in
    ascending order.
    """
    p = link.vertex_parent[op_hi_keep]
    parent = np.searchsorted(op_lo_keep, p)
    kept = parent < len(op_lo_keep)
    kept[kept] = op_lo_keep[parent[kept]] == p[kept]
    if not np.all(kept):
        raise IncompatibleMesh("vertex maps onto an eliminated Dirichlet vertex")
    return _finish(parent, len(op_lo_keep), link)


def _finish(parent: np.ndarray, n_low: int, link: LevelLink) -> FiberStructure:
    counts = np.bincount(parent, minlength=n_low)
    if np.any(counts == 0):
        raise IncompatibleMesh("some lower-level nodes are not covered")
    return FiberStructure(level=link.level, n_low=n_low, n_high=len(parent), parent=parent)


def graph_levels(family: LevelFamily, boundary: str | None = None):
    """Graph-Laplacian pencils for every level plus vertex fiber structures."""
    ops = [graph_operator(g, boundary) for g in family.graphs]
    fibers = [
        vertex_fiber_structure(ops[i + 1].kept_vertices, ops[i].kept_vertices, family.links[i])
        for i in range(len(family.links))
    ]
    return ops, fibers


def _components(op_hi: DiscreteOperator, op_lo: DiscreteOperator, fs: FiberStructure):
    """Yield the connected components of the ker(P) block of ``op_hi`` as
    ((data, indices, indptr) of the CSR block, mass diagonal); see
    ``new_blocks``."""
    n_hi = fs.n_high
    if not n_hi:  # every vertex eliminated: nothing to split
        return
    U = sp.csr_matrix((np.ones(n_hi), (np.arange(n_hi), fs.parent)), shape=(n_hi, fs.n_low))
    lhs = op_hi.A @ U
    rhs = sp.diags(op_hi.M) @ U @ sp.diags(1.0 / op_lo.M) @ op_lo.A
    scale = abs(lhs).max() if lhs.nnz else 0.0
    if abs(lhs - rhs).max() > SPLIT_RTOL * scale:
        raise IncompatibleMesh(f"level {fs.level}: the lift does not intertwine the level pencils")
    counts = np.bincount(fs.parent, minlength=fs.n_low)
    mean_mass = np.bincount(fs.parent, op_hi.M, fs.n_low) / counts
    if np.max(np.abs(op_hi.M - mean_mass[fs.parent]) / op_hi.M) > SPLIT_RTOL:
        raise IncompatibleMesh(f"level {fs.level}: copies in a fiber have unequal mass")
    Q = contrast_basis(fs)
    if not Q.shape[1]:
        return
    A = Q.T @ op_hi.A @ Q
    A = (0.5 * (A + A.T)).tocsr()  # the two triangles may differ in their last bits
    A.eliminate_zeros()
    M = Q.multiply(Q).T @ op_hi.M
    n_comp, labels = connected_components(A, directed=False)
    # ordered component by component, each component's rows are a contiguous
    # run whose columns stay inside the run, so a block is a slice of the CSR
    # arrays; within a component the order is ascending, so every row keeps
    # the column order of A and the slices equal A[idx][:, idx] bit for bit
    order = np.argsort(labels, kind="stable")
    A, M = A[order][:, order], M[order]
    bounds = np.cumsum(np.bincount(labels, minlength=n_comp)).tolist()
    for start, stop in zip([0, *bounds], bounds):
        lo, hi = A.indptr[start], A.indptr[stop]
        yield (A.data[lo:hi], A.indices[lo:hi] - start, A.indptr[start:stop + 1] - lo), M[start:stop]


def _block(arrays, M: np.ndarray) -> DiscreteOperator:
    return DiscreteOperator(A=sp.csr_matrix(arrays, shape=(len(M), len(M))), M=M)


def new_blocks(op_hi: DiscreteOperator, op_lo: DiscreteOperator, fs: FiberStructure):
    """The ker(P) block of the level pencil ``op_hi``, split into connected
    components: the pencils whose eigenvalues are new at this level.

    With Q = contrast_basis(fs) the block is (Q^T A Q, diag(Q^T M Q)).  The
    split is exact when two things hold, and both are checked first:
    the lift U intertwines the pencils, A_hi U = M_hi U M_lo^{-1} A_lo (so
    range(U) is invariant and carries the spectrum of ``op_lo``), and all
    copies in a fiber have equal mass (so Q^T M Q is diagonal and range(U)
    is M-orthogonal to range(Q)).  Then S_hi is orthogonally similar to
    S_lo plus the blocks, and their inertia counts add up.  Either check
    failing raises IncompatibleMesh.
    """
    return [_block(*piece) for piece in _components(op_hi, op_lo, fs)]


def _level_values(ops, fibers, cut: float, seed: int) -> list[np.ndarray]:
    """Eigenvalues <= ``cut`` of level 0 and of the new blocks of each level
    above it, by ``solve_below``, whose length is its inertia count.

    A component is keyed on its CSR arrays and masses, and only a key not
    seen before becomes a block and a solve: on self-similar spaces most
    components repeat bit for bit, and the same input to the same seeded
    LAPACK or ARPACK call gives the same bits.
    """
    solved: dict[tuple, np.ndarray] = {}
    out = [solve_below(ops[0], cut, seed).values]
    for level in range(1, len(ops)):
        pieces = []
        for arrays, M in _components(ops[level], ops[level - 1], fibers[level - 1]):
            key = (*(a.tobytes() for a in arrays), M.tobytes())
            if key not in solved:
                solved[key] = solve_below(_block(arrays, M), cut, seed).values
            pieces.append(solved[key])
        out.append(np.concatenate(pieces or [np.zeros(0)]))
    return out


def _cluster_levels(new: list[np.ndarray], origin: str, meta: dict,
                    **cluster_kw) -> list[SpectrumList]:
    """Level i's spectrum from the values ``new[0..i]``, new[0] tagged "base"
    and new[k] "new@k", gap-clustered by ``cluster`` with ``cluster_kw``; its
    ``meta`` is ``meta`` plus the count of the values, ``inertia_count``.
    ``origin`` is formatted with the level."""
    values, tags, out = np.zeros(0), [], []
    for level, fresh in enumerate(new):
        values = np.concatenate([values, fresh])
        tags += ["base" if level == 0 else f"new@{level}"] * len(fresh)
        order = np.argsort(values, kind="stable")
        out.append(cluster(values[order], origin=origin.format(level),
                           tags=[tags[k] for k in order],
                           meta={**meta, "inertia_count": len(values)}, **cluster_kw))
    return out


def level_spectra(
    ops, fibers, lam_max: float, origin: str, meta: dict, seed: int = DEFAULT_SEED, **cluster_kw
) -> list[SpectrumList]:
    """Spectrum below ``lam_max`` of every level 0..n with origin tags.

    Level 0 is solved whole and each level i >= 1 only through its
    ``new_blocks``, each distinct component once (``_level_values``).  No
    eigenvector is formed: the spectra need only the values.  Level i's
    spectrum is the union of the level-0 values (tag "base") and the block
    values of levels 1..i (tag "new@k"), clustered (``_cluster_levels``).
    """
    return _cluster_levels(_level_values(ops, fibers, lam_max, seed), origin, meta, **cluster_kw)


def equilateral_spectra(family: LevelFamily, refines: list[int], lam_max: float, origin: str,
                        meta: dict, seed: int = DEFAULT_SEED) -> list[list[SpectrumList]]:
    """Finite-difference spectra below ``lam_max`` of every level of a family
    whose edges all have one length, cut into each of ``refines`` cells
    (``EquilateralMesh``), from one solve of the vertex pencils
    ``graph_levels(family, DIRICHLET)`` as in ``level_spectra``, at the
    largest ``EquilateralMesh.vertex_cut``.

    At each refinement the vertex values new at level i, less the
    walk-kernel values 0 and 2 new there, map to their branch values, and
    the edge modes join with the growth of their multiplicity at level i;
    the levels are clustered as in ``level_spectra``, with ``meta`` plus the
    refinement.  So each level's count is the mesh's inertia count at
    lam_max.
    """
    ops, fibers = graph_levels(family, DIRICHLET)
    meshes = [EquilateralMesh.of(family.graphs, refine) for refine in refines]
    cut = max(mesh.vertex_cut(lam_max) for mesh in meshes)
    kernels = [walk_kernels(g, op) for g, op in zip(family.graphs, ops)]
    whole = cut == SPECTRAL_BOUND  # only a whole spectrum holds the vertex value 2
    nu, low = [], (0, 0)
    for values, (z, t) in zip(_level_values(ops, fibers, cut, seed), kernels):
        # the walk-kernel values new at this level, 0 and 2, are the
        # smallest and the largest ones
        values = np.sort(values)
        nu.append(values[z - low[0]:len(values) - (t - low[1]) * whole])
        low = (z, t)
    out = []
    for mesh in meshes:
        new, low = [], 0
        for values, g, op, kernel in zip(nu, family.graphs, ops, kernels):
            modes, mult = mesh.edge_modes(len(g.ends), op.n, kernel, lam_max)
            new.append(np.concatenate([mesh.branch_values(values, lam_max),
                                       np.repeat(modes, mult - low)]))
            low = mult
        out.append(_cluster_levels(new, origin, {**meta, "refine": mesh.refine},
                                   truncation=lam_max, pitch=mesh.pitch))
    return out
