"""Fiber correspondences between consecutive approximation levels.

Every builder outputs a LevelFamily: the graphs of levels 0..n on a common
grid, plus LevelLinks recording which level-i vertex/edge covers which
level-(i-1) vertex/edge.  The Laakso space and the pâte à choux are both a
base graph times binary fibers, glued at base vertices by birth level, and
share one array builder (``_binary_fiber_family``); the stitched strings
keep their own rule.  From a link and two aligned meshes we derive a
FiberStructure at the node level, which powers the pullback (lift) and the
fiber-averaging projector.

``level_spectra`` is the pipeline every family uses.  The fiber projector P
splits the level-i space into range(P), which carries the level-(i-1)
spectrum unchanged, and ker(P), which carries the eigenvalues new at level
i; so it solves level 0 once and then only the ker(P) block of each level
(``new_blocks``), and each eigenvalue's origin is known from where it was
solved.  The tests check it against an independent route
(``tests/level_reference.py``): solve the whole level pencil and classify
every eigenvector by the projectors of the levels below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .eigensolve import DEFAULT_SEED, SpectrumList, cluster, solve_below
from .errors import IncompatibleMesh
from .metric_graph import DiscreteOperator, MetricGraph, Mesh, discretize, graph_operator

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

        codes = np.unique(code(np.arange(len(birth))))
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
    """Node-level covering map from a level-i space to level i-1.

    ``parent[j]`` is the lower-level node covered by node j; ``copy_weight``
    is the fiber-measure weight of the copy (1/#copies, uniform measure), so
    the weights over the copies of any parent node sum to one.  Nodes over
    the glued set are their own single copy (weight 1).
    """

    level: int
    n_low: int
    n_high: int
    parent: np.ndarray
    copy_weight: np.ndarray


def _check(fs: FiberStructure, v: np.ndarray, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[0] != n:
        raise IncompatibleMesh(f"array of shape {v.shape} does not fit {n} nodes")
    return v


# The four maps below take one node vector (n,) or a block of them (n, m),
# one vector per column.


def lift(fs: FiberStructure, u: np.ndarray) -> np.ndarray:
    """Pull a level-(i-1) node vector back to level i (constant on fibers)."""
    u = _check(fs, u, fs.n_low)
    return u[fs.parent]


def project_down(fs: FiberStructure, v: np.ndarray) -> np.ndarray:
    """Average a level-i node vector over the fiber, landing at level i-1."""
    v = _check(fs, v, fs.n_high)
    average = sp.csr_matrix(
        (fs.copy_weight, (fs.parent, np.arange(fs.n_high))), shape=(fs.n_low, fs.n_high)
    )
    return average @ v


def fiber_project(fs: FiberStructure, v: np.ndarray) -> np.ndarray:
    """Fiber-averaging projector at level i: constant across each fiber,
    identity on glued nodes."""
    return lift(fs, project_down(fs, v))


def fiber_complement(fs: FiberStructure, v: np.ndarray) -> np.ndarray:
    """Mean-zero component v - P v; kernel of the fiber projector."""
    return _check(fs, v, fs.n_high) - fiber_project(fs, v)


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


def mesh_fiber_structure(mesh_hi: Mesh, mesh_lo: Mesh, link: LevelLink) -> FiberStructure:
    """Node-level fiber structure from a graph link and two aligned meshes.

    Requires both meshes to share the pitch; edge chains then correspond step
    for step (builders orient child edges like their parents).
    """
    if abs(mesh_hi.pitch - mesh_lo.pitch) > 1e-12 * mesh_lo.pitch:
        raise IncompatibleMesh("meshes have different pitches")
    vertex_parent, edge_parent = link.vertex_parent, link.edge_parent
    if np.any(mesh_hi.segments != mesh_lo.segments[edge_parent]):
        raise IncompatibleMesh("an edge and its parent edge have different lengths")
    parent = np.empty(mesh_hi.n_nodes, dtype=np.int64)
    kept = mesh_hi.vertex_nodes >= 0
    parent[mesh_hi.vertex_nodes[kept]] = mesh_lo.vertex_nodes[vertex_parent[kept]]
    # an interior node of an edge covers the same step along the parent edge
    inner = mesh_hi.segments - 1
    edge = np.repeat(np.arange(len(inner)), inner)
    nodes = np.arange(mesh_hi.n_nodes - len(edge), mesh_hi.n_nodes)
    parent[nodes] = mesh_lo.edge_start[edge_parent[edge]] + nodes - mesh_hi.edge_start[edge]
    if np.any(parent < 0):
        raise IncompatibleMesh("node maps onto an eliminated Dirichlet node")
    return _finish(parent, mesh_lo.n_nodes, link)


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
    return FiberStructure(
        level=link.level, n_low=n_low, n_high=len(parent), parent=parent,
        copy_weight=1.0 / counts[parent],
    )


def discretize_levels(family: LevelFamily, pitch: float):
    """Discretize every level at a common pitch.

    Returns (meshes, fiber structures); fibers[i] connects mesh i+1 to mesh i.
    """
    meshes = [discretize(g, pitch) for g in family.graphs]
    fibers = [
        mesh_fiber_structure(meshes[i + 1], meshes[i], family.links[i])
        for i in range(len(family.links))
    ]
    return meshes, fibers


def graph_levels(family: LevelFamily, boundary: str | None = None):
    """Graph-Laplacian pencils for every level plus vertex fiber structures."""
    ops = [graph_operator(g, boundary) for g in family.graphs]
    fibers = [
        vertex_fiber_structure(ops[i + 1].kept_vertices, ops[i].kept_vertices, family.links[i])
        for i in range(len(family.links))
    ]
    return ops, fibers


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
    n_hi = fs.n_high
    U = sp.csr_matrix((np.ones(n_hi), (np.arange(n_hi), fs.parent)), shape=(n_hi, fs.n_low))
    lhs = op_hi.A @ U
    rhs = sp.diags(op_hi.M) @ U @ sp.diags(1.0 / op_lo.M) @ op_lo.A
    scale = abs(lhs).max() if lhs.nnz else 0.0
    if abs(lhs - rhs).max() > SPLIT_RTOL * scale:
        raise IncompatibleMesh(f"level {fs.level}: the lift does not intertwine the level pencils")
    if np.max(np.abs(op_hi.M - lift(fs, project_down(fs, op_hi.M))) / op_hi.M) > SPLIT_RTOL:
        raise IncompatibleMesh(f"level {fs.level}: copies in a fiber have unequal mass")
    Q = contrast_basis(fs)
    if not Q.shape[1]:
        return []
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
    bounds = np.concatenate([[0], np.cumsum(np.bincount(labels, minlength=n_comp))])
    blocks = []
    for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        lo, hi = A.indptr[start], A.indptr[stop]
        block = sp.csr_matrix((A.data[lo:hi], A.indices[lo:hi] - start,
                               A.indptr[start:stop + 1] - lo), shape=(stop - start,) * 2)
        blocks.append(DiscreteOperator(A=block, M=M[start:stop]))
    return blocks


def level_spectra(
    ops, fibers, lam_max: float, origin: str, meta: dict, seed: int = DEFAULT_SEED, **cluster_kw
) -> list[SpectrumList]:
    """Spectrum below ``lam_max`` of every level 0..n with origin tags.

    Level 0 is solved whole and each level i >= 1 only through its
    ``new_blocks``, each distinct component once by
    ``solve_below(block, lam_max, seed, vectors=False)`` (a component equal
    bit for bit to one solved before reuses its values and inertia count).
    No eigenvector is formed: the spectra need only the values.
    Level i's spectrum is the union of the level-0 values (tag "base") and
    the block values of levels 1..i (tag "new@k"), gap-clustered by
    ``cluster`` with ``cluster_kw``; its ``meta`` is ``meta`` plus the summed
    inertia count.  ``origin`` is formatted with the level.
    """
    # one solve per distinct piece: on self-similar spaces most blocks repeat
    # bit for bit, and the same input to the same seeded LAPACK or ARPACK
    # call gives the same bits, so a repeat reuses the values and count
    solved: dict[tuple, tuple[np.ndarray, int]] = {}

    def solve(block: DiscreteOperator) -> tuple[np.ndarray, int]:
        A = block.A
        key = (A.shape, A.indptr.tobytes(), A.indices.tobytes(), A.data.tobytes(),
               block.M.tobytes())
        if key not in solved:
            pairs = solve_below(block, lam_max, seed, vectors=False)
            solved[key] = (pairs.values, pairs.inertia_count)
        return solved[key]

    values, tags, count, out = np.zeros(0), [], 0, []
    for level, op in enumerate(ops):
        blocks = [op] if level == 0 else new_blocks(op, ops[level - 1], fibers[level - 1])
        pieces = [solve(block) for block in blocks]
        new = np.concatenate([v for v, _ in pieces] or [np.zeros(0)])
        values = np.concatenate([values, new])
        tags += ["base" if level == 0 else f"new@{level}"] * len(new)
        count += sum(c for _, c in pieces)
        order = np.argsort(values, kind="stable")
        spectrum = cluster(values[order], origin=origin.format(level),
                           tags=[tags[k] for k in order], **cluster_kw)
        spectrum.meta = {**meta, "inertia_count": count}
        out.append(spectrum)
    return out
