"""Fiber correspondences between consecutive approximation levels.

Every builder outputs a LevelFamily: the graphs of levels 0..n on a common
grid, plus LevelLinks recording which level-i vertex/edge covers which
level-(i-1) vertex/edge.  From a link and two aligned meshes we derive a
FiberStructure at the node level, which powers the pullback (lift), the
fiber-averaging projector and the eigenvector origin classification.
``level_spectra`` is the solve-classify-cluster pipeline every family uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .eigensolve import SpectrumList, cluster
from .errors import IncompatibleMesh, UnclassifiableVector
from .metric_graph import DiscreteOperator, MetricGraph, Mesh, discretize, graph_operator


@dataclass
class LevelLink:
    """Graph-level covering data from level ``level`` down to ``level - 1``."""

    level: int
    fiber_size: int
    vertex_parent: list[int]
    edge_parent: list[int]


@dataclass
class LevelFamily:
    """Graphs of levels 0..n plus the links between consecutive levels."""

    graphs: list[MetricGraph]
    links: list[LevelLink]

    @property
    def depth(self) -> int:
        return len(self.graphs) - 1


@dataclass
class FiberStructure:
    """Node-level covering map from a level-i space to level i-1.

    ``parent[j]`` is the lower-level node covered by node j; ``copy_weight``
    is the fiber-measure weight of the copy (1/#copies, uniform measure), so
    the weights over the copies of any parent node sum to one.  Nodes over
    the glued set are their own single copy (weight 1).
    """

    level: int
    fiber_size: int
    n_low: int
    n_high: int
    parent: np.ndarray
    copy_weight: np.ndarray
    collapsed: np.ndarray = field(repr=False, default=None)


def _check(fs: FiberStructure, v: np.ndarray, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise IncompatibleMesh(f"vector of length {v.shape} does not fit {n} nodes")
    return v


def lift(fs: FiberStructure, u: np.ndarray) -> np.ndarray:
    """Pull a level-(i-1) node vector back to level i (constant on fibers)."""
    u = _check(fs, u, fs.n_low)
    return u[fs.parent]


def project_down(fs: FiberStructure, v: np.ndarray) -> np.ndarray:
    """Average a level-i node vector over the fiber, landing at level i-1."""
    v = _check(fs, v, fs.n_high)
    out = np.zeros(fs.n_low)
    np.add.at(out, fs.parent, fs.copy_weight * v)
    return out


def fiber_project(fs: FiberStructure, v: np.ndarray) -> np.ndarray:
    """Fiber-averaging projector at level i: constant across each fiber,
    identity on glued nodes."""
    return lift(fs, project_down(fs, v))


def fiber_complement(fs: FiberStructure, v: np.ndarray) -> np.ndarray:
    """Mean-zero component v - P v; kernel of the fiber projector."""
    return _check(fs, v, fs.n_high) - fiber_project(fs, v)


def mesh_fiber_structure(mesh_hi: Mesh, mesh_lo: Mesh, link: LevelLink) -> FiberStructure:
    """Node-level fiber structure from a graph link and two aligned meshes.

    Requires both meshes to share the pitch; edge chains then correspond step
    for step (builders orient child edges like their parents).
    """
    if abs(mesh_hi.pitch - mesh_lo.pitch) > 1e-12 * mesh_lo.pitch:
        raise IncompatibleMesh("meshes have different pitches")
    parent = np.empty(mesh_hi.n_nodes, dtype=np.int64)
    for j, key in enumerate(mesh_hi.node_keys):
        if key[0] == "v":
            p = link.vertex_parent[key[1]]
            parent[j] = mesh_lo.vertex_node(p)
        else:
            _, ei, t = key
            pe = link.edge_parent[ei]
            parent[j] = mesh_lo.chains[pe][t]
    if np.any(parent < 0):
        raise IncompatibleMesh("node maps onto an eliminated Dirichlet node")
    return _finish(parent, mesh_lo.n_nodes, link)


def vertex_fiber_structure(
    op_hi_keep: list[int], op_lo_keep: list[int], link: LevelLink
) -> FiberStructure:
    """Fiber structure on graph-Laplacian operators (vertex nodes only).

    ``op_*_keep`` are the vertex indices retained by graph_operator.
    """
    lo_pos = {vi: k for k, vi in enumerate(op_lo_keep)}
    parent = np.empty(len(op_hi_keep), dtype=np.int64)
    for j, vi in enumerate(op_hi_keep):
        p = link.vertex_parent[vi]
        if p not in lo_pos:
            raise IncompatibleMesh("vertex maps onto an eliminated Dirichlet vertex")
        parent[j] = lo_pos[p]
    return _finish(parent, len(op_lo_keep), link)


def _finish(parent: np.ndarray, n_low: int, link: LevelLink) -> FiberStructure:
    counts = np.bincount(parent, minlength=n_low)
    if np.any(counts == 0):
        raise IncompatibleMesh("some lower-level nodes are not covered")
    weight = 1.0 / counts[parent]
    return FiberStructure(
        level=link.level,
        fiber_size=link.fiber_size,
        n_low=n_low,
        n_high=len(parent),
        parent=parent,
        copy_weight=weight,
        collapsed=(counts[parent] == 1),
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


def split_projector_eigenspaces(vectors: np.ndarray, M: np.ndarray, fs: FiberStructure, tol: float = 1e-8):
    """Rotate a degenerate eigenspace so each column is either fiber-constant
    or fiber-mean-zero, and report which.

    ``vectors`` is an (n, m) block of M-orthonormal eigenvectors spanning an
    invariant subspace of the pencil.  Returns (rotated vectors, flags) where
    flags[j] is True for pullback (P v = v) and False for new (P v = 0).
    """
    n, m = vectors.shape
    PV = np.column_stack([fiber_project(fs, vectors[:, j]) for j in range(m)])
    G = vectors.T @ (M[:, None] * PV)
    G = 0.5 * (G + G.T)
    mu, Q = np.linalg.eigh(G)
    rotated = vectors @ Q
    flags = []
    for j in range(m):
        if abs(mu[j] - 1.0) <= tol:
            flags.append(True)
        elif abs(mu[j]) <= tol:
            flags.append(False)
        else:
            raise UnclassifiableVector(
                f"projector eigenvalue {mu[j]} not within {tol} of 0 or 1"
            )
    return rotated, flags


def new_subspace_split(
    values: np.ndarray,
    vectors: np.ndarray,
    M: np.ndarray,
    fs: FiberStructure,
    tol: float = 1e-8,
    cluster_rtol: float = 1e-6,
):
    """Rotate a whole eigenbasis cluster by cluster and tag each vector as
    pullback (True) or new at this level (False).

    The rotation is written into ``vectors`` (no copy of the basis is made)
    and returned with the flags.
    """
    values = np.asarray(values, dtype=float)
    vectors = np.asarray(vectors)
    k = len(values)
    flags = np.zeros(k, dtype=bool)
    start = 0
    while start < k:
        stop = start + 1
        while stop < k and values[stop] - values[stop - 1] <= cluster_rtol * max(1.0, abs(values[stop])):
            stop += 1
        block, bf = split_projector_eigenspaces(vectors[:, start:stop], M, fs, tol)
        vectors[:, start:stop] = block
        flags[start:stop] = bf
        start = stop
    return vectors, flags


def classify_levels(
    values: np.ndarray,
    vectors: np.ndarray,
    ops: list[DiscreteOperator],
    fibers: list[FiberStructure],
    tol: float = 1e-8,
    cluster_rtol: float = 1e-6,
):
    """Tag each eigenvector of the top-level pencil with its origin level.

    Returns an integer array: 0 for vectors pulled back from the base space,
    i for vectors first appearing at level i (fiber-mean-zero there).
    Degenerate clusters are rotated in place so every top-level vector is
    classifiable against its own level's projector.
    """
    origins = np.zeros(len(values), dtype=int)
    vals, vecs, idxs = np.asarray(values, dtype=float), np.asarray(vectors), np.arange(len(values))
    for level in range(len(fibers), 0, -1):
        fs = fibers[level - 1]
        # rotates vecs in place, so the caller's basis becomes classifiable
        _, pulled = new_subspace_split(vals, vecs, ops[level].M, fs, tol, cluster_rtol)
        origins[idxs[~pulled]] = level
        if not pulled.any():
            break
        vals, idxs = vals[pulled], idxs[pulled]
        vecs = np.column_stack([project_down(fs, vecs[:, j]) for j in np.flatnonzero(pulled)])
    return origins


def level_spectra(
    ops, fibers, solve, origin: str, meta: dict, levels=None, **cluster_kw
) -> list[SpectrumList]:
    """Spectrum of each requested level (default: all) with origin tags.

    ``solve(op)`` returns the EigenPairs of one level's pencil.  Each
    eigenvector is tagged "base" (pulled back from level 0) or "new@i"
    (first appearing at level i) before gap clustering; ``origin`` is
    formatted with the level, ``cluster_kw`` go to ``cluster`` and ``meta``
    is stored with the inertia count of the solve.
    """
    out = []
    for level in range(len(ops)) if levels is None else levels:
        pairs = solve(ops[level])
        origins = classify_levels(pairs.values, pairs.vectors, ops[: level + 1], fibers[:level])
        tags = ["base" if o == 0 else f"new@{o}" for o in origins]
        spectrum = cluster(pairs.values, origin=origin.format(level), tags=tags, **cluster_kw)
        spectrum.meta = {**meta, "inertia_count": pairs.inertia_count}
        out.append(spectrum)
        del pairs  # free this level's eigenvectors before the next solve
    return out
