"""The fiber-projector routes to a level spectrum, kept as references for the
package's birth-set pieces (``fiber.level_spectra``), which never build a
level above 0.

Two routes run on the whole level pencils of the loop builders in
``tests/family_reference.py``, which also give the parent maps between
levels:

- the independent route: solve the whole level pencil with LAPACK's
  generalized driver, classify every eigenvector by the fiber projectors of
  the levels below (``classify_levels``) and gap-cluster
  (``reference_spectrum``);
- the block route the package took before: split each level pencil by the
  Helmert contrast basis of its fibers into the ker(P) block
  (``new_blocks``), after checking that the split is exact, and solve each
  distinct connected component of it once (``block_spectra``).

It also keeps the node-vector maps of a fiber structure (``lift``,
``project_down``, ``fiber_project``) and the small helpers only the tests
call: the complement of the fiber projector, the counting function and
total multiplicity of a spectrum list and the deepest choux level's
spectrum.  The merge of the levels that the package took before it merged
each level into the one below, sorting the rows of every level again at
each level, is the reference for ``fiber._cluster_levels``
(``sorted_levels``), with the merge of one sorted sequence that it calls
(``cluster``), which the decimation chain's reference calls too
(``tests/decimation_reference.py``)."""

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

import family_reference
from dense_reference import (
    DiscreteOperator,
    cluster_levels,
    gap_cluster,
    gap_runs,
    graph_operator,
    solve_below,
)
from fractal_spectra.eigensolve import SpectrumEntry, SpectrumList
from fractal_spectra.errors import FractalSpectraError
from fractal_spectra.gasket import ChouxSpec, choux_numeric_spectra
from lapack_reference import csr, eigenpairs_below, operator

#: relative tolerance of the two checks that make the split of a level
#: pencil by the fiber projector exact (see ``new_blocks``)
SPLIT_RTOL = 1e-12


class IncompatibleMesh(FractalSpectraError):
    """Vector or mesh does not match the fiber structure."""


class BeyondTruncation(FractalSpectraError):
    """Query point lies beyond the truncation of a spectrum list."""


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


def fiber_structure(parent: np.ndarray, n_low: int, link) -> FiberStructure:
    """The fiber structure of a node-level parent map; every lower-level
    node must be covered."""
    counts = np.bincount(parent, minlength=n_low)
    if np.any(counts == 0):
        raise IncompatibleMesh("some lower-level nodes are not covered")
    return FiberStructure(level=link.level, n_low=n_low, n_high=len(parent), parent=parent)


def vertex_fiber_structure(op_hi_keep, op_lo_keep, link) -> FiberStructure:
    """Fiber structure on graph-Laplacian operators (vertex nodes only).

    ``op_*_keep`` are the vertex indices retained by graph_operator, in
    ascending order.
    """
    op_hi_keep, op_lo_keep = np.asarray(op_hi_keep), np.asarray(op_lo_keep)
    p = link.vertex_parent[op_hi_keep]
    parent = np.searchsorted(op_lo_keep, p)
    kept = parent < len(op_lo_keep)
    kept[kept] = op_lo_keep[parent[kept]] == p[kept]
    if not np.all(kept):
        raise IncompatibleMesh("vertex maps onto an eliminated Dirichlet vertex")
    return fiber_structure(parent, len(op_lo_keep), link)


def graph_levels(family, boundary=None):
    """Graph-Laplacian pencils for every level of a loop-built family plus
    the vertex fiber structures between them."""
    ops = [graph_operator(g, boundary) for g in family.graphs]
    fibers = [
        vertex_fiber_structure(ops[i + 1].kept_vertices, ops[i].kept_vertices, family.links[i])
        for i in range(len(family.links))
    ]
    return ops, fibers


def choux_levels(spec: ChouxSpec):
    """Graph-Laplacian pencils and fiber structures of choux levels 0..i."""
    return graph_levels(family_reference.build_choux(spec), spec.boundary)


def _components(op_hi: DiscreteOperator, op_lo: DiscreteOperator, fs: FiberStructure):
    """Yield the connected components of the ker(P) block of ``op_hi`` as
    ((data, indices, indptr) of the CSR block, mass diagonal); see
    ``new_blocks``."""
    n_hi = fs.n_high
    if not n_hi:  # every vertex eliminated: nothing to split
        return
    U = sp.csr_matrix((np.ones(n_hi), (np.arange(n_hi), fs.parent)), shape=(n_hi, fs.n_low))
    lhs = csr(op_hi) @ U
    rhs = sp.diags(op_hi.M) @ U @ sp.diags(1.0 / op_lo.M) @ csr(op_lo)
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
    A = Q.T @ csr(op_hi) @ Q
    A = (0.5 * (A + A.T)).tocsr()  # the two triangles may differ in their last bits
    A.eliminate_zeros()
    M = Q.multiply(Q).T @ op_hi.M
    n_comp, labels = connected_components(A, directed=False)
    # component by component, each component's rows are a contiguous run
    # whose columns stay inside it, so a block is a slice of the CSR arrays
    order = np.argsort(labels, kind="stable")
    A, M = A[order][:, order], M[order]
    bounds = np.cumsum(np.bincount(labels, minlength=n_comp)).tolist()
    for start, stop in zip([0, *bounds], bounds):
        lo, hi = A.indptr[start], A.indptr[stop]
        yield (A.data[lo:hi], A.indices[lo:hi] - start, A.indptr[start:stop + 1] - lo), M[start:stop]


def _block(arrays, M: np.ndarray) -> DiscreteOperator:
    return operator(sp.csr_matrix(arrays, shape=(len(M), len(M))), M)


def new_blocks(op_hi: DiscreteOperator, op_lo: DiscreteOperator, fs: FiberStructure):
    """The ker(P) block of the level pencil ``op_hi``, split into connected
    components: the pencils whose eigenvalues are new at this level.

    With Q = contrast_basis(fs) the block is (Q^T A Q, diag(Q^T M Q)).  The
    split is exact when two things hold, and both are checked first:
    the lift U intertwines the pencils, A_hi U = M_hi U M_lo^{-1} A_lo (so
    range(U) is invariant and carries the spectrum of ``op_lo``), and all
    copies in a fiber have equal mass (so Q^T M Q is diagonal and range(U)
    is M-orthogonal to range(Q)).  Either check failing raises
    IncompatibleMesh.
    """
    return [_block(*piece) for piece in _components(op_hi, op_lo, fs)]


def block_spectra(ops, fibers, lam_max: float, origin: str, **cluster_kw) -> list[SpectrumList]:
    """Spectrum below ``lam_max`` of every level 0..n with origin tags, by
    the block route: level 0 solved whole, each level i >= 1 through its
    ``new_blocks``, each distinct component once (keyed on its CSR arrays
    and masses), gap-clustered level by level as the package merges its
    levels (``dense_reference.cluster_levels``)."""
    solved: dict[tuple, np.ndarray] = {}
    new = [solve_below(ops[0], lam_max).values]
    for level in range(1, len(ops)):
        pieces = []
        for arrays, M in _components(ops[level], ops[level - 1], fibers[level - 1]):
            key = (*(a.tobytes() for a in arrays), M.tobytes())
            if key not in solved:
                solved[key] = solve_below(_block(arrays, M), lam_max).values
            pieces.append(solved[key])
        new.append(np.concatenate(pieces or [np.zeros(0)]))
    return cluster_levels([(values, np.ones(len(values), dtype=np.int64)) for values in new],
                          origin, **cluster_kw)


# The maps below take one node vector (n,) or a block of them (n, m), one
# vector per column.


def _check(v: np.ndarray, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[0] != n:
        raise IncompatibleMesh(f"array of shape {v.shape} does not fit {n} nodes")
    return v


def lift(fs: FiberStructure, u: np.ndarray) -> np.ndarray:
    """Pull a level-(i-1) node vector back to level i (constant on fibers)."""
    return _check(u, fs.n_low)[fs.parent]


def project_down(fs: FiberStructure, v: np.ndarray) -> np.ndarray:
    """Average a level-i node vector over the fiber, landing at level i-1:
    each copy weighs 1/#copies, so the weights over a fiber sum to one."""
    v = _check(v, fs.n_high)
    counts = np.bincount(fs.parent, minlength=fs.n_low)
    average = sp.csr_matrix(
        (1.0 / counts[fs.parent], (fs.parent, np.arange(fs.n_high))), shape=(fs.n_low, fs.n_high)
    )
    return average @ v


def fiber_project(fs: FiberStructure, v: np.ndarray) -> np.ndarray:
    """Fiber-averaging projector at level i: constant across each fiber,
    identity on glued nodes."""
    return lift(fs, project_down(fs, v))


def fiber_complement(fs: FiberStructure, v: np.ndarray) -> np.ndarray:
    """Mean-zero component v - P v; kernel of the fiber projector."""
    return np.asarray(v, dtype=float) - fiber_project(fs, v)


def total_multiplicity(s: SpectrumList) -> int:
    """The number of eigenvalues of a spectrum list, multiplicities included."""
    return sum(e.multiplicity for e in s.entries)


def counting_function(s: SpectrumList, lam: float) -> int:
    """Eigenvalue counting function N(lambda), multiplicities included."""
    if lam > s.truncation * (1 + 1e-12):
        raise BeyondTruncation(f"lambda={lam} beyond truncation {s.truncation}")
    return int(sum(e.multiplicity for e in s.entries if e.value <= lam * (1 + 1e-12)))


def cluster(
    eigs,
    origin: str = "numeric",
    truncation: float = math.inf,
    pitch: float | None = None,
    tags=None,
    counts=None,
) -> SpectrumList:
    """Multiplicities of a sorted sequence of eigenvalues, each value
    counted ``counts`` times (positive integers; once each by default):
    equal values are one entry, whose multiplicity is the sum of their
    counts.

    ``tags`` optionally assigns a label per value; an entry's tag lists
    the distinct labels with their counts.  Values that differ stay apart
    however close they are: the closed forms give every copy of an
    eigenvalue the same bits.
    """
    rows = zip(eigs, itertools.repeat(1) if counts is None else counts,
               itertools.repeat("") if tags is None else tags)
    entries, last = [], -math.inf
    for value, run in itertools.groupby(rows, key=itemgetter(0)):
        if value < last:
            raise ValueError("input eigenvalues must be sorted")
        tally: dict[str, int] = {}
        for _, count, tag in run:
            tally[tag] = tally.get(tag, 0) + count
        text = ";".join(f"{tag}x{count}" for tag, count in sorted(tally.items()) if count)
        entries.append(SpectrumEntry(float(value), int(sum(tally.values())),
                                     "" if tags is None else text))
        last = value
    return SpectrumList(entries=entries, origin=origin, truncation=truncation, pitch=pitch)


def sorted_levels(new, origin: str, **cluster_kw) -> list[SpectrumList]:
    """``fiber._cluster_levels`` as it was before each level was merged
    into the one below: level i's spectrum from the values and counts
    ``new[0..i]``, new[0] tagged "base" and new[k] "new@k", the rows of
    every level up to i sorted again at level i (stably, so equal values
    keep their order) and merged by ``cluster`` with ``cluster_kw``, values
    of count 0 left out.  ``origin`` is formatted with the level."""
    rows, out = [], []
    for level, (fresh, copies) in enumerate(new):
        tag = "base" if level == 0 else f"new@{level}"
        for value, count in zip(fresh, copies):
            if count > 0:
                rows.append((value, count, tag))
        rows.sort(key=itemgetter(0))
        values, counts, tags = zip(*rows) if rows else ((), (), ())
        out.append(cluster(values, counts=counts, origin=origin.format(level), tags=tags,
                           **cluster_kw))
    return out


def choux_numeric_spectrum(spec: ChouxSpec) -> SpectrumList:
    """Spectrum of the deepest fiber level; see choux_numeric_spectra."""
    return choux_numeric_spectra(spec)[-1]


def split_projector_eigenspaces(vectors, M, fs, tol=1e-8):
    """Rotate a degenerate eigenspace so each column is either fiber-constant
    or fiber-mean-zero, and report which.

    ``vectors`` is an (n, m) block of M-orthonormal eigenvectors spanning an
    invariant subspace of the pencil.  Returns (rotated vectors, flags) where
    flags[j] is True for pullback (P v = v) and False for new (P v = 0).
    """
    m = vectors.shape[1]
    PV = fiber_project(fs, vectors)
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
            raise AssertionError(f"projector eigenvalue {mu[j]} not within {tol} of 0 or 1")
    return rotated, flags


def new_subspace_split(values, vectors, M, fs, tol=1e-8, cluster_rtol=1e-6):
    """Rotate a whole eigenbasis cluster by cluster and tag each vector as
    pullback (True) or new at this level (False).

    The rotation is written into ``vectors`` (no copy of the basis is made)
    and returned with the flags.
    """
    values = np.asarray(values, dtype=float)
    vectors = np.asarray(vectors)
    flags = np.zeros(len(values), dtype=bool)
    for start, stop in gap_runs(values, cluster_rtol):
        block, bf = split_projector_eigenspaces(vectors[:, start:stop], M, fs, tol)
        vectors[:, start:stop] = block
        flags[start:stop] = bf
    return vectors, flags


def classify_levels(values, vectors, ops, fibers, tol=1e-8, cluster_rtol=1e-6):
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
        vecs = project_down(fs, vecs[:, pulled])
    return origins


def reference_spectrum(ops, fibers, level, lam_max, **cluster_kw):
    """Clustered, origin-tagged spectrum of ``ops[level]`` below ``lam_max``,
    and the number of its values, from the full-pencil solve."""
    values, vectors = eigenpairs_below(ops[level], lam_max)
    origins = classify_levels(values, vectors, ops[: level + 1], fibers[:level])
    tags = ["base" if o == 0 else f"new@{o}" for o in origins]
    return gap_cluster(values, tags=tags, **cluster_kw), len(values)


def assert_matches_reference(per_level, ops, fibers, lam_max, rtol=1e-10, floor=1.0):
    """Every spectrum of ``per_level`` (levels 0, 1, ...) agrees with the
    independent route: values to ``rtol`` relative (the scale floored at
    ``floor``), multiplicities, tags and counts exactly."""
    for level, got in enumerate(per_level):
        ref, count = reference_spectrum(ops, fibers, level, lam_max)
        assert total_multiplicity(got) == count, level
        assert [(e.multiplicity, e.tag) for e in got.entries] == [
            (e.multiplicity, e.tag) for e in ref.entries
        ], level
        ours, theirs = np.asarray(got.values()), np.asarray(ref.values())
        assert np.all(np.abs(ours - theirs) <= rtol * np.maximum(floor, np.abs(theirs))), level
