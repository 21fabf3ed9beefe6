"""The independent route to a level spectrum: solve the whole level pencil
with LAPACK's generalized driver, classify every eigenvector by the fiber
projectors of the levels below (``classify_levels``) and cluster.  The
package solves only the new block of each level for its values
(``fiber.level_spectra``); the tests hold it to this route, which uses
neither ``level_spectra``, ``new_blocks`` nor ``solve_below``.

It also keeps the node-vector maps of a fiber structure (``lift``,
``project_down``, ``fiber_project``) and the small helpers only the tests
call: the complement of the fiber projector, the counting function of a
spectrum list and the deepest choux level's spectrum."""

import numpy as np
import scipy.sparse as sp

from fractal_spectra.eigensolve import SpectrumList, cluster, gap_runs
from fractal_spectra.errors import BeyondTruncation, IncompatibleMesh
from fractal_spectra.fiber import FiberStructure
from fractal_spectra.gasket import ChouxSpec, choux_numeric_spectra
from lapack_reference import eigenpairs_below


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


def counting_function(s: SpectrumList, lam: float) -> int:
    """Eigenvalue counting function N(lambda), multiplicities included."""
    if lam > s.truncation * (1 + 1e-12):
        raise BeyondTruncation(f"lambda={lam} beyond truncation {s.truncation}")
    return int(sum(e.multiplicity for e in s.entries if e.value <= lam * (1 + 1e-12)))


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
    return cluster(values, tags=tags, **cluster_kw), len(values)


def assert_matches_reference(per_level, ops, fibers, lam_max, rtol=1e-10):
    """Every spectrum of ``per_level`` (levels 0, 1, ...) agrees with the
    independent route: values to ``rtol`` relative (floored at 1),
    multiplicities, tags and counts exactly."""
    for level, got in enumerate(per_level):
        ref, count = reference_spectrum(ops, fibers, level, lam_max)
        assert got.meta["inertia_count"] == count == got.total_multiplicity(), level
        assert [(e.multiplicity, e.tag) for e in got.entries] == [
            (e.multiplicity, e.tag) for e in ref.entries
        ], level
        ours, theirs = got.values(), ref.values()
        assert np.all(np.abs(ours - theirs) <= rtol * np.maximum(1.0, np.abs(theirs))), level
