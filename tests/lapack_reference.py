"""Reference eigenpairs for the tests, independent of the package's solver,
and the SciPy forms of its pencils."""

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from dense_reference import DiscreteOperator


def csr(op) -> sp.csr_matrix:
    """The stiffness matrix A of the pencil ``op`` as a SciPy CSR matrix over
    the pencil's own arrays."""
    return sp.csr_matrix((op.data, op.indices, op.indptr), shape=(op.n, op.n))


def operator(A, M, kept_vertices=None) -> DiscreteOperator:
    """The pencil (A, M) of a SciPy sparse (or dense) A, its CSR arrays in
    canonical form: sorted columns, each once."""
    A = sp.csr_matrix(A, copy=True)
    A.sum_duplicates()
    return DiscreteOperator(A.data, A.indices, A.indptr, np.asarray(M, dtype=float), kept_vertices)


def generalized_eigh(op):
    """All eigenpairs of the pencil A v = lambda M v from LAPACK's generalized
    driver, without the standard form M^{-1/2} A M^{-1/2}; the vectors come
    back M-orthonormal and the values ascending."""
    return scipy.linalg.eigh(csr(op).toarray(), np.diag(op.M))


def eigenpairs_below(op, lam_max):
    """The eigenpairs of ``generalized_eigh`` with values <= lam_max, at the
    package's cut lam_max * (1 + 1e-12); their number is a count of the
    pencil's eigenvalues that does not come from the package."""
    values, vectors = generalized_eigh(op) if op.n else (np.zeros(0), np.zeros((0, 0)))
    keep = values <= lam_max * (1 + 1e-12)
    return values[keep], vectors[:, keep]


def residuals(values, vectors, op) -> np.ndarray:
    """Residual norm |A v - lambda M v| of each pair (values[j], vectors[:, j])."""
    R = csr(op) @ vectors - (op.M[:, None] * vectors) * values[None, :]
    return np.linalg.norm(R, axis=0)


def standard_form(op) -> np.ndarray:
    """Dense S = M^{-1/2} A M^{-1/2}, entry (A_ij m_i) m_j with
    m = M^{-1/2}: the matrix whose values the package solves for, bit for
    bit."""
    ms = 1.0 / np.sqrt(op.M)
    return csr(op).toarray() * ms[:, None] * ms[None, :]


def path_tridiagonal(m: int, first: int, last: int, w: float = 0.75):
    """(diag, off) of the standard form M^{-1/2} A M^{-1/2} of the pencil of
    a run of m vertices of a path of edge weight w, whose first (last)
    vertex is a free end of the path when ``first`` (``last``) is 1: A is 2w
    on the diagonal, w at a free end and -w off it, and M is the diagonal
    of A, the weighted degree."""
    i = np.arange(m)
    a = np.where((i == 0) & (first == 1) | (i == m - 1) & (last == 1), w, w + w)
    ms = 1.0 / np.sqrt(a)
    return (a * ms) * ms, (np.full(m - 1, -w) * ms[1:]) * ms[:-1]
