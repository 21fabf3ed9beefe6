"""Reference eigenpairs for the tests, independent of the package's solver."""

import numpy as np
import scipy.linalg


def generalized_eigh(op):
    """All eigenpairs of the pencil A v = lambda M v from LAPACK's generalized
    driver, without the standard form M^{-1/2} A M^{-1/2}; the vectors come
    back M-orthonormal and the values ascending."""
    return scipy.linalg.eigh(op.A.toarray(), np.diag(op.M))


def eigenpairs_below(op, lam_max):
    """The eigenpairs of ``generalized_eigh`` with values <= lam_max, at the
    package's cut lam_max * (1 + 1e-12); their number is a count of the
    pencil's eigenvalues that does not come from the package."""
    values, vectors = generalized_eigh(op) if op.n else (np.zeros(0), np.zeros((0, 0)))
    keep = values <= lam_max * (1 + 1e-12)
    return values[keep], vectors[:, keep]


def residuals(values, vectors, op) -> np.ndarray:
    """Residual norm |A v - lambda M v| of each pair (values[j], vectors[:, j])."""
    R = op.A @ vectors - (op.M[:, None] * vectors) * values[None, :]
    return np.linalg.norm(R, axis=0)


def standard_form(op) -> np.ndarray:
    """Dense S = M^{-1/2} A M^{-1/2}, entry (A_ij m_i) m_j with
    m = M^{-1/2}: the matrix whose reduction the package solves, bit for
    bit."""
    ms = 1.0 / np.sqrt(op.M)
    return op.A.toarray() * ms[:, None] * ms[None, :]
