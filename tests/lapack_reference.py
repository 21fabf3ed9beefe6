"""Reference eigenpairs for the tests, independent of the package's solver."""

import numpy as np
import scipy.linalg


def generalized_eigh(op):
    """All eigenpairs of the pencil A v = lambda M v from LAPACK's generalized
    driver, without the standard form M^{-1/2} A M^{-1/2}; the vectors come
    back M-orthonormal and the values ascending."""
    return scipy.linalg.eigh(op.A.toarray(), np.diag(op.M))


def residuals(pairs, op) -> np.ndarray:
    """Residual norm |A v - lambda M v| of each eigenpair of ``pairs``."""
    R = op.A @ pairs.vectors - (op.M[:, None] * pairs.vectors) * pairs.values[None, :]
    return np.linalg.norm(R, axis=0)
