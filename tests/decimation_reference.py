"""The loop versions of ``gasket.decimation_check``,
``gasket._piece_spectrum`` and ``gasket.decimation_chain``, kept as the
references that the sorted-search check and the one-pass decimation
iterates must reproduce report for report and bit for bit.  They share
only the single step ``gasket._decimate`` with the package."""

import numpy as np

from fractal_spectra.gasket import DECIMATION_SCALE, EXCEPTIONAL, _decimate
from level_reference import cluster


def decimation_check(spec_m, spec_m1, tol: float = 1e-8) -> dict:
    """Match the image lambda'(5 - lambda') of each level-(m+1) value to the
    nearest level-m value by comparing it with every one; a value whose
    image is off by more than ``tol`` (relative, floored at 1) is
    exceptional when it lies within ``tol`` of 2, 5 or 6, and unexplained
    otherwise."""
    lam_m = DECIMATION_SCALE * np.asarray(spec_m.values())
    matched, exceptional, unexplained, max_dev = 0, 0, [], 0.0
    for e in spec_m1.entries:
        lp = DECIMATION_SCALE * e.value
        image = lp * (5.0 - lp)
        dev = float(np.min(np.abs(lam_m - image))) if len(lam_m) else np.inf
        if dev <= tol * max(1.0, abs(image)):
            matched += 1
            max_dev = max(max_dev, dev / max(1.0, abs(image)))
        elif min(abs(lp - x) for x in EXCEPTIONAL) <= tol * max(1.0, lp):
            exceptional += 1
        else:
            unexplained.append(lp)
    total = len(spec_m1.entries)
    return {
        "matched": matched,
        "exceptional": exceptional,
        "unexplained": unexplained,
        "max_deviation": max_dev,
        "fraction_explained": (total - len(unexplained)) / total if total else 1.0,
        "pass": not unexplained,
    }


def piece_spectrum(m: int, level: int, key: int):
    """``gasket._piece_spectrum`` as an explicit loop of ``_decimate`` steps
    from the level-``level`` gasket up to level m, run afresh for each
    call: the values mu and their multiplicities."""
    if level:
        x, c = np.array([4.0]), np.array([key])
    elif key:
        x, c = np.array([0.0, 6.0]), np.array([1, 2])
    else:
        x, c = np.zeros(0), np.zeros(0, dtype=np.int64)
    kept, new2 = key, 3 ** level - key if level else int(key == 0)
    for j in range(level, m):
        x, c = _decimate(x, c, kept, 3 ** (j + 1), new2)
        kept, new2 = kept + 3 ** (j + 1), 0
    return np.asarray(x) / DECIMATION_SCALE, np.asarray(c)


def decimation_chain(m: int) -> list:
    """The Dirichlet gaskets of levels 1..m, each decimated afresh from
    level 0 (``piece_spectrum(l, 0, 0)``)."""
    out = []
    for level in range(1, m + 1):
        values, counts = piece_spectrum(level, 0, 0)
        order = np.argsort(values)
        out.append(cluster(values[order], counts=counts[order]))
    return out
