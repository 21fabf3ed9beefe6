"""Spectral decimation on the Sierpinski gasket and the gasket-with-fibers
("pate a choux") family.

The gasket Laplacian here is the probabilistic graph Laplacian, realized as
the pencil (D - W, D); its continuum counterpart is defined by decimation
limits, not by edge-wise finite differences, so no metric mesh is involved.
One fiber level k glues the k-th binary coordinate over the new vertices
V_k \\ V_{k-1}.

Every pâte à choux piece has its spectrum in closed form by spectral
decimation (Fukushima & Shima, Potential Anal., 1992; Strichartz,
*Differential Equations on Fractals*, 2006, ch. 3), with exact
multiplicities and no solve (``choux_family``, ``_piece_spectrum``), and
each fiber level is the level below with its new values merged in
(``fiber.level_spectra``); so has the whole Dirichlet gasket of each
level, level 0 of the pâte à choux with its corners eliminated, which
makes up the decimation chain (``decimation_chain``: m decimation steps in
one pass for levels 1..m, whose distinct values need no merge) that
``decimation_check`` and ``decimation_branch`` read.  The check
matches each image lambda (5 - lambda) to its nearest lower value by
binary search (``eigensolve._nearest``) and reports counts, not a record
per value.  No gasket graph is built: a piece's spectrum needs only its
number of kept vertices of each V_j, |V_j| = (3^(j+1) + 3) / 2 less the
eliminated ones.  The gasket graphs, their six symmetries and the dense
solve of the whole gaskets are the tests' reference
(``tests/dense_reference.py``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

from .errors import InvalidSpaceSpec, NoConvergence, ResolutionTooCoarse
from .eigensolve import SpectrumEntry, SpectrumList, _nearest
from .fiber import LevelFamily, level_spectra
from .metric_graph import DIRICHLET, NEUMANN, SPECTRAL_BOUND


def n_points(m: int) -> int:
    """|V_m| = (3^(m+1) + 3) / 2: the vertices of the level-m gasket, which
    are the first |V_m| vertices of every finer level."""
    return (3 ** (m + 1) + 3) // 2


#: eigenvalues of the degree-normalized-times-4 Laplacian that have no
#: decimation preimage (the classical forbidden values)
EXCEPTIONAL = (2.0, 5.0, 6.0)

#: Dirichlet interior vertices of the gasket are 4-regular, so the pencil
#: eigenvalue mu relates to the decimation variable by lambda = 4 mu
DECIMATION_SCALE = 4.0


def decimation_check(spec_m: SpectrumList, spec_m1: SpectrumList, tol: float = 1e-8) -> dict:
    """Verify the decimation relation between consecutive Dirichlet spectra.

    Every level-(m+1) eigenvalue lambda' must either satisfy
    lambda'(5 - lambda') = lambda for some level-m eigenvalue, within ``tol``
    relative to max(1, |lambda'(5 - lambda')|), or belong to the exceptional
    set {2, 5, 6}.  Inputs are probabilistic spectra; the check runs in the
    lambda = 4 mu variable.  The report counts the matched and the
    exceptional values, lists the unexplained ones, and gives the largest
    relative deviation of a match.
    """
    lam_m = [DECIMATION_SCALE * v for v in spec_m.values()]
    matched = exceptional = 0
    unexplained, worst = [], 0.0
    for v in spec_m1.values():
        lp = DECIMATION_SCALE * v
        image = lp * (5.0 - lp)
        scale = max(1.0, abs(image))
        dev = abs(lam_m[_nearest(lam_m, image)] - image) if lam_m else math.inf
        if dev <= tol * scale:
            matched += 1
            worst = max(worst, dev / scale)
        elif min(abs(lp - e) for e in EXCEPTIONAL) <= tol * max(1.0, lp):
            exceptional += 1
        else:
            unexplained.append(lp)
    total = matched + exceptional + len(unexplained)
    return {
        "matched": matched,
        "exceptional": exceptional,
        "unexplained": unexplained,
        "max_deviation": worst,
        "fraction_explained": (total - len(unexplained)) / total if total else 1.0,
        "pass": not unexplained,
    }


def decimation_branch(spectra: list[SpectrumList], levels: list[int]) -> list[float]:
    """Renormalized ground-branch values 5^m * lambda_min per level."""
    out = []
    for s, m in zip(spectra, levels):
        lam = [DECIMATION_SCALE * v for v in s.values()]
        out.append(5.0**m * min(x for x in lam if x > 1e-12))
    return out


@dataclass
class ChouxSpec:
    """Fiber depth i over a level-m gasket; needs m >= i so every gluing set
    V_k \\ V_{k-1}, k <= i, is resolved."""

    fiber_depth: int
    gasket_level: int
    boundary: str | None = None

    def __post_init__(self):
        if self.fiber_depth < 0 or self.gasket_level < 0:
            raise ResolutionTooCoarse("depths must be nonnegative")
        if self.gasket_level < self.fiber_depth:
            raise ResolutionTooCoarse(
                f"gasket level {self.gasket_level} < fiber depth {self.fiber_depth}"
            )
        if self.boundary not in (None, NEUMANN, DIRICHLET):
            raise InvalidSpaceSpec(f"unknown boundary mode {self.boundary!r}")


def _decimate(x: list[float], c: list[int], kept: int, born: int, new2: int):
    """One step j -> j + 1 of spectral decimation: the spectrum (values x,
    counts c) of a gasket piece on the level-j gasket, on which it keeps
    ``kept`` vertices, to its spectrum on the level-(j + 1) gasket, which
    adds ``born`` kept vertices; the values are in the variable
    lambda = 4 mu.

    Each value continues to both preimages psi_+(x) = (5 + sqrt(25 - 4x)) / 2
    and psi_-(x) = 2x / (5 + sqrt(25 - 4x)) of phi(y) = y (5 - y) with its
    count, but for the forbidden psi_+(0) = 5 and psi_-(6) = 2; 6 is new
    ``kept`` times, 2 ``new2`` times, and 5 takes the rest of the
    ``kept + born`` values.  A negative count for 5 or 2 raises
    ``NoConvergence``.  0 and 6 are tested with ==: 6 is never a preimage,
    and psi_-(0) = 0 exactly, whereas a tolerance would take the psi_-
    chains of 4, a fifth smaller at each step, for 0."""
    twice = [5.0 + math.sqrt(25.0 - 4.0 * v) for v in x]  # 2 psi_+(x)
    plus = [(t / 2, n) for v, t, n in zip(x, twice, c) if v != 0.0]
    minus = [(2.0 * v / t, n) for v, t, n in zip(x, twice, c) if v != 6.0]
    new5 = born - sum(n for _, n in plus) - sum(n for _, n in minus) - new2
    if min(new5, new2) < 0:
        raise NoConvergence(f"decimation counts {new5} for 5 and {new2} for 2 "
                            f"of {kept + born} values")
    out = [(v, n) for v, n in (*plus, *minus, (6.0, kept), (2.0, new2), (5.0, new5)) if n > 0]
    return [v for v, _ in out], [n for _, n in out]


def _decimations(level: int, key: int):
    """The spectra of the piece ``key`` of level ``level`` of
    ``choux_family`` on the gaskets of levels ``level``, ``level`` + 1, ...:
    its values in the variable lambda = 4 mu and their multiplicities, each
    one ``_decimate`` step from the one before.

    K_j, the number of kept vertices of V_j, is ``key`` at j = level - 1
    (at j = 0 on level 0), and K_(j+1) = K_j + 3^(j+1) at j >= level, as
    every vertex born above ``level`` is kept.  On the level-``level``
    gasket, level >= 1, every kept vertex lies in V_(level-1), all its
    neighbours are born at ``level`` and so eliminated: the pencil is
    diagonal, lambda = 4 K_(level-1) times.  Level 0 is the triangle:
    0 once and 6 twice, nothing with its corners eliminated.  2 is new
    3^level - K_(level-1) times at the first step of a piece, or once at
    the first of the whole gasket with eliminated corners, and never later.
    """
    if level:
        x, c = [4.0], [key]
    elif key:
        x, c = [0.0, 6.0], [1, 2]
    else:
        x, c = [], []
    kept, new2 = key, 3 ** level - key if level else int(key == 0)
    for j in itertools.count(level):
        yield x, c
        x, c = _decimate(x, c, kept, 3 ** (j + 1), new2)
        kept, new2 = kept + 3 ** (j + 1), 0


def _piece_spectrum(m: int, level: int, key: int,
                    cut: float) -> tuple[list[float], list[int]]:
    """The spectrum <= cut (1 + 1e-12) of the piece ``key`` of level
    ``level`` of ``choux_family`` over the level-m gasket
    (``fiber.LevelFamily``): its walk-Laplacian values mu and their
    multiplicities, by spectral decimation from the level-``level`` gasket
    (``_decimations``), which takes the whole spectrum."""
    x, c = next(itertools.islice(_decimations(level, key), m - level, None))
    values = [v / DECIMATION_SCALE for v in x]
    keep = [v <= cut * (1 + 1e-12) for v in values]
    return list(itertools.compress(values, keep)), list(itertools.compress(c, keep))


def choux_family(spec: ChouxSpec) -> LevelFamily:
    """Fiber levels 0..i over the level-m gasket: 2^i binary fiber copies
    glued at V_k \\ V_{k-1} in coordinate k.  The family has no base graph:
    no piece needs one, and its levels take no mesh.

    Level l >= 1 gains the spectrum of the gasket with Dirichlet marks at
    the vertices born at a level in S, for each S in {1..l} with max S = l,
    once.  Its spectrum depends only on K_(l-1), its number of kept
    vertices of V_(l-1), which is |V_(l-1)| less the eliminated corners and
    3^b for each b in S below l (``_piece_spectrum``); so each piece is
    keyed on it, and no two pieces of a level share a key.  Level 0, the
    gasket, is keyed on its kept corners, 3 or 0."""
    corners = 3 * (spec.boundary != DIRICHLET)
    runs = [([corners], [1])]
    marked = [0]  # sum of 3^b over b in S below l, for every S
    for level in range(1, spec.fiber_depth + 1):
        runs.append(([n_points(level - 1) - 3 + corners - k for k in marked], [1] * len(marked)))
        marked += [k + 3 ** level for k in marked]
    return LevelFamily(None, runs, spectrum=partial(_piece_spectrum, spec.gasket_level))


def decimation_chain(m: int) -> list[SpectrumList]:
    """The spectra of the Dirichlet gaskets of levels 1..m: level 0 of the
    pâte à choux with its corners eliminated, in closed form, with its
    multiplicities.  One pass of decimation steps gives every level
    (``_decimations(0, 0)``), the iterates that
    ``_piece_spectrum(l, 0, 0, inf)`` ends on.  A step's values are
    distinct, so each sorted value is one entry with its count, untagged;
    ``SpectrumList`` refuses a value listed twice."""
    out = []
    for x, counts in itertools.islice(_decimations(0, 0), 1, m + 1):
        rows = sorted(zip((v / DECIMATION_SCALE for v in x), counts))
        out.append(SpectrumList([SpectrumEntry(v, n) for v, n in rows], "numeric", math.inf))
    return out


def choux_numeric_spectra(spec: ChouxSpec) -> list[SpectrumList]:
    """Probabilistic Laplacian spectra of the glued space's fiber levels
    0..i with origin tags, from ``choux_family(spec)``."""
    return level_spectra(choux_family(spec), SPECTRAL_BOUND, "numeric(choux,i={})")


def hausdorff_dimension() -> float:
    """Hausdorff dimension of the limit space: 1 + dim(SG) = log(6)/log(2)."""
    return math.log(6.0) / math.log(2.0)
