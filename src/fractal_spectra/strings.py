"""Fractal strings and the connected ("stitched") spaces isospectral to them.

A string is a list of interval lengths l_i with multiplicities m_i; its
Dirichlet spectrum is pi^2 k^2 / l_i^2 with multiplicity m_i.  The stitched
space starts from [0, l_1], first turns it into m_1 parallel strands glued at
both ends, then at each level i >= 2 duplicates the open segment of length
l_i at the right end of the all-ones sheet into m_i + 1 copies.  Lengths are
kept as exact rationals so a common mesh pitch exists.  The values new at a
level are those of Dirichlet pieces of the level-0 path, one run of it
per level (``stitched_family``), so no level above 0 is built.  The
analytic spectrum is merged on integers: every length is a whole number of
grid units, so every k^2 / l_i^2 is an integer square over one common
denominator, and one correctly rounded int/int division gives the float of
each value; the numeric spectrum pairs with it by rank
(``eigensolve.compare_spectra``).
The partial sums of the spectral zeta function need no merge: they are
summed string by string, m_i sum_k (pi k / l_i)^{-2s}, whose limit is the
geometric zeta function sum_i m_i l_i^{2s} times pi^{-2s} zeta(2s).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InfeasibleNesting, NoCommonPitch
from .eigensolve import SpectrumEntry, SpectrumList
from .fiber import LevelFamily, PathBase, equilateral_spectra, path_family


def rationalize(lengths, denominator_bound: int = 10**6):
    """Rational approximations of the lengths plus the worst relative
    perturbation (first-order eigenvalue sensitivity is 2x this)."""
    fracs, worst = [], 0.0
    for l in lengths:
        f = Fraction(l).limit_denominator(denominator_bound)
        if f <= 0:
            raise NoCommonPitch(f"length {l} not representable at bound {denominator_bound}")
        if float(l) != 0:
            worst = max(worst, abs(float(f) - float(l)) / float(l))
        fracs.append(f)
    return fracs, worst


class StringSpec:
    """Strictly decreasing lengths with multiplicities, truncated at depth N;
    ``grid_unit`` is the largest rational dividing every length."""

    def __init__(self, lengths: list[Fraction], mults: list[int], refine: int = 8):
        self.lengths = [Fraction(l) for l in lengths]
        self.mults = [int(m) for m in mults]
        self.refine = refine
        if len(self.lengths) != len(self.mults) or not self.lengths:
            raise InfeasibleNesting("lengths and multiplicities must be nonempty and aligned")
        if any(l <= 0 for l in self.lengths) or any(m < 1 for m in self.mults):
            raise InfeasibleNesting("lengths must be positive and multiplicities >= 1")
        if any(b >= a for a, b in zip(self.lengths, self.lengths[1:])):
            raise InfeasibleNesting("lengths must be strictly decreasing")
        if self.refine < 2:
            raise InfeasibleNesting("refinement must be >= 2")
        den = math.lcm(*(l.denominator for l in self.lengths))
        self.grid_unit = Fraction(math.gcd(*(l.numerator * (den // l.denominator)
                                             for l in self.lengths)), den)

    @property
    def depth(self) -> int:
        return len(self.lengths)

    @property
    def pitch(self) -> float:
        return float(self.grid_unit) / self.refine

    def truncate(self, n: int) -> "StringSpec":
        return StringSpec(self.lengths[:n], self.mults[:n], self.refine)


def string_analytic_spectrum(spec: StringSpec, lam_max: float) -> SpectrumList:
    """Dirichlet spectrum pi^2 k^2 / l_i^2 with multiplicity m_i, merged
    exactly on integer keys.

    With g the grid unit, each length is l_i = n_i g for an integer n_i, and
    with L = lcm(n_i) the coefficient is k^2 / l_i^2 = q^2 / (L^2 g^2) for the
    integer q = k L / n_i.  Equal coefficients are equal q, and integer order
    is value order, so the merge and its source order are those of the exact
    rationals.  Each coefficient is converted by one int/int true division,
    which CPython rounds correctly, as ``float(Fraction)`` does; so every
    value and every stop at ``lam_max`` is bit-identical to the rational
    computation.
    """
    pi2 = math.pi**2
    coeff_max = lam_max / pi2
    g = spec.grid_unit
    n = [int(l / g) for l in spec.lengths]
    L = math.lcm(*n)
    num, den = g.denominator**2, L * L * g.numerator**2
    merged: dict[int, list] = {}
    for i, (n_i, m) in enumerate(zip(n, spec.mults), start=1):
        step = L // n_i
        k = 1
        while (k * step) ** 2 * num / den <= coeff_max:
            merged.setdefault(k * step, []).append((i, k, m))
            k += 1
    entries = []
    for q in sorted(merged):
        sources = merged[q]
        mult = sum(m for (_, _, m) in sources)
        tag = ";".join(f"i={i},k={k},m={m}" for (i, k, m) in sources)
        entries.append(SpectrumEntry(q * q * num / den * pi2, mult, tag))
    return SpectrumList(entries=entries, origin="analytic(string)", truncation=lam_max)


def _path(spec: StringSpec):
    """With g the grid unit: K = l_1 / g, the grid point
    a_k = (l_1 - l_k) / g where the right-end segment of length l_k starts,
    and level 0: the path of the points p = 0..K, cell c joining p = c and
    c + 1, with Dirichlet conditions at p = 0 and p = K."""
    g = spec.grid_unit
    l1 = spec.lengths[0]
    K = int(l1 / g)
    starts = [int((l1 - l) / g) for l in spec.lengths]
    return K, starts, PathBase(K + 1, float(g))


def stitched_family(spec: StringSpec) -> LevelFamily:
    """Levels 0..N as the base path of ``_path`` and one run of it per
    level (``fiber.path_family``).

    Level 0 is the base path, its points 1..K-1 kept; the new values of
    level 1 are those of m_1 - 1 copies of it, and those of level k >= 2
    are those of m_k copies of its right-end segment, the l_k / g cells
    from a_k to K with Dirichlet ends, its points a_k + 1..K-1 kept (none
    when l_k is one grid unit: the run is one cell, which has mesh
    nodes)."""
    K, starts, base = _path(spec)
    spans = [[(1, K, 1)], [(1, K, spec.mults[0] - 1)],
             *([(a + 1, K, m)] for a, m in zip(starts[1:], spec.mults[1:]))]
    return path_family(base, spans)


def stitched_numeric_spectra(spec: StringSpec, lam_max: float) -> list[SpectrumList]:
    """Numeric spectra of the stitched levels 0..N at the spec's pitch, each
    value tagged with the level it is new at (see
    ``fiber.equilateral_spectra``: every edge is one grid unit long)."""
    return equilateral_spectra(stitched_family(spec), [spec.refine], lam_max,
                               "numeric(string,level={})")[0]


#: below this many terms a string's zeta sum is summed term by term
ZETA_DIRECT_TERMS = 50


def _power_sum(a: float, n: int, direct: list[float]) -> float:
    """sum_{k=1}^n k^{-a} for a > 0, given ``direct``, the terms k^{-a} below
    ``ZETA_DIRECT_TERMS`` = N: those summed exactly rounded, and the rest by
    Euler-Maclaurin,
    sum_{k=N}^n f(k) = int_N^n f + (f(N) + f(n)) / 2
    + sum_j B_2j / (2j)! (f^(2j-1)(n) - f^(2j-1)(N)) with f(x) = x^{-a},
    to B_6: the next term is below 1e-16 of the sum.  The integral
    (N^{1-a} - n^{1-a}) / (a - 1) is taken as N^{1-a} L expm1(t) / t with
    L = log(n / N) and t = (1 - a) L, which is N^{1-a} L, a log, at a = 1
    and loses no digits near it."""
    big = ZETA_DIRECT_TERMS
    if n < big:
        return math.fsum(direct[:n])
    log_ratio = math.log1p((n - big) / big)
    t = (1 - a) * log_ratio
    terms = direct + [big ** (1 - a) * log_ratio * (math.expm1(t) / t if t else 1.0),
                      (big ** -a + n ** -a) / 2]
    rising = a  # a (a + 1) ... (a + 2j - 2), so that f^(2j-1)(x) = -rising x^(-a-2j+1)
    for j, bernoulli in enumerate((1 / 12, -1 / 720, 1 / 30240), start=1):
        terms.append(bernoulli * rising * (big ** (1 - a - 2 * j) - n ** (1 - a - 2 * j)))
        rising *= (a + 2 * j - 1) * (a + 2 * j)
    return math.fsum(terms)


def zeta_partial(spec: StringSpec, s_val: float, lam_max: float) -> float:
    """Partial sum of lambda^{-s} over the Dirichlet spectrum up to lam_max,
    with multiplicity, summed string by string: m_i sum_k (pi k / l_i)^{-2s}
    over the k with (pi k / l_i)^2 <= lam_max (1 + 1e-12), so that rounding
    drops no value that lies on the cut.  Those k are 1..n_i, n_i at most
    l_i sqrt(lam_max) / pi + 1, and each string's sum is
    m_i (l_i / pi)^{2s} sum_{k <= n_i} k^{-2s} (``_power_sum``), whose
    direct terms are taken once for all strings."""
    if s_val <= 0:
        raise ValueError("exponent must be positive")
    cut = lam_max * (1 + 1e-12)
    direct = [k ** -(2 * s_val) for k in range(1, ZETA_DIRECT_TERMS)]
    total = 0.0
    for l, m in zip(spec.lengths, spec.mults):
        length = float(l)
        n = int(length * math.sqrt(cut) / math.pi) + 1
        while n and (math.pi * n / length) * (math.pi * n / length) > cut:
            n -= 1
        total += m * (length / math.pi) ** (2 * s_val) * _power_sum(2 * s_val, n, direct)
    return total
