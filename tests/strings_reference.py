"""The rational version of ``string_analytic_spectrum``, kept as an
independent reference for the integer-keyed merge in
``fractal_spectra.strings``: it merges on the exact ``Fraction``
k^2 / l_i^2 and converts with ``float(Fraction)``, so the package's values,
multiplicities and tags must match it exactly (``tests/test_properties.py``,
``tests/test_strings.py``).  The closed-form limit of the string's spectral
zeta function and the integral bounds on the tail of a partial sum check
``zeta_partial``."""

from __future__ import annotations

import math
from fractions import Fraction

import scipy.special

from fractal_spectra.eigensolve import SpectrumEntry, SpectrumList
from fractal_spectra.strings import StringSpec


def string_analytic_spectrum(spec: StringSpec, lam_max: float) -> SpectrumList:
    """Dirichlet spectrum pi^2 k^2 / l_i^2 with multiplicity m_i, merged
    exactly on the rational coefficient k^2 / l_i^2."""
    pi2 = math.pi**2
    coeff_max = lam_max / pi2
    merged: dict[Fraction, list] = {}
    for i, (l, m) in enumerate(zip(spec.lengths, spec.mults), start=1):
        k = 1
        while True:
            c = Fraction(k * k, 1) / (l * l)
            if float(c) > coeff_max:
                break
            merged.setdefault(c, []).append((i, k, m))
            k += 1
    entries = []
    for c in sorted(merged):
        sources = merged[c]
        mult = sum(m for (_, _, m) in sources)
        tag = ";".join(f"i={i},k={k},m={m}" for (i, k, m) in sources)
        entries.append(SpectrumEntry(float(c) * pi2, mult, tag))
    return SpectrumList(entries=entries, origin="analytic(string)", truncation=lam_max)


def zeta_limit(spec: StringSpec, s_val: float) -> float:
    """pi^{-2s} zeta(2s) sum_i m_i l_i^{2s} for s > 1/2: the string's
    geometric zeta function times Riemann's, the limit of the partial sums
    of its spectral zeta function."""
    geometric = sum(m * float(l) ** (2 * s_val) for l, m in zip(spec.lengths, spec.mults))
    return math.pi ** (-2 * s_val) * float(scipy.special.zeta(2 * s_val)) * geometric


def zeta_tail_bounds(spec: StringSpec, s_val: float, terms: list[int]) -> tuple[float, float]:
    """Bounds on the tail sum_i m_i sum_{k > K_i} (pi k / l_i)^{-2s} left
    out of a partial sum over the first K_i = terms[i] values of each
    string, for s > 1/2: the integrals of x^{-2s} from K_i + 1 and from K_i
    to infinity (the upper bound is infinite for a string with no term)."""
    lower = upper = 0.0
    for l, m, K in zip(spec.lengths, spec.mults, terms):
        scale = m * (float(l) / math.pi) ** (2 * s_val) / (2 * s_val - 1)
        lower += scale * (K + 1) ** (1 - 2 * s_val)
        upper += scale * K ** (1 - 2 * s_val) if K else math.inf
    return lower, upper
