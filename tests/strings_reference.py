"""The rational version of ``string_analytic_spectrum``, kept as an
independent reference for the integer-keyed merge in
``fractal_spectra.strings``: it merges on the exact ``Fraction``
k^2 / l_i^2 and converts with ``float(Fraction)``, so the package's values,
multiplicities and tags must match it exactly (``tests/test_properties.py``,
``tests/test_strings.py``)."""

from __future__ import annotations

import math
from fractions import Fraction

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
    return SpectrumList(
        entries=entries,
        origin="analytic(string)",
        truncation=lam_max,
        meta={"lengths": [str(l) for l in spec.lengths], "mults": spec.mults},
    )
