"""Stitched fractal strings: isospectrality, multiplicities, partial zeta.

Two different length data can share one spectrum: lengths (1/2, 1/4) with
single copies merge eigenvalue branches at 16 pi^2 and 64 pi^2, while the
theta graph (three copies of one segment) carries every eigenvalue with
multiplicity three.  Run:

    python3 demos/demo_strings_zeta.py
"""

import math
from fractions import Fraction

from fractal_spectra.eigensolve import compare_spectra
from fractal_spectra.strings import (
    StringSpec,
    stitched_numeric_spectra,
    string_analytic_spectrum,
    zeta_partial,
)

pi2 = math.pi**2
lam_max = 700.0

spec = StringSpec([Fraction(1, 2), Fraction(1, 4)], [1, 1], refine=16)
analytic = string_analytic_spectrum(spec, lam_max)
numeric = stitched_numeric_spectra(spec, lam_max)[-1]
print(f"lengths (1/2, 1/4), analytic spectrum <= {lam_max:g} (units of pi^2):")
for e in analytic.entries:
    merged = "  <-- merged branches" if e.multiplicity > 1 else ""
    print(f"  {e.value / pi2:8.3f}  x{e.multiplicity}{merged}")

iso = compare_spectra(numeric, analytic, spec.pitch, lam_max)
print(f"numeric matches with exact multiplicities: pass = {iso['pass']} "
      f"({len(iso['matched'])} entries)")

theta = StringSpec([Fraction(1, 2)], [3], refine=16)
t_numeric = stitched_numeric_spectra(theta, lam_max)[-1]
print("\ntheta graph (three copies of length 1/2), numeric spectrum:")
for e in t_numeric.entries:
    if e.value > 1e-12:
        print(f"  {e.value / pi2:8.3f}  x{e.multiplicity}  [{e.tag}]")

unit = StringSpec([Fraction(1, 1)], [1])
for terms in (10, 100, 10_000):
    z = zeta_partial(unit, 1.0, (math.pi * terms) ** 2)
    print(f"\nzeta partial sum at s=1 over {terms} terms: {z:.8f}"
          f"  (limit 1/6 = {1 / 6:.8f})" if terms == 10_000 else
          f"zeta partial sum at s=1 over {terms} terms: {z:.8f}")
