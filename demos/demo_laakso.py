"""Walk through a Laakso-space spectrum: build, solve, compare, nest.

Builds the depth-2 space with binary fibers (j = (2, 2)), solves the
finite-difference pencil at a fine pitch, and checks the numeric spectrum
against the closed-form eigenvalue families.  Run:

    python3 demos/demo_laakso.py
"""

import math

from fractal_spectra.eigensolve import FDModel, compare_spectra, verify_nesting
from fractal_spectra.laakso import (
    LaaksoSpec,
    build_laakso,
    laakso_analytic_spectrum,
    laakso_numeric_spectra,
    wormhole_table,
)

spec = LaaksoSpec(j=[2, 2], refine=32)
print(f"Laakso space with fiber sequence j = {spec.j}, pitch = {spec.pitch}")

for i, g in enumerate(build_laakso(spec)):
    print(f"  level {i}: {g.n_vertices} vertices, {len(g.ends)} edges, "
          f"measure {g.total_measure():.6f}")

print("wormhole positions by level:")
for level, points in wormhole_table(spec).items():
    print(f"  level {level}: {[str(p) for p in points]}")

lam_max = 200.0
analytic = laakso_analytic_spectrum(spec, lam_max)
_, lower, numeric = laakso_numeric_spectra(spec, lam_max)
print(f"\nanalytic entries <= {lam_max:g} (units of pi^2):")
for e in analytic.entries:
    print(f"  {e.value / math.pi**2:8.3f}  x{e.multiplicity}  [{e.tag}]")

report = compare_spectra(numeric, analytic, FDModel(pitch=spec.pitch),
                         coverage_max=0.75 * lam_max)
print(f"\nnumeric vs analytic: {len(report.matched)} matched, "
      f"max relative deviation {report.max_rel_deviation:.2e}, "
      f"pass = {report.ok}")

nest = verify_nesting(lower, numeric)
print(f"level-1 spectrum nested in level-2: pass = {nest.ok}, "
      f"max deviation {nest.max_deviation:.2e}")
