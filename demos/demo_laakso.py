"""Walk through a Laakso-space spectrum: levels, solve, compare, nest.

Takes the depth-2 space with binary fibers (j = (2, 2)) as its base path
and the Dirichlet pieces of each level, refines their runs of vertices into
runs of mesh nodes for the finite-difference spectrum at a fine pitch, and
checks the numeric spectrum against the closed-form eigenvalue families.  Run:

    python3 demos/demo_laakso.py
"""

import math
from fractions import Fraction

from fractal_spectra.eigensolve import FDModel, compare_spectra, verify_nesting
from fractal_spectra.laakso import (
    LaaksoSpec,
    laakso_analytic_spectrum,
    laakso_family,
    laakso_numeric_spectra,
)

spec = LaaksoSpec(j=[2, 2], refine=32)
print(f"Laakso space with fiber sequence j = {spec.j}, pitch = {spec.pitch}")

family = laakso_family(spec)
kept = edges = 0
for i, (keys, copies) in enumerate(family.runs):
    for key, copy in zip(keys, copies):
        # a run of m vertices with f free ends spans m + 1 - f edges
        m, free = key >> 2, (key >> 1 & 1) + (key & 1)
        kept += copy * m
        edges += copy * (m + 1 - free)
    print(f"  level {i}: {kept} vertices, {edges} edges")

print("wormhole positions by level:")
d = spec.d
for level in range(1, spec.depth + 1):
    # born at level m: the multiples of 1/d_m that are not multiples of 1/d_(m-1)
    born = [Fraction(k, d[level]) for k in range(1, d[level]) if k % spec.j[level - 1]]
    print(f"  level {level}: {[str(x) for x in born]}")

lam_max = 200.0
analytic = laakso_analytic_spectrum(spec, lam_max)
_, lower, numeric = laakso_numeric_spectra(spec, lam_max)
print(f"\nanalytic entries <= {lam_max:g} (units of pi^2):")
for e in analytic.entries:
    print(f"  {e.value / math.pi**2:8.3f}  x{e.multiplicity}  [{e.tag}]")

report = compare_spectra(numeric, analytic, FDModel(pitch=spec.pitch),
                         coverage_max=0.75 * lam_max)
print(f"\nnumeric vs analytic: {len(report['matched'])} matched, "
      f"max relative deviation {report['max_rel_deviation']:.2e}, "
      f"pass = {report['pass']}")

nest = verify_nesting(lower, numeric)
print(f"level-1 spectrum nested in level-2: pass = {nest['pass']}, "
      f"max deviation {nest['max_deviation']:.2e}")
