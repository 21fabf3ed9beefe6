"""Spectral decimation on the Sierpinski gasket, and the Pate a Choux tower.

Every Dirichlet eigenvalue of the level-(m+1) gasket graph maps onto a
level-m eigenvalue through lambda' (5 - lambda'), apart from a small
exceptional set; rescaling the ground branch by 5^m converges.  The
spectra and sizes are the closed forms the package runs on.  Run:

    python3 demos/demo_gasket_decimation.py
"""

import math

from fractal_spectra.eigensolve import verify_nesting
from fractal_spectra.gasket import (
    ChouxSpec,
    choux_numeric_spectra,
    decimation_branch,
    decimation_chain,
    decimation_check,
    hausdorff_dimension,
    n_points,
)

print("gasket graph sizes (closed forms (3^(m+1)+3)/2 vertices, 3^(m+1) edges):")
for m in range(5):
    print(f"  m={m}: {n_points(m)} vertices, {3 ** (m + 1)} edges")

spectra = decimation_chain(4)
print("\ndecimation lambda' (5 - lambda') between consecutive levels:")
for m, (lo, hi) in enumerate(zip(spectra, spectra[1:]), start=1):
    rep = decimation_check(lo, hi)
    print(f"  m={m} -> m={m + 1}: {100 * rep['fraction_explained']:.0f}% explained "
          f"({rep['matched']} matched, {rep['exceptional']} exceptional)")

branch = decimation_branch(spectra, [1, 2, 3, 4])
print(f"\nground branch 5^m * lambda_min: {[f'{b:.4f}' for b in branch]}")
print(f"hausdorff dimension of the tower: {hausdorff_dimension():.12f} "
      f"(log 6 / log 2 = {math.log(6) / math.log(2):.12f})")

spec = ChouxSpec(fiber_depth=2, gasket_level=2)
levels = choux_numeric_spectra(spec)
print("\nPate a Choux fiber tower over the gasket, spectra nest exactly:")
for i, (lo, hi) in enumerate(zip(levels, levels[1:])):
    rep = verify_nesting(lo, hi)
    print(f"  level {i} in level {i + 1}: pass = {rep['pass']}, "
          f"{len(hi.entries) - len(lo.entries)} new clusters")
