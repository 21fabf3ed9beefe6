"""The three hand-fit eigenvalue families that stood for the Laakso
spectrum before it was taken from the run table
(``fiber.continuum_spectra``): integer multiples of pi^2 fitted to
j_i = 2, with no multiplicities and no regard for the boundary.  They are
the reference for the value set of the closed form on the specs where the
two agree (``tests/test_laakso.py``); on others, such as Neumann j = [3],
they miss values.
"""

from __future__ import annotations

import math

from fractal_spectra.eigensolve import SpectrumEntry, SpectrumList
from fractal_spectra.laakso import LaaksoSpec
from fractal_spectra.metric_graph import NEUMANN


def handfit_laakso_spectrum(spec: LaaksoSpec, lam_max: float) -> SpectrumList:
    """Eigenvalue set truncated at lam_max from three generating families,
    each contributing integer multiples of pi^2: k^2 d_n^2 (n >= 0),
    4 k^2 d_n^2 (n >= 2) and 4 (2k+1)^2 d_n^2 (n >= 1), for the levels n up
    to the spec's depth.  Entries are de-duplicated exactly on the integer
    coefficient; the tag lists every (family, n, k) source.  Each entry
    has multiplicity 1; under Neumann the constant mode 0 is added."""
    d = spec.d
    pi2 = math.pi**2
    cmax = lam_max / pi2
    sources: dict[int, list[str]] = {}

    def add(c: int, tag: str):
        sources.setdefault(c, []).append(tag)

    for nn in range(spec.depth + 1):
        dn2 = d[nn] ** 2
        k = 1
        while k * k * dn2 <= cmax:
            add(k * k * dn2, f"f1(n={nn},k={k})")
            k += 1
        if nn >= 2:
            k = 1
            while 4 * k * k * dn2 <= cmax:
                add(4 * k * k * dn2, f"f2(n={nn},k={k})")
                k += 1
        if nn >= 1:
            k = 0
            while 4 * (2 * k + 1) ** 2 * dn2 <= cmax:
                add(4 * (2 * k + 1) ** 2 * dn2, f"f3(n={nn},k={k})")
                k += 1

    entries = []
    if spec.boundary == NEUMANN:
        entries.append(SpectrumEntry(0.0, 1, "constant(outside-family-listing)"))
    for c in sorted(sources):
        entries.append(SpectrumEntry(c * pi2, 1, ";".join(sources[c])))
    return SpectrumList(entries=entries, origin="analytic(laakso,hand-fit)", truncation=lam_max)
