"""Fractal strings and the connected ("stitched") spaces isospectral to them.

A string is a list of interval lengths l_i with multiplicities m_i; its
Dirichlet spectrum is pi^2 k^2 / l_i^2 with multiplicity m_i.  The stitched
space starts from [0, l_1], first turns it into m_1 parallel strands glued at
both ends, then at each level i >= 2 duplicates the open segment of length
l_i at the right end of the all-ones sheet into m_i + 1 copies.  Lengths are
kept as exact rationals so a common mesh pitch exists.  The analytic
spectrum is merged on integers: every length is a whole number of grid units,
so every k^2 / l_i^2 is an integer square over one common denominator, and
one correctly rounded int/int division gives the float of each value.
The partial sums of the spectral zeta function need no merge: they are
summed string by string, m_i sum_k (pi k / l_i)^{-2s}, whose limit is the
geometric zeta function sum_i m_i l_i^{2s} times pi^{-2s} zeta(2s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import InfeasibleNesting, NoCommonPitch
from .eigensolve import DEFAULT_SEED, FDModel, SpectrumEntry, SpectrumList
from .fiber import LevelFamily, LevelLink, equilateral_spectra
from .metric_graph import MetricGraph


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


@dataclass
class StringSpec:
    """Strictly decreasing lengths with multiplicities, truncated at depth N."""

    lengths: list[Fraction]
    mults: list[int]
    refine: int = 8

    def __post_init__(self):
        self.lengths = [Fraction(l) for l in self.lengths]
        self.mults = [int(m) for m in self.mults]
        if len(self.lengths) != len(self.mults) or not self.lengths:
            raise InfeasibleNesting("lengths and multiplicities must be nonempty and aligned")
        if any(l <= 0 for l in self.lengths) or any(m < 1 for m in self.mults):
            raise InfeasibleNesting("lengths must be positive and multiplicities >= 1")
        if any(b >= a for a, b in zip(self.lengths, self.lengths[1:])):
            raise InfeasibleNesting("lengths must be strictly decreasing")
        if self.refine < 2:
            raise InfeasibleNesting("refinement must be >= 2")

    @property
    def depth(self) -> int:
        return len(self.lengths)

    @property
    def grid_unit(self) -> Fraction:
        """Largest rational dividing every length."""
        den = 1
        for l in self.lengths:
            den = den * l.denominator // math.gcd(den, l.denominator)
        num = 0
        for l in self.lengths:
            num = math.gcd(num, int(l * den))
        return Fraction(num, den)

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
    return SpectrumList(
        entries=entries,
        origin="analytic(string)",
        truncation=lam_max,
        meta={"lengths": [str(l) for l in spec.lengths], "mults": spec.mults},
    )


def _fiber_sets(spec: StringSpec):
    """G_1 = {1..m_1}; G_i = {1..m_i + 1} for i >= 2."""
    out = [tuple(range(1, spec.mults[0] + 1))]
    for m in spec.mults[1:]:
        out.append(tuple(range(1, m + 2)))
    return out


def build_stitched(spec: StringSpec) -> LevelFamily:
    """Levels 0..N of the stitched space on the common grid.

    Coordinate 1 is free on the whole open base interval; coordinate k >= 2
    is free only on the open right-end segment of length l_k of the sheet
    whose earlier coordinates are all 1.  Collapsed coordinates are
    canonicalized to 1.  Dirichlet conditions sit at the two original
    endpoints.
    """
    g = spec.grid_unit
    l1 = spec.lengths[0]
    K = int(l1 / g)
    fibers = _fiber_sets(spec)
    # cell c covers (c*g, (c+1)*g); attach_cell[k] = first cell inside the
    # level-(k+1) duplicated region
    attach_cell = [int((l1 - l) / g) for l in spec.lengths]

    def canon_cell(c: int, w: tuple) -> tuple:
        out = list(w)
        distinguished = len(out) == 0 or out[0] == 1
        for k in range(2, len(w) + 1):
            if not (distinguished and c >= attach_cell[k - 1]):
                out[k - 1] = 1
            if out[k - 1] != 1:
                distinguished = False
        return tuple(out)

    def canon_vertex(p: int, w: tuple) -> tuple:
        out = list(w)
        if len(w) >= 1 and not (0 < p < K):
            out[0] = 1
        distinguished = all(x == 1 for x in out[:1])
        for k in range(2, len(w) + 1):
            if not (distinguished and attach_cell[k - 1] < p < K):
                out[k - 1] = 1
            if out[k - 1] != 1:
                distinguished = False
        return tuple(out)

    graphs, indices, edge_indices = [], [], []
    for lvl in range(spec.depth + 1):
        words = list(product(*fibers[:lvl])) if lvl else [()]
        vkeys = sorted({(p, canon_vertex(p, w)) for p in range(K + 1) for w in words})
        idx = {key: i for i, key in enumerate(vkeys)}
        ekeys = sorted({(c, canon_cell(c, w)) for c in range(K) for w in words})
        eidx = {key: i for i, key in enumerate(ekeys)}
        ends, weights = [], []
        for (c, w) in ekeys:
            weight = 1.0
            distinguished = True
            for k in range(1, lvl + 1):
                free = (k == 1) or (distinguished and c >= attach_cell[k - 1])
                if free:
                    weight /= len(fibers[k - 1])
                if k >= 1 and w[k - 1] != 1:
                    distinguished = False
            ends.append((idx[(c, canon_vertex(c, w))], idx[(c + 1, canon_vertex(c + 1, w))]))
            weights.append(weight)
        labels = np.array([(p, *w) for (p, w) in vkeys])
        graphs.append(MetricGraph(labels, ends, float(g), weights,
                                  dirichlet=(labels[:, 0] == 0) | (labels[:, 0] == K),
                                  total_mass=float(l1)))
        indices.append(idx)
        edge_indices.append(eidx)

    # a level-i vertex or edge covers the one that drops its last coordinate
    links = [
        LevelLink(
            level=lvl,
            vertex_parent=np.array([indices[lvl - 1][(p, canon_vertex(p, w[:-1]))]
                                    for (p, w) in indices[lvl]], dtype=np.int64),
            edge_parent=np.array([edge_indices[lvl - 1][(c, canon_cell(c, w[:-1]))]
                                  for (c, w) in edge_indices[lvl]], dtype=np.int64),
        )
        for lvl in range(1, spec.depth + 1)
    ]
    return LevelFamily(graphs=graphs, links=links)


def stitched_numeric_spectra(spec: StringSpec, lam_max: float, seed: int = DEFAULT_SEED) -> list[SpectrumList]:
    """Numeric spectra of the stitched levels 0..N at the spec's pitch, each
    value tagged with the level it is new at (see
    ``fiber.equilateral_spectra``: every edge is one grid unit long);
    ``seed`` draws the start vector of the Krylov solver."""
    meta = {"lengths": [str(l) for l in spec.lengths], "mults": spec.mults}
    return equilateral_spectra(build_stitched(spec), [spec.refine], lam_max,
                               "numeric(string,level={})", meta, seed)[0]


def isospectrality_report(
    numeric: SpectrumList, analytic: SpectrumList, model: FDModel, lam_max_check: float
) -> dict:
    """Value (FD tolerance) and multiplicity (exact) match below a cutoff."""
    report = {"matched": [], "mismatched": []}
    nvals = [e for e in numeric.entries if e.value <= lam_max_check and e.value > 1e-12]
    avals = [e for e in analytic.entries if e.value <= lam_max_check]
    for ae, ne in zip(avals, nvals):
        dev = abs(ne.value - ae.value) / max(1.0, ae.value)
        item = {
            "analytic": ae.value,
            "numeric": ne.value,
            "rel_dev": dev,
            "mult_analytic": ae.multiplicity,
            "mult_numeric": ne.multiplicity,
        }
        if dev <= model.rel_tol(ae.value) and ae.multiplicity == ne.multiplicity:
            report["matched"].append(item)
        else:
            report["mismatched"].append(item)
    report["count_mismatch"] = abs(len(avals) - len(nvals))
    report["pass"] = not report["mismatched"] and len(avals) == len(nvals)
    return report


def zeta_partial(spec: StringSpec, s_val: float, lam_max: float) -> float:
    """Partial sum of lambda^{-s} over the Dirichlet spectrum up to lam_max,
    with multiplicity, summed string by string: m_i sum_k (pi k / l_i)^{-2s}
    over the k with (pi k / l_i)^2 <= lam_max (1 + 1e-12), so that rounding
    drops no value that lies on the cut."""
    if s_val <= 0:
        raise ValueError("exponent must be positive")
    cut = lam_max * (1 + 1e-12)
    total = 0.0
    for l, m in zip(spec.lengths, spec.mults):
        n = int(float(l) * math.sqrt(cut) / math.pi) + 1
        sqrt_lam = np.pi * np.arange(1, n + 1) / float(l)
        total += m * float(np.sum(sqrt_lam[sqrt_lam * sqrt_lam <= cut] ** (-2 * s_val)))
    return total
