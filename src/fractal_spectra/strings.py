"""Fractal strings and the connected ("stitched") spaces isospectral to them.

A string is a list of interval lengths l_i with multiplicities m_i; its
Dirichlet spectrum is pi^2 k^2 / l_i^2 with multiplicity m_i.  The stitched
space starts from [0, l_1], first turns it into m_1 parallel strands glued at
both ends, then at each level i >= 2 duplicates the open segment of length
l_i at the right end of the all-ones sheet into m_i + 1 copies.  Lengths are
kept as exact rationals so a common mesh pitch exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import DivergentRange, InfeasibleNesting, NoCommonPitch
from .eigensolve import DEFAULT_SEED, FDModel, SpectrumEntry, SpectrumList
from .fiber import LevelFamily, LevelLink, discretize_levels, level_spectra
from .metric_graph import DIRICHLET, MetricGraph, Vertex, assemble


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
        verts = [
            Vertex(
                x=float(p * g),
                word=w,
                boundary=DIRICHLET if p in (0, K) else None,
            )
            for (p, w) in vkeys
        ]
        ekeys = sorted({(c, canon_cell(c, w)) for c in range(K) for w in words})
        eidx = {key: i for i, key in enumerate(ekeys)}
        edges = []
        for (c, w) in ekeys:
            weight = 1.0
            distinguished = True
            for k in range(1, lvl + 1):
                free = (k == 1) or (distinguished and c >= attach_cell[k - 1])
                if free:
                    weight /= len(fibers[k - 1])
                if k >= 1 and w[k - 1] != 1:
                    distinguished = False
            edges.append(
                (idx[(c, canon_vertex(c, w))], idx[(c + 1, canon_vertex(c + 1, w))], float(g), weight)
            )
        graphs.append(MetricGraph(verts, edges, total_mass=float(l1)))
        indices.append(idx)
        edge_indices.append(eidx)

    links = []
    for lvl in range(1, spec.depth + 1):
        vparent = [0] * len(indices[lvl])
        for (p, w), i in indices[lvl].items():
            vparent[i] = indices[lvl - 1][(p, canon_vertex(p, w[: lvl - 1]))]
        eparent = [0] * len(edge_indices[lvl])
        for (c, w), i in edge_indices[lvl].items():
            eparent[i] = edge_indices[lvl - 1][(c, canon_cell(c, w[: lvl - 1]))]
        links.append(
            LevelLink(
                level=lvl,
                fiber_size=len(fibers[lvl - 1]),
                vertex_parent=vparent,
                edge_parent=eparent,
            )
        )
    return LevelFamily(graphs=graphs, links=links)


def stitched_levels(spec: StringSpec):
    """Pencils of levels 0..N at the spec's pitch from one build, plus the
    fiber structures between them (fibers[i] connects level i+1 to i)."""
    meshes, fibers = discretize_levels(build_stitched(spec), spec.pitch)
    return [assemble(m) for m in meshes], fibers


def stitched_numeric_spectra(
    spec: StringSpec, lam_max: float, levels=None, seed: int = DEFAULT_SEED
) -> list[SpectrumList]:
    """Numeric spectra of the stitched levels (default: all), tagged by
    origin level; ``seed`` draws the start vector of the Krylov solver."""
    ops, fibers = stitched_levels(spec)
    meta = {"lengths": [str(l) for l in spec.lengths], "mults": spec.mults, "refine": spec.refine}
    return level_spectra(ops, fibers, lam_max, "numeric(string,level={})", meta, levels, seed,
                         truncation=lam_max, pitch=spec.pitch)


def stitched_numeric_spectrum(
    spec: StringSpec, lam_max: float, level: int | None = None, seed: int = DEFAULT_SEED
) -> SpectrumList:
    """Numeric spectrum of one level (default: deepest); see stitched_numeric_spectra."""
    level = spec.depth if level is None else level
    return stitched_numeric_spectra(spec, lam_max, [level], seed)[0]


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


def zeta_partial(
    spectrum: SpectrumList | StringSpec,
    s_val: float,
    lam_max: float,
    require_convergence: bool = False,
) -> float:
    """Partial sum of lambda^{-s} over eigenvalues <= lam_max, with
    multiplicity; the zero mode is excluded."""
    if s_val <= 0:
        raise ValueError("exponent must be positive")
    if isinstance(spectrum, StringSpec):
        spectrum = string_analytic_spectrum(spectrum, lam_max)
    entries = [e for e in spectrum.entries if 1e-12 < e.value <= lam_max * (1 + 1e-12)]
    if require_convergence and len(entries) >= 8:
        # growth exponent of N(lambda); the sum converges only for s above it
        n_full = sum(e.multiplicity for e in entries)
        lam_hi = entries[-1].value
        n_quarter = sum(e.multiplicity for e in entries if e.value <= lam_hi / 4)
        if n_quarter > 0:
            abscissa = math.log(n_full / n_quarter) / math.log(4.0)
            if s_val <= abscissa:
                raise DivergentRange(
                    f"s={s_val} at or below estimated abscissa {abscissa:.3f}"
                )
    return float(sum(e.multiplicity * e.value ** (-s_val) for e in entries))
