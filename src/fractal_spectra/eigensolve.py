"""Spectrum lists, the merge of eigenvalues into multiplicities, and the
nesting and comparison checks, each returning the dict that a run writes.

No eigensolver is called and no eigenvector is formed: every spectrum the
package lists comes from a closed form.  The runs of a path base (the
Laakso space and the strings) have theirs from the discrete sine and
cosine transforms (``fiber._run_values``), the pâte à choux pieces and the
whole Dirichlet gaskets of the decimation chain theirs by spectral
decimation (``gasket._piece_spectrum``).  A closed form gives the copies
of an eigenvalue the same bits, so equal values merge exactly, each with
its count, and no value is listed once per copy: the levels of a family
merge each level into the one below (``fiber._cluster_levels``).  For the
same reason the nesting
check finds a lower value in the upper list by its bits before it
searches.  The dense eigensolver and the gap clustering that its values
need are the tests' reference (``tests/dense_reference.py``).
"""

from __future__ import annotations

import bisect
import csv
import io
import math
from dataclasses import dataclass
from types import SimpleNamespace

from .errors import MisalignedMeshes


@dataclass(frozen=True)
class SpectrumEntry:
    value: float
    multiplicity: int
    tag: str = ""


@dataclass
class SpectrumList:
    """Sorted eigenvalues with multiplicities, analytic or numeric."""

    entries: list[SpectrumEntry]
    origin: str
    truncation: float
    pitch: float | None = None

    def __post_init__(self):
        last = -math.inf
        for e in self.entries:
            if not math.isfinite(e.value):  # NaN would pass the comparison below
                raise ValueError("spectrum values must be finite")
            if e.value <= last:
                raise ValueError("spectrum entries must be strictly increasing")
            if e.multiplicity < 1:
                raise ValueError("multiplicities must be >= 1")
            last = e.value

    def values(self) -> list[float]:
        return [e.value for e in self.entries]

    # -- serialization -------------------------------------------------------

    def to_csv(self) -> str:
        # csv quotes a field for the characters of its line terminator, not
        # for every line break, so a "\n" terminator leaves a "\r" in a tag
        # bare and the reader ends the row there.  Fields are quoted with
        # "\r\n" (the writer hands over one row per write), each distinct
        # tag and the origin once, and the rows end in "\n".  A field is
        # quoted as the first of a two-field row, as the writer quotes a
        # lone empty field.
        rows: list[str] = []
        w = csv.writer(SimpleNamespace(write=rows.append), lineterminator="\r\n")

        def quoted(field: str) -> str:
            w.writerow([field, ""])
            return rows.pop()[:-3]

        source, tags = quoted(self.origin), {}
        lines = ["eigenvalue,multiplicity,tag,source\n"]
        for e in self.entries:
            tag = tags.get(e.tag)
            if tag is None:
                tag = tags[e.tag] = quoted(e.tag)
            lines.append(f"{e.value!r},{e.multiplicity},{tag},{source}\n")
        return "".join(lines)

    @classmethod
    def from_csv(cls, text: str) -> "SpectrumList":
        """Read a spectrum CSV.  The file does not store the truncation, so
        the largest listed eigenvalue stands in: the list is known to be
        complete only up to there."""
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["eigenvalue", "multiplicity", "tag", "source"]:
            raise ValueError("bad spectrum CSV header")
        entries = [SpectrumEntry(float(r[0]), int(r[1]), r[2]) for r in rows[1:]]
        origin = rows[1][3] if len(rows) > 1 else "unknown"
        return cls(entries=entries, origin=origin,
                   truncation=entries[-1].value if entries else -math.inf)


def verify_nesting(lower: SpectrumList, upper: SpectrumList, tol: float = 1e-9) -> dict:
    """Check sigma(lower) subset-of sigma(upper) with multiplicity growth.

    Each lower value is matched to the nearest upper value when it lies
    within ``tol`` (relative, floored at 1): a value the upper list holds
    bit for bit, as every value of a level is a value of the level above,
    is its own nearest, found by one dict lookup; any other value is
    searched for (``_nearest``).  Both lists must be numeric at the same
    pitch (the discrete nesting is exact only for aligned meshes).  The
    report lists the unmatched lower values and counts the upper values no
    lower value matched (``surplus``); it passes when every lower value is
    matched by an upper one of at least its multiplicity.
    """
    if lower.pitch is not None and upper.pitch is not None:
        if abs(lower.pitch - upper.pitch) > 1e-12 * max(lower.pitch, upper.pitch):
            raise MisalignedMeshes(f"pitches {lower.pitch} vs {upper.pitch}")
    up = upper.values()
    index = {value: j for j, value in enumerate(up)}
    unmatched, used, enough, worst = [], [False] * len(up), True, 0.0
    for e in lower.entries:
        x = e.value
        best = index.get(x)
        if best is None and up:
            near, scale = _nearest(up, x), max(1.0, abs(x))
            if abs(up[near] - x) <= tol * scale:
                best, worst = near, max(worst, abs(up[near] - x) / scale)
        if best is None:
            unmatched.append(x)
            continue
        used[best] = True
        enough = enough and upper.entries[best].multiplicity >= e.multiplicity
    return {
        "unmatched_lower": unmatched,
        "surplus": used.count(False),
        "multiplicity_ok": enough,
        "max_deviation": worst,
        "pass": not unmatched and enough,
    }


@dataclass
class FDModel:
    """Second-order finite-difference error model: relative error of an
    eigenvalue lambda at pitch h is bounded by 10 * lambda * h**2."""

    pitch: float

    def rel_tol(self, lam: float) -> float:
        # absolute floor covers roundoff on near-zero modes
        return max(10.0 * abs(lam) * self.pitch**2, 1e-9)


def compare_spectra(
    numeric: SpectrumList,
    analytic: SpectrumList,
    model: FDModel,
    coverage_max: float | None = None,
    numeric_coarse: SpectrumList | None = None,
) -> dict:
    """Match numeric eigenvalues against an analytic list with FD-aware
    tolerance, each to its nearest analytic value (``_nearest``).

    Every numeric value must be within model.rel_tol of some analytic value;
    every nonzero analytic value <= coverage_max must be hit; the report
    passes when both hold.  A numeric zero mode is skipped when the analytic
    list omits it.  When a coarser-pitch list is given, the observed
    convergence order (median over matched values) is reported.
    """
    avals = analytic.values()
    has_zero = bool(avals) and abs(avals[0]) < 1e-12
    matched, unmatched_numeric = [], []
    max_dev = 0.0
    hit = [False] * len(avals)
    for e in numeric.entries:
        if not has_zero and abs(e.value) <= 1e-9:
            continue
        if not avals:
            unmatched_numeric.append(e.value)
            continue
        j = _nearest(avals, e.value)
        dev = abs(avals[j] - e.value) / max(1.0, abs(avals[j]))
        if dev <= model.rel_tol(avals[j]):
            hit[j] = True
            max_dev = max(max_dev, dev)
            matched.append({"numeric": e.value, "analytic": avals[j], "rel_dev": dev})
        else:
            unmatched_numeric.append(e.value)
    unmatched_analytic = []
    if coverage_max is not None:
        for j, a in enumerate(avals):
            if a <= coverage_max and not hit[j] and a > 1e-12:
                unmatched_analytic.append(a)
    order = None
    if numeric_coarse is not None:
        cvals = numeric_coarse.values()
        orders = []
        for m in matched:
            a = m["analytic"]
            if abs(a) < 1e-12 or not cvals:
                continue
            ec = abs(cvals[_nearest(cvals, a)] - a)
            ef = abs(m["numeric"] - a)
            if ef > 1e-13 * abs(a) and ec > ef:
                orders.append(math.log2(ec / ef))
        if orders:
            orders.sort()
            half = len(orders) // 2
            order = orders[half] if len(orders) % 2 else (orders[half - 1] + orders[half]) / 2
    return {
        "matched": matched,
        "unmatched_numeric": unmatched_numeric,
        "unmatched_analytic": unmatched_analytic,
        "max_rel_deviation": max_dev,
        "convergence_order": order,
        "pass": not unmatched_numeric and not unmatched_analytic,
    }


def _nearest(values: list[float], x: float) -> int:
    """The index of the value of the strictly increasing, nonempty
    ``values`` nearest to x, the first among equally near ones."""
    # the nearest is a neighbour of the insertion point; |v - x| is monotone
    # in v, so equally near values further left can only tie the left one
    right = min(bisect.bisect_left(values, x), len(values) - 1)
    left = max(right - 1, 0)
    best = right if abs(values[right] - x) < abs(values[left] - x) else left
    dev = abs(values[best] - x)
    while best > 0 and abs(values[best - 1] - x) == dev:
        best -= 1
    return best
