"""Spectrum lists, the merge of eigenvalues into multiplicities, and the
nesting and comparison reports.

No eigensolver is called and no eigenvector is formed: every spectrum the
package lists comes from a closed form.  The runs of a path base (the
Laakso space and the strings) have theirs from the discrete sine and
cosine transforms (``fiber._run_values``), the pâte à choux pieces and the
whole Dirichlet gaskets of the decimation chain theirs by spectral
decimation (``gasket._piece_spectrum``).  A closed form gives the copies
of an eigenvalue the same bits, so ``cluster`` merges equal values
exactly, each with its count, and never lists a value once per copy.  The
dense eigensolver and the gap clustering that its values need are the
tests' reference (``tests/dense_reference.py``).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

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
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = [e.value for e in self.entries]
        if not np.all(np.isfinite(vals)):  # NaN would pass the comparisons below
            raise ValueError("spectrum values must be finite")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("spectrum entries must be strictly increasing")
        if any(e.multiplicity < 1 for e in self.entries):
            raise ValueError("multiplicities must be >= 1")

    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.entries])

    # -- serialization -------------------------------------------------------

    def to_csv(self) -> str:
        # csv quotes a field for the characters of its line terminator, not
        # for every line break, so a "\n" terminator leaves a "\r" in a tag
        # bare and the reader ends the row there.  Rows are written with
        # "\r\n" (the writer hands over one row per write) and each row's
        # terminator is cut back to "\n".
        rows: list[str] = []
        w = csv.writer(SimpleNamespace(write=rows.append), lineterminator="\r\n")
        w.writerow(["eigenvalue", "multiplicity", "tag", "source"])
        for e in self.entries:
            w.writerow([repr(e.value), e.multiplicity, e.tag, self.origin])
        return "".join(row[:-2] + "\n" for row in rows)

    @classmethod
    def from_csv(cls, text: str, truncation: float | None = None, pitch=None) -> "SpectrumList":
        """Read a spectrum CSV.  The file does not store the truncation, so
        without an explicit one the largest listed eigenvalue stands in: the
        list is known to be complete only up to there."""
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["eigenvalue", "multiplicity", "tag", "source"]:
            raise ValueError("bad spectrum CSV header")
        entries = [SpectrumEntry(float(r[0]), int(r[1]), r[2]) for r in rows[1:]]
        origin = rows[1][3] if len(rows) > 1 else "unknown"
        if truncation is None:
            truncation = entries[-1].value if entries else -np.inf
        return cls(entries=entries, origin=origin, truncation=truncation, pitch=pitch)


def cluster(
    eigs,
    origin: str = "numeric",
    truncation: float = np.inf,
    pitch: float | None = None,
    tags=None,
    meta: dict | None = None,
    counts=None,
) -> SpectrumList:
    """Multiplicities of a sorted eigenvalue array, each value counted
    ``counts`` times (positive integers; once each by default): equal
    values are one entry, whose multiplicity is the sum of their counts.

    ``tags`` optionally assigns a label per value; an entry's tag lists
    the distinct labels with their counts.  ``meta`` becomes the list's
    ``meta``.  Values that differ stay apart however close they are: the
    closed forms give every copy of an eigenvalue the same bits.
    """
    eigs = np.asarray(eigs, dtype=float)
    counts = np.ones(len(eigs), dtype=np.int64) if counts is None else np.asarray(counts)
    if (eigs[1:] < eigs[:-1]).any():
        raise ValueError("input eigenvalues must be sorted")
    entries = []
    if len(eigs):
        first = np.r_[True, eigs[1:] != eigs[:-1]]
        start = np.flatnonzero(first)
        mult = np.add.reduceat(counts, start)
        labels = [""] * len(start)
        if tags is not None:
            run = np.cumsum(first) - 1
            names = sorted(set(tags))
            code = dict(zip(names, range(len(names))))
            table = np.bincount(run * len(names) + np.array([code[t] for t in tags], dtype=np.int64),
                                counts, len(start) * len(names))
            table = table.astype(np.int64).reshape(len(start), len(names))
            run, tag = np.nonzero(table)
            texts = [f"{names[t]}x{c}" for t, c in zip(tag.tolist(), table[run, tag].tolist())]
            cuts = [0, *((run[1:] != run[:-1]).nonzero()[0] + 1).tolist(), len(texts)]
            labels = [";".join(texts[a:b]) for a, b in zip(cuts, cuts[1:])]
        entries = [SpectrumEntry(*e) for e in zip(eigs[start].tolist(), mult.tolist(), labels)]
    return SpectrumList(entries=entries, origin=origin, truncation=truncation, pitch=pitch,
                        meta={} if meta is None else meta)


@dataclass
class NestingReport:
    unmatched_lower: list
    surplus: list
    multiplicity_ok: bool
    max_deviation: float

    @property
    def ok(self) -> bool:
        return not self.unmatched_lower and self.multiplicity_ok

    def to_dict(self):
        return {
            "unmatched_lower": self.unmatched_lower,
            "surplus": self.surplus,
            "multiplicity_ok": self.multiplicity_ok,
            "max_deviation": self.max_deviation,
            "pass": self.ok,
        }


def verify_nesting(lower: SpectrumList, upper: SpectrumList, tol: float = 1e-9) -> NestingReport:
    """Check sigma(lower) subset-of sigma(upper) with multiplicity growth.

    Each lower value is matched to the nearest upper value, the first one
    among equally near ones, when it lies within ``tol`` (relative, floored
    at 1).  Both lists must be numeric at the same pitch (the discrete
    nesting is exact only for aligned meshes).
    """
    if lower.pitch is not None and upper.pitch is not None:
        if abs(lower.pitch - upper.pitch) > 1e-12 * max(lower.pitch, upper.pitch):
            raise MisalignedMeshes(f"pitches {lower.pitch} vs {upper.pitch}")
    low, up = lower.values(), upper.values()
    if not len(up):
        return NestingReport(low.tolist(), [], True, 0.0)
    # upper values increase strictly, so the nearest is a neighbour of the
    # insertion point; |u - x| is monotone in u, so equally near values
    # further left can only tie the left neighbour
    right = np.minimum(np.searchsorted(up, low), len(up) - 1)
    left = np.maximum(right - 1, 0)
    best = np.where(np.abs(up[right] - low) < np.abs(up[left] - low), right, left)
    dev = np.abs(up[best] - low)
    for i in np.flatnonzero((best > 0) & (np.abs(up[best - 1] - low) == dev)).tolist():
        while best[i] > 0 and abs(up[best[i] - 1] - low[i]) == dev[i]:
            best[i] -= 1
    scale = np.maximum(1.0, np.abs(low))
    hit = dev <= tol * scale
    used = np.zeros(len(up), dtype=bool)
    used[best[hit]] = True
    mults = np.array([e.multiplicity for e in upper.entries])
    need = np.array([e.multiplicity for e in lower.entries], dtype=int)
    return NestingReport(
        unmatched_lower=low[~hit].tolist(),
        surplus=up[~used].tolist(),
        multiplicity_ok=bool(np.all(mults[best[hit]] >= need[hit])),
        max_deviation=float(np.max(dev[hit] / scale[hit], initial=0.0)),
    )


@dataclass
class FDModel:
    """Second-order finite-difference error model: relative error of an
    eigenvalue lambda at pitch h is bounded by constant * lambda * h**2."""

    pitch: float
    constant: float = 10.0

    def rel_tol(self, lam: float) -> float:
        # absolute floor covers roundoff on near-zero modes
        return max(self.constant * abs(lam) * self.pitch**2, 1e-9)


@dataclass
class CompareReport:
    matched: list
    unmatched_numeric: list
    unmatched_analytic: list
    max_rel_deviation: float
    convergence_order: float | None = None

    @property
    def ok(self) -> bool:
        return not self.unmatched_numeric and not self.unmatched_analytic

    def to_dict(self):
        return {
            "matched": self.matched,
            "unmatched_numeric": self.unmatched_numeric,
            "unmatched_analytic": self.unmatched_analytic,
            "max_rel_deviation": self.max_rel_deviation,
            "convergence_order": self.convergence_order,
            "pass": self.ok,
        }


def compare_spectra(
    numeric: SpectrumList,
    analytic: SpectrumList,
    model: FDModel,
    coverage_max: float | None = None,
    numeric_coarse: SpectrumList | None = None,
) -> CompareReport:
    """Match numeric eigenvalues against an analytic list with FD-aware
    tolerance.

    Every numeric value must be within model.rel_tol of some analytic value;
    every nonzero analytic value <= coverage_max must be hit.  A numeric zero
    mode is skipped when the analytic list omits it.  When a coarser-pitch
    list is given, the observed convergence order (median over matched
    values) is reported.
    """
    avals = analytic.values()
    has_zero = len(avals) and abs(avals[0]) < 1e-12
    matched, unmatched_numeric = [], []
    max_dev = 0.0
    hit = np.zeros(len(avals), dtype=bool)
    for e in numeric.entries:
        if not has_zero and abs(e.value) <= 1e-9:
            continue
        if len(avals) == 0:
            unmatched_numeric.append(e.value)
            continue
        j = int(np.argmin(np.abs(avals - e.value)))
        dev = abs(avals[j] - e.value) / max(1.0, abs(avals[j]))
        if dev <= model.rel_tol(avals[j]):
            hit[j] = True
            max_dev = max(max_dev, dev)
            matched.append({"numeric": e.value, "analytic": float(avals[j]), "rel_dev": dev})
        else:
            unmatched_numeric.append(e.value)
    unmatched_analytic = []
    if coverage_max is not None:
        for j, a in enumerate(avals):
            if a <= coverage_max and not hit[j] and a > 1e-12:
                unmatched_analytic.append(float(a))
    order = None
    if numeric_coarse is not None:
        cvals = numeric_coarse.values()
        orders = []
        for m in matched:
            a = m["analytic"]
            if abs(a) < 1e-12 or len(cvals) == 0:
                continue
            jc = int(np.argmin(np.abs(cvals - a)))
            ec = abs(cvals[jc] - a)
            ef = abs(m["numeric"] - a)
            if ef > 1e-13 * abs(a) and ec > ef:
                orders.append(np.log2(ec / ef))
        if orders:
            order = float(np.median(orders))
    return CompareReport(matched, unmatched_numeric, unmatched_analytic, max_dev, order)
