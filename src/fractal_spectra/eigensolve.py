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
same reason the nesting check finds a lower value in the upper list by its
bits before it searches, and one compare serves both path families: the
k-th mesh entry pairs with the k-th continuum entry under the exact
finite-difference bound (``compare_spectra``).  The dense eigensolver and
the gap clustering that its values need are the tests' reference
(``tests/dense_reference.py``).
"""

from __future__ import annotations

import bisect
import csv
import io
import math
import sys
from types import SimpleNamespace
from typing import NamedTuple

from .errors import MisalignedMeshes


class SpectrumEntry(NamedTuple):
    value: float
    multiplicity: int
    tag: str = ""


class SpectrumList:
    """Sorted eigenvalues with multiplicities, analytic or numeric; two
    lists are equal when their fields are."""

    def __init__(self, entries: list[SpectrumEntry], origin: str, truncation: float,
                 pitch: float | None = None):
        self.entries = entries
        self.origin = origin
        self.truncation = truncation
        self.pitch = pitch
        last = -math.inf
        for e in entries:
            if not math.isfinite(e.value):  # NaN would pass the comparison below
                raise ValueError("spectrum values must be finite")
            if e.value <= last:
                raise ValueError("spectrum entries must be strictly increasing")
            if e.multiplicity < 1:
                raise ValueError("multiplicities must be >= 1")
            last = e.value

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

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


#: the relative slack of the finite-difference bound, for the roundings of the closed forms
ULP_SLACK = 16 * sys.float_info.epsilon


def compare_spectra(numeric: SpectrumList, analytic: SpectrumList, pitch: float,
                    cut: float) -> dict:
    """Pair the k-th numeric entry with the k-th analytic entry <= c =
    min(cut, (pi / h)^2 (1 - 1e-12)) and hold each pair to the exact
    finite-difference bound lambda (1 - lambda h^2 / 12) <= lambda_h <= lambda
    (y - y^3 / 6 <= sin y <= y for lambda_h = lambda (sin y / y)^2,
    y = sqrt(lambda) h / 2, which rises with lambda below (pi / h)^2), with
    ``ULP_SLACK``, and to equal multiplicities: else the pair is
    ``mismatched``.  At (pi / h)^2 a Dirichlet run end has a value with no
    mesh value, and two free ends the mesh value 4 / h^2 with no continuum
    value below.  ``count_mismatch`` counts the analytic entries left
    unpaired and the numeric ones left over at or below c (1 - c h^2 / 12),
    below the mesh value of every value above c."""
    top = min(cut, (math.pi / pitch) ** 2 * (1 - 1e-12))
    kept = analytic.entries[:bisect.bisect_right(analytic.values(), top)]
    twelfth = pitch * pitch / 12
    report = {"matched": [], "mismatched": []}
    for a, n in zip(kept, numeric.entries):
        lam, value = a.value, n.value
        item = {"analytic": lam, "numeric": value, "rel_dev": abs(value - lam) / max(1.0, lam),
                "mult_analytic": a.multiplicity, "mult_numeric": n.multiplicity}
        fits = lam * (1 - lam * twelfth) * (1 - ULP_SLACK) <= value <= lam * (1 + ULP_SLACK)
        report["matched" if fits and a.multiplicity == n.multiplicity
               else "mismatched"].append(item)
    floor = top * (1 - top * twelfth) * (1 - ULP_SLACK)
    report["count_mismatch"] = (max(len(kept) - len(numeric.entries), 0)
                                + sum(e.value <= floor for e in numeric.entries[len(kept):]))
    report["pass"] = not report["mismatched"] and not report["count_mismatch"]
    return report


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
