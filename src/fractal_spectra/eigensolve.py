"""Generalized symmetric eigensolver and spectrum bookkeeping.

The lumped mass matrix is diagonal, so the pencil A v = lambda M v reduces
exactly to the standard symmetric problem S y = lambda y with
S = M^{-1/2} A M^{-1/2}, y = M^{1/2} v.  Every eigenproblem goes through
``solve_below``, which returns the part of the spectrum below a cutoff and
proves it complete: it first counts the eigenvalues below the cutoff exactly,
from the Sylvester inertia of S - lambda_max I, then computes them with
LAPACK (the whole spectrum when the count is n, the subset solver for other
small problems) or with shift-invert ARPACK (``eigsh`` about a negative
shift, started from a seeded vector) for large ones, and refuses any result
whose length differs from the count.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import BeyondTruncation, MisalignedMeshes, NoConvergence, NotPositiveMass
from .metric_graph import DiscreteOperator

DEFAULT_SEED = 20260826
#: solve_below takes LAPACK's subset solver up to this many unknowns and
#: shift-invert ARPACK above it; on Laakso and string pencils the two break
#: even between n = 250 and 500, and ARPACK is 2-8x faster from n = 1000 on
EIGSH_THRESHOLD = 500
#: eigenpairs asked of ARPACK beyond the inertia count, so that its run
#: reaches past the cut
EIGSH_MARGIN = 4
#: the shift sits this fraction of the cut below zero.  ARPACK can miss a
#: copy of a highly repeated eigenvalue (the 18-fold ones of Laakso level
#: 3); over 210 such solves a shift of 0.1 cut missed one once, 0.01 and
#: 1.0 cut missed 13 and 37 times
EIGSH_SHIFT = 0.1


@dataclass
class EigenPairs:
    """Eigenvalues with M-orthonormal eigenvectors, sorted ascending."""

    values: np.ndarray
    vectors: np.ndarray  # shape (n, k)
    inertia_count: int  # N(lam_max) from the inertia of S - lam_max I

    def residuals(self, op: DiscreteOperator) -> np.ndarray:
        R = op.A @ self.vectors - (op.M[:, None] * self.vectors) * self.values[None, :]
        return np.linalg.norm(R, axis=0)


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
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("spectrum entries must be strictly increasing")
        if any(e.multiplicity < 1 for e in self.entries):
            raise ValueError("multiplicities must be >= 1")

    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.entries])

    def total_multiplicity(self) -> int:
        return sum(e.multiplicity for e in self.entries)

    # -- serialization -------------------------------------------------------

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["eigenvalue", "multiplicity", "tag", "source"])
        for e in self.entries:
            w.writerow([repr(e.value), e.multiplicity, e.tag, self.origin])
        return buf.getvalue()

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

    def to_json(self) -> str:
        return json.dumps(
            {
                "origin": self.origin,
                "truncation": self.truncation,
                "pitch": self.pitch,
                "meta": self.meta,
                "entries": [
                    {"value": repr(e.value), "multiplicity": e.multiplicity, "tag": e.tag}
                    for e in self.entries
                ],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "SpectrumList":
        doc = json.loads(text)
        return cls(
            entries=[
                SpectrumEntry(float(d["value"]), d["multiplicity"], d["tag"])
                for d in doc["entries"]
            ],
            origin=doc["origin"],
            truncation=doc["truncation"],
            pitch=doc["pitch"],
            meta=doc.get("meta", {}),
        )


# -- solvers ----------------------------------------------------------------


def _standard_form(d: DiscreteOperator):
    if np.any(d.M <= 0):
        raise NotPositiveMass("mass diagonal must be positive")
    ms = 1.0 / np.sqrt(d.M)
    S = d.A.multiply(ms[:, None]).multiply(ms[None, :]).tocsr()
    return S, ms


def _count_below(S, cut: float) -> int:
    """Number of eigenvalues of the symmetric matrix S below ``cut``.

    By Sylvester's law of inertia this is the number of negative pivots of
    an LDL^T factorization of S - cut*I.  SuperLU in symmetric mode with
    diagonal pivoting only gives one (U = D L^T, the same permutation on
    rows and columns); if it had to pivot off the diagonal the pivots no
    longer carry the inertia and the count is refused.
    """
    shifted = (S - cut * sp.identity(S.shape[0], format="csr")).tocsc()
    try:
        lu = spla.splu(
            shifted,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # exactly singular: an eigenvalue sits on the cut
        raise NoConvergence(0, f"inertia count at {cut!r}: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NoConvergence(0, f"inertia count at {cut!r}: factorization pivoted off the diagonal")
    return int(np.count_nonzero(lu.U.diagonal() < 0))


def solve_below(d: DiscreteOperator, lam_max: float, seed: int = DEFAULT_SEED) -> EigenPairs:
    """All eigenpairs with eigenvalue <= lam_max, proven complete.

    The exact count N(lam_max) comes first, from the inertia of S - cut*I.
    When it is n (lam_max bounds the spectrum) LAPACK returns the whole
    spectrum; otherwise pencils of at most EIGSH_THRESHOLD unknowns take
    LAPACK's subset solver and larger ones take ARPACK in shift-invert mode
    about a negative shift, started from a seeded vector and with k grown
    until exactly the counted number of values lie below the cut (pencils
    too small for that margin also go to LAPACK).  A result whose length
    differs from the count (for instance one copy short of a repeated
    eigenvalue) raises NoConvergence instead of being returned.
    """
    n = d.n
    S, ms = _standard_form(d)
    cut = lam_max * (1 + 1e-12)
    count = _count_below(S, cut)
    if count == n:
        # no value range: a range sends LAPACK through bisection, which
        # moves the last bits of a full spectrum
        w, Y = scipy.linalg.eigh(S.toarray())
    elif n <= EIGSH_THRESHOLD or count + EIGSH_MARGIN >= n:
        w, Y = scipy.linalg.eigh(S.toarray(), subset_by_value=(-np.inf, cut))
    else:
        w, Y = _eigsh_below(S, cut, count, seed)
    if len(w) != count:
        raise NoConvergence(0, f"{len(w)} eigenvalues <= {lam_max!r} found, inertia counts {count}")
    return EigenPairs(values=w, vectors=ms[:, None] * Y, inertia_count=count)


def _eigsh_below(S, cut: float, count: int, seed: int):
    """Shift-invert ARPACK for the ``count`` eigenvalues of S below ``cut``.

    The Krylov space grows with k, so a copy of a repeated eigenvalue that
    one run missed (its count below the cut falls short) is sought again
    with k doubled.  The result is accepted only when exactly ``count``
    values lie below the cut and at least one above it, which shows that
    the run reached past the cut.
    """
    n = S.shape[0]
    v0 = np.random.default_rng(seed).standard_normal(n)
    sigma = -max(abs(cut), 1.0) * EIGSH_SHIFT
    k = count + EIGSH_MARGIN
    while True:
        try:
            w, Y = spla.eigsh(S, k, sigma=sigma, which="LM", v0=v0)
        except spla.ArpackNoConvergence:
            pass
        else:
            order = np.argsort(w)
            w, Y = w[order], Y[:, order]
            if np.count_nonzero(w <= cut) == count and w[-1] > cut:
                return w[:count], Y[:, :count]
        if k == n - 1:
            raise NoConvergence(k, f"eigsh did not find the {count} eigenvalues below {cut!r}")
        k = min(2 * k, n - 1)


# -- bookkeeping --------------------------------------------------------------


def gap_runs(values, rtol: float) -> list[tuple[int, int]]:
    """(start, stop) index runs of a sorted array: a value joins the run of
    its predecessor when v[j] - v[j-1] <= rtol * max(1, |v[j]|)."""
    v = np.asarray(values, dtype=float)
    if not len(v):
        return []
    joins = np.diff(v) <= rtol * np.maximum(1.0, np.abs(v[1:]))
    bounds = [0, *(np.flatnonzero(~joins) + 1).tolist(), len(v)]
    return list(zip(bounds[:-1], bounds[1:]))


def cluster(
    eigs,
    rel_tol: float = 1e-7,
    origin: str = "numeric",
    truncation: float = np.inf,
    pitch: float | None = None,
    tags=None,
) -> SpectrumList:
    """Gap-based multiplicity clustering of a sorted eigenvalue array.

    ``tags`` optionally assigns a label per raw eigenvalue; a cluster's tag
    lists the distinct labels with their counts.
    """
    eigs = np.asarray(eigs, dtype=float)
    if np.any(np.diff(eigs) < 0):
        raise ValueError("input eigenvalues must be sorted")
    entries = []
    for i, j in gap_runs(eigs, rel_tol):
        val = float(np.mean(eigs[i:j]))
        if tags is not None:
            labels = {}
            for t in tags[i:j]:
                labels[t] = labels.get(t, 0) + 1
            tag = ";".join(f"{t}x{c}" for t, c in sorted(labels.items()))
        else:
            tag = ""
        entries.append(SpectrumEntry(val, j - i, tag))
    return SpectrumList(entries=entries, origin=origin, truncation=truncation, pitch=pitch)


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

    Both lists must be numeric at the same pitch (the discrete nesting is
    exact only for aligned meshes).
    """
    if lower.pitch is not None and upper.pitch is not None:
        if abs(lower.pitch - upper.pitch) > 1e-12 * max(lower.pitch, upper.pitch):
            raise MisalignedMeshes(f"pitches {lower.pitch} vs {upper.pitch}")
    unmatched, surplus = [], []
    mult_ok = True
    max_dev = 0.0
    used = [False] * len(upper.entries)
    for le in lower.entries:
        best, best_dev = None, None
        for j, ue in enumerate(upper.entries):
            dev = abs(ue.value - le.value)
            if dev <= tol * max(1.0, abs(le.value)) and (best_dev is None or dev < best_dev):
                best, best_dev = j, dev
        if best is None:
            unmatched.append(le.value)
        else:
            used[best] = True
            max_dev = max(max_dev, best_dev / max(1.0, abs(le.value)))
            if upper.entries[best].multiplicity < le.multiplicity:
                mult_ok = False
    for j, ue in enumerate(upper.entries):
        if not used[j]:
            surplus.append(ue.value)
    return NestingReport(unmatched, surplus, mult_ok, max_dev)


def counting_function(s: SpectrumList, lam: float) -> int:
    """Eigenvalue counting function N(lambda), multiplicities included."""
    if lam > s.truncation * (1 + 1e-12):
        raise BeyondTruncation(f"lambda={lam} beyond truncation {s.truncation}")
    return int(sum(e.multiplicity for e in s.entries if e.value <= lam * (1 + 1e-12)))


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
    skip_zero: bool = True,
) -> CompareReport:
    """Match numeric eigenvalues against an analytic list with FD-aware
    tolerance.

    Every numeric value must be within model.rel_tol of some analytic value;
    every analytic value <= coverage_max must be hit.  A numeric zero mode is
    skipped when the analytic list omits it.  When a coarser-pitch list is
    given, the observed convergence order (median over matched values) is
    reported.
    """
    avals = analytic.values()
    has_zero = len(avals) and abs(avals[0]) < 1e-12
    matched, unmatched_numeric = [], []
    max_dev = 0.0
    hit = np.zeros(len(avals), dtype=bool)
    for e in numeric.entries:
        if skip_zero and not has_zero and abs(e.value) <= 1e-9:
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
            if a <= coverage_max and not hit[j] and (a > 1e-12 or not skip_zero):
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


def richardson(fine: np.ndarray, coarse: np.ndarray, order: int = 2) -> np.ndarray:
    """Richardson extrapolation of index-matched eigenvalue lists computed at
    pitches h (coarse) and h/2 (fine)."""
    m = min(len(fine), len(coarse))
    f, c = np.asarray(fine[:m]), np.asarray(coarse[:m])
    w = 2.0**order
    return (w * f - c) / (w - 1.0)
