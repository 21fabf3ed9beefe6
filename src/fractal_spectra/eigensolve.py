"""Generalized symmetric eigensolver and spectrum bookkeeping.

The lumped mass matrix is diagonal, so the pencil A v = lambda M v reduces
exactly to the standard symmetric problem S y = lambda y with
S = M^{-1/2} A M^{-1/2}, y = M^{1/2} v.  Every eigenproblem is solved on a
symmetric ``Tridiagonal`` T, by ``solve``, which returns the part of the
spectrum below a cutoff and proves it complete: it first counts the
eigenvalues below the cutoff exactly by a Sturm count on T, then computes
them (``dsterf`` for the whole spectrum, ``dstebz`` bisection for a part)
and refuses any result whose length differs from the count.  The pencil of
a path in path order has a tridiagonal S, which goes to it directly
(``fiber``); ``solve_below`` first reduces any other pencil densely to a T
orthogonally similar to S (LAPACK ``dsytrd``).  That dense reduction holds
n^2 floats: the level-7 gasket, n = 3282, takes 86 MB.  No eigenvector is
formed: the pipeline writes eigenvalues and multiplicities only.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
from scipy.linalg import lapack

from .errors import MisalignedMeshes, NoConvergence, NotPositiveMass
from .metric_graph import DiscreteOperator

@dataclass(frozen=True)
class Tridiagonal:
    """The symmetric tridiagonal matrix with diagonal ``diag`` and
    off-diagonal ``off``."""

    diag: np.ndarray
    off: np.ndarray

    @property
    def n(self) -> int:
        return len(self.diag)


@dataclass
class EigenPairs:
    """Eigenvalues sorted ascending and their proven count."""

    values: np.ndarray
    inertia_count: int  # N(lam_max) from the inertia of S - lam_max I


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


# -- solvers ----------------------------------------------------------------


def _mass_scaling(M: np.ndarray) -> np.ndarray:
    """M^{-1/2} of the mass diagonal M, which must be positive."""
    if np.any(M <= 0):
        raise NotPositiveMass("mass diagonal must be positive")
    return 1.0 / np.sqrt(M)


def _lapack_info(info: int, routine: str) -> None:
    if info != 0:
        raise NoConvergence(0, f"LAPACK {routine} returned info {info}")


def _tridiagonal(d: DiscreteOperator) -> Tridiagonal:
    """The tridiagonal T = Q^T S Q.

    S is formed densely and in place, in Fortran order so that ``dsytrd``
    reduces it in place too; an S that is already tridiagonal comes back
    bit for bit.
    """
    ms = _mass_scaling(d.M)
    S = d.A.toarray(order="F")
    S *= ms[:, None]
    S *= ms[None, :]
    return Tridiagonal(*_reduce(S))


def tridiagonal_form(a: np.ndarray, b: np.ndarray, M: np.ndarray) -> Tridiagonal:
    """S = M^{-1/2} A M^{-1/2} for the tridiagonal A with diagonal ``a`` and
    off-diagonal ``b``, with the bits that ``_tridiagonal`` gives it."""
    ms = _mass_scaling(M)
    return Tridiagonal((a * ms) * ms, (b * ms[1:]) * ms[:-1])


def _reduce(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK's ``dsytrd`` on the lower triangle of S, which it overwrites:
    the reduction of a values-only ``eigh``."""
    n = S.shape[0]
    if n <= 1:
        return S.diagonal().copy(), np.zeros(0)
    lwork, info = lapack.dsytrd_lwork(n, lower=1)
    _lapack_info(info, "dsytrd_lwork")
    _, diag, off, _, info = lapack.dsytrd(S, lower=1, lwork=int(lwork), overwrite_a=1)
    _lapack_info(info, "dsytrd")
    return diag, off


_SAFMIN = np.finfo(float).tiny
_ULP = np.finfo(float).eps


def _sturm_count(diag: np.ndarray, off: np.ndarray, cut: float) -> int:
    """Number of eigenvalues <= ``cut`` of the symmetric tridiagonal T.

    This is the number of pivots <= 0 of the LDL^T factorization of
    T - cut*I, taken as LAPACK's ``dstebz`` takes it: an off-diagonal entry
    negligible next to its two diagonal neighbours splits T, and a pivot
    smaller than ``pivmin`` in magnitude is replaced by -pivmin.  The count
    is backward stable (Kahan 1966), and by Sylvester's law of inertia it is
    the count of every matrix orthogonally similar to T.
    """
    if not len(diag):
        return 0
    e2 = off * off
    e2[np.abs(diag[1:] * diag[:-1]) * _ULP**2 + _SAFMIN > e2] = 0.0
    pivmin = _SAFMIN * max(1.0, float(e2.max(initial=0.0)))
    count = 0
    pivot = 1.0
    for d_j, e2_j in zip(diag.tolist(), [0.0, *e2.tolist()]):
        pivot = d_j - e2_j / pivot - cut
        if abs(pivot) < pivmin:
            pivot = -pivmin
        if pivot <= 0:
            count += 1
    return count


def _tridiagonal_values(diag: np.ndarray, off: np.ndarray, cut: float, count: int) -> np.ndarray:
    """The ``count`` eigenvalues of T up to ``cut``.

    The whole spectrum comes from ``dsterf`` (the bits of
    ``eigh(driver="ev")``): a value range sends LAPACK through bisection,
    which moves the last bits of a full spectrum.  A part of it comes from
    bisection over (-inf, cut] in ``dstebz`` (the bits of
    ``eigh(driver="evx", subset_by_value=...)``).
    """
    if count == len(diag):
        if count == 1:  # SciPy's dsterf wrapper refuses an empty off-diagonal
            return diag.copy()
        w, info = lapack.dsterf(diag, off)
        _lapack_info(info, "dsterf")
        return w
    # range 1 selects by value, tolerance 0 takes LAPACK's default, order "E"
    # sorts the values of all split blocks together
    m, w, _, _, info = lapack.dstebz(diag, off, 1, -np.inf, cut, 0, 0, 0.0, "E")
    _lapack_info(info, "dstebz")
    return w[:m]


def solve(t: Tridiagonal, lam_max: float) -> EigenPairs:
    """All eigenvalues <= lam_max of the symmetric tridiagonal t, proven
    complete.

    The exact count N(lam_max) comes first (``_sturm_count``), at the cut
    lam_max (1 + 1e-12), so that rounding drops no value on the cut.  When
    the count is 0 the empty result is returned without an eigensolver
    call; otherwise ``_tridiagonal_values`` returns the values.  A result
    whose length differs from the count (for instance one copy short of a
    repeated eigenvalue) raises NoConvergence instead of being returned.
    """
    cut = lam_max * (1 + 1e-12)
    count = _sturm_count(t.diag, t.off, cut)
    if count == 0:
        return EigenPairs(values=np.zeros(0), inertia_count=0)
    w = _tridiagonal_values(t.diag, t.off, cut, count)
    if len(w) != count:
        raise NoConvergence(0, f"{len(w)} eigenvalues <= {lam_max!r} found, inertia counts {count}")
    return EigenPairs(values=w, inertia_count=count)


def solve_below(d: DiscreteOperator, lam_max: float) -> EigenPairs:
    """All eigenvalues <= lam_max of the pencil d, proven complete: its
    dense tridiagonal reduction (``_tridiagonal``) solved by ``solve``."""
    return solve(_tridiagonal(d), lam_max)


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
    meta: dict | None = None,
) -> SpectrumList:
    """Gap-based multiplicity clustering of a sorted eigenvalue array.

    ``tags`` optionally assigns a label per raw eigenvalue; a cluster's tag
    lists the distinct labels with their counts.  ``meta`` becomes the
    list's ``meta``.  Gaps of at most
    ``rel_tol`` chain, so a run is also held to a width of at most
    ``rel_tol * max(1, |last value|)``; a wider run is a string of distinct
    close values, not copies of one, and raises ``NoConvergence``.
    """
    eigs = np.asarray(eigs, dtype=float)
    if np.any(np.diff(eigs) < 0):
        raise ValueError("input eigenvalues must be sorted")
    entries = []
    for i, j in gap_runs(eigs, rel_tol):
        if eigs[j - 1] - eigs[i] > rel_tol * max(1.0, abs(eigs[j - 1])):
            raise NoConvergence(0, f"{j - i} eigenvalues from {eigs[i]!r} to {eigs[j - 1]!r} "
                                   f"chain into one cluster wider than rel_tol {rel_tol!r}")
        val = float(np.mean(eigs[i:j]))
        if tags is not None:
            labels = {}
            for t in tags[i:j]:
                labels[t] = labels.get(t, 0) + 1
            tag = ";".join(f"{t}x{c}" for t, c in sorted(labels.items()))
        else:
            tag = ""
        entries.append(SpectrumEntry(val, j - i, tag))
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
