"""Generalized symmetric eigensolver and spectrum bookkeeping.

The lumped mass matrix is diagonal, so the pencil A v = lambda M v reduces
exactly to the standard symmetric problem S y = lambda y with
S = M^{-1/2} A M^{-1/2}, y = M^{1/2} v.  Every eigenproblem goes through
``solve_below``, which returns the part of the spectrum below a cutoff and
proves it complete: it first counts the eigenvalues below the cutoff
exactly, then computes them and refuses any result whose length differs
from the count.  A pencil of at most EIGSH_THRESHOLD unknowns is reduced
once to a tridiagonal T orthogonally similar to S (LAPACK ``dsytrd``); the
count is a Sturm count on T and the values come from T (``dsterf`` for the
whole spectrum, ``dstebz`` bisection for a part).  A larger pencil is
counted from the Sylvester inertia of a sparse LDL^T of S - lambda_max I and
solved by shift-invert ARPACK (``eigsh`` about a negative shift, started
from a seeded vector).  No eigenvector is formed: the pipeline writes
eigenvalues and multiplicities only.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import MisalignedMeshes, NoConvergence, NotPositiveMass
from .metric_graph import DiscreteOperator

DEFAULT_SEED = 20260826
#: solve_below counts and solves on the tridiagonal reduction up to this many
#: unknowns and takes the sparse count and shift-invert ARPACK above it; on
#: Laakso and string pencils LAPACK's subset solver and ARPACK break even
#: between n = 250 and 500, and ARPACK is 2-8x faster from n = 1000 on
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


def _mass_scaling(d: DiscreteOperator) -> np.ndarray:
    if np.any(d.M <= 0):
        raise NotPositiveMass("mass diagonal must be positive")
    return 1.0 / np.sqrt(d.M)


def _standard_form(d: DiscreteOperator):
    ms = _mass_scaling(d)
    return d.A.multiply(ms[:, None]).multiply(ms[None, :]).tocsr()


def _lapack_info(info: int, routine: str) -> None:
    if info != 0:
        raise NoConvergence(0, f"LAPACK {routine} returned info {info}")


def _tridiagonal(d: DiscreteOperator) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the tridiagonal T = Q^T S Q.

    S is formed densely and in place, with the bits of the sparse
    ``_standard_form``, in Fortran order so that ``dsytrd`` reduces it in
    place too.
    """
    ms = _mass_scaling(d)
    S = d.A.toarray(order="F")
    S *= ms[:, None]
    S *= ms[None, :]
    return _reduce(S)


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


def _count_below(S, cut: float) -> int:
    """Number of eigenvalues of the sparse symmetric matrix S up to ``cut``.

    Matrices of at most EIGSH_THRESHOLD rows are reduced to tridiagonal form
    and counted by Sturm sequence (``_sturm_count``).  Larger ones are
    counted by Sylvester's law of inertia from the negative pivots of an
    LDL^T factorization of S - cut*I: SuperLU in symmetric mode with
    diagonal pivoting only gives one (U = D L^T, the same permutation on
    rows and columns).  Without off-diagonal pivoting the factorization of
    an indefinite matrix is not backward stable: a pivot near zero can flip
    the signs of later ones.  So the pivots are trusted only when the
    permutation stayed symmetric and the smallest |pivot| is at least
    n*eps*||S - cut*I||_inf; otherwise the count is refused.
    """
    n = S.shape[0]
    if n <= EIGSH_THRESHOLD:
        return _sturm_count(*_reduce(S.toarray(order="F")), cut)
    shifted = (S - cut * sp.identity(n, format="csr")).tocsc()
    try:
        lu = spla.splu(
            shifted,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError:  # a zero pivot: the cut is on an eigenvalue, or the order is bad
        lu = None
    if lu is not None and np.array_equal(lu.perm_r, lu.perm_c):
        pivots = lu.U.diagonal()
        if np.abs(pivots).min() >= n * np.finfo(float).eps * spla.norm(shifted, np.inf):
            return int(np.count_nonzero(pivots < 0))
    raise NoConvergence(0, f"inertia count at {cut!r}: the sparse factorization of "
                           f"{n} rows is not trusted")


def solve_below(d: DiscreteOperator, lam_max: float, seed: int = DEFAULT_SEED) -> EigenPairs:
    """All eigenvalues <= lam_max, proven complete.

    The exact count N(lam_max) comes first.  A pencil of at most
    EIGSH_THRESHOLD unknowns is reduced to tridiagonal form once; the Sturm
    count and the values both come from that reduction.  A larger one is
    counted from the guarded sparse LDL^T of ``_count_below``.  When the
    count is 0 the empty result is returned without an eigensolver call;
    when it is n (lam_max bounds the spectrum) LAPACK returns the whole
    spectrum; otherwise small pencils take LAPACK's bisection below the cut
    and larger ones take ARPACK in shift-invert mode about a negative
    shift, started from a seeded vector and with k grown until exactly the
    counted number of values lie below the cut (pencils too small for that
    margin are reduced too).  A result whose length differs from the count
    (for instance one copy short of a repeated eigenvalue) raises
    NoConvergence instead of being returned.
    """
    n = d.n
    cut = lam_max * (1 + 1e-12)
    if n <= EIGSH_THRESHOLD:
        tri = _tridiagonal(d)
        count = _sturm_count(*tri, cut)
    else:
        S = _standard_form(d)
        count = _count_below(S, cut)
        tri = _tridiagonal(d) if 0 < count and count + EIGSH_MARGIN >= n else None
    if count == 0:
        return EigenPairs(values=np.zeros(0), inertia_count=0)
    w = _eigsh_below(S, cut, count, seed) if tri is None else _tridiagonal_values(*tri, cut, count)
    if len(w) != count:
        raise NoConvergence(0, f"{len(w)} eigenvalues <= {lam_max!r} found, inertia counts {count}")
    return EigenPairs(values=w, inertia_count=count)


def _eigsh_below(S, cut: float, count: int, seed: int) -> np.ndarray:
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
            w = spla.eigsh(S, k, sigma=sigma, which="LM", v0=v0, return_eigenvectors=False)
        except spla.ArpackNoConvergence:
            pass
        else:
            w = np.sort(w)
            if np.count_nonzero(w <= cut) == count and w[-1] > cut:
                return w[:count]
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
