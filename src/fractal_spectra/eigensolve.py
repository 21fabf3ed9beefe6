"""Generalized symmetric eigensolver and spectrum bookkeeping.

The lumped mass matrix is diagonal, so the pencil A v = lambda M v reduces
exactly to the standard symmetric problem S y = lambda y with
S = M^{-1/2} A M^{-1/2}, y = M^{1/2} v.  Every eigenproblem that reaches
this module goes through one LAPACK solver, ``numpy.linalg.eigvalsh``
(``dsyevd``: the ``dsytrd`` reduction to a tridiagonal T, then
``dsterf``), in ``solve_below``, on a dense S, and keeps the values below
a cutoff; the count is the number of them, of n values that must all come
back finite.  The pieces of every level family have their values in
closed form and never come here: the runs of a path base (the Laakso
space and the strings, ``fiber._run_values``) and the pâte à choux pieces,
by spectral decimation (``gasket._piece_spectrum``).  The whole gaskets
do (``gasket.gasket_graph_spectrum``, and the decimation chain that checks
that decimation).  S is dense, n^2 floats: the level-7 gasket, n = 3282,
would take 86 MB.  A pencil
invariant under the six symmetries of the gasket (the group D3, given as
vertex maps) is solved as the three blocks of its symmetry-adapted basis,
A1, A2 and E; E's values count twice, and its block, about (n/3)^2
floats, is the largest array: the level-7 gasket takes 9.6 MB.  No
eigenvector is formed: the pipeline writes eigenvalues and multiplicities
only.  Clustering takes each value with its count, so copies of a value
are never listed one by one.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import MisalignedMeshes, NoConvergence, NotPositiveMass
from .metric_graph import DiscreteOperator


@dataclass
class EigenPairs:
    """Eigenvalues sorted ascending."""

    values: np.ndarray


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


# -- solvers ----------------------------------------------------------------


def _mass_scaling(M: np.ndarray) -> np.ndarray:
    """M^{-1/2} of the mass diagonal M, which must be positive."""
    if np.any(M <= 0):
        raise NotPositiveMass("mass diagonal must be positive")
    return 1.0 / np.sqrt(M)


def _standard_form(d: DiscreteOperator) -> np.ndarray:
    """The dense S = M^{-1/2} A M^{-1/2}, entry (A_ij m_i) m_j with
    m = M^{-1/2}."""
    ms = _mass_scaling(d.M)
    rows = d.rows()
    S = np.zeros((d.n, d.n))
    S[rows, d.indices] = (d.data * ms[rows]) * ms[d.indices]
    return S


def _values_below(S: np.ndarray, cut: float) -> np.ndarray:
    """The eigenvalues <= ``cut`` of the symmetric S, from its lower
    triangle, ascending: ``numpy.linalg.eigvalsh``, which is LAPACK's
    ``dsyevd``, the ``dsytrd`` reduction to a tridiagonal T and ``dsterf``
    on T.  All n values must come back finite."""
    w = np.linalg.eigvalsh(S)
    finite = np.count_nonzero(np.isfinite(w))
    if finite != len(S):
        raise NoConvergence(0, f"{finite} finite eigenvalues of a matrix of order {len(S)}")
    return w[w <= cut]


#: D3 = <r, s>, r a third of a turn and s a reflection, in the order of a
#: ``maps`` array: e, r, r^2, s, rs, r^2 s.  ``_A2`` is its sign character;
#: ``_E_ROW[g]`` is the second row of the matrix of g in its 2-dimensional
#: irreducible representation E, with r a rotation and s = diag(-1, 1)
_A2 = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
_H = np.sqrt(3.0) / 2
_E_ROW = np.array([[0.0, 1.0], [_H, -0.5], [-_H, -0.5], [0.0, 1.0], [-_H, -0.5], [_H, -0.5]])


def _symmetry_blocks(maps: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """The orthonormal symmetry-adapted basis of a D3 action whose rotations
    fix no vertex, as (col, coef, size) for the blocks A2, A1 and E, in
    order of size: basis vector ``col[v, t]`` of a block has the entry
    ``coef[v, t]`` at vertex v.

    A vertex orbit, represented by its smallest vertex v0, has 6 or 3
    points.  A1 takes the sum of the orbit's points and A2 the sum
    of g v0 weighted by the sign of g, which cancels on a 3-orbit (a
    reflection fixes v0).  E takes the range of the projector
    (1/3) sum_g E(g)_22 R_g on each orbit: the vectors
    sum_g E(g)_2j e_{g v0}, j = 1, 2, on a 6-orbit, and for j = 2 alone on a
    3-orbit, where the two are parallel and the j = 2 one is not zero.  Each
    vector lives on one orbit and is normalized there.
    """
    n = maps.shape[1]
    lowest = maps.min(axis=0)  # the smallest vertex of each vertex's orbit
    reps = np.flatnonzero(lowest == np.arange(n))
    orbit = np.searchsorted(reps, lowest)
    points = maps[:, reps]
    six = np.all(points[3:] != points[0], axis=0)  # no reflection fixes the representative
    rank_six = np.cumsum(six) - 1

    def vector(weights, keep):
        """Per-vertex entries of sum_g weights[g] e_{g v0}, normalized on
        each orbit in ``keep``, 0 on the others."""
        x = np.bincount(points.ravel(), np.repeat(weights, len(reps)), n)
        norm = np.sqrt(np.bincount(orbit, x * x, len(reps)))
        return np.where(keep[orbit], x / np.where(keep, norm, 1.0)[orbit], 0.0)

    everywhere = np.ones(len(reps), dtype=bool)
    on_six = six[orbit]
    e_col = np.stack([orbit, np.where(on_six, len(reps) + rank_six[orbit], 0)], axis=1)
    e_coef = np.stack([vector(_E_ROW[:, 1], everywhere), vector(_E_ROW[:, 0], six)], axis=1)
    return [(np.where(on_six, rank_six[orbit], 0)[:, None], vector(_A2, six)[:, None],
             int(six.sum())),
            (orbit[:, None], vector(np.ones(6), everywhere)[:, None], len(reps)),
            (e_col, e_coef, len(reps) + int(six.sum()))]


def _symmetric_values(d: DiscreteOperator, maps: np.ndarray, cut: float) -> EigenPairs:
    """``solve_below`` of a pencil invariant under the D3 action ``maps``:
    Q^T S Q block by block, from the entries of the sparse S, the values
    <= ``cut`` of each block from ``_values_below``; E's values count
    twice.

    The blocks go smallest first.  On a 2-CPU machine with two OpenBLAS
    threads, some processes take 12-17 ms for every solve of about 80-160
    unknowns, against 0.5-0.9 ms: with SciPy's reduction, 8 of 262 fresh
    processes whose first reduction was E's (122 unknowns, the level-5
    gasket) and 2 of 330 with the single-threaded A2 and A1 first; with
    ``eigvalsh``, 1 of 100."""
    ms = _mass_scaling(d.M)
    rows, cols = d.rows(), d.indices
    entries = (d.data * ms[rows]) * ms[cols]  # the bits of _standard_form's S
    values = []
    for copies, (col, coef, k) in zip((1, 1, 2), _symmetry_blocks(maps)):
        if not k:
            continue
        at = (col[rows][:, :, None] * k + col[cols][:, None, :]).ravel()
        block = np.bincount(at, (coef[rows][:, :, None] * entries[:, None, None]
                                 * coef[cols][:, None, :]).ravel(), k * k).reshape(k, k)
        values += [_values_below(block.T, cut)] * copies
    return EigenPairs(values=np.sort(np.concatenate(values)))


def solve_below(d: DiscreteOperator, lam_max: float, maps: np.ndarray | None = None) -> EigenPairs:
    """All eigenvalues <= lam_max of the pencil d: the values of its dense
    standard form (``_standard_form``, n^2 floats) up to the cut
    lam_max (1 + 1e-12), from ``_values_below``.  The count is the number
    of values at most the cut, of n values that all came back finite.

    ``maps``, a (6, n) array whose rows are vertex maps g -> g[v] of the
    group D3 in the order of ``_A2``, each an automorphism of d
    (``A[g][:, g] == A`` and ``M[g] == M``), the rotations fixing no
    vertex, splits S into the A1, A2 and E blocks of the symmetry-adapted
    basis (``_symmetry_blocks``): E, about n/3 unknowns, is solved once
    and counts twice, and no n x n array is formed."""
    cut = lam_max * (1 + 1e-12)
    if maps is not None:
        return _symmetric_values(d, maps, cut)
    return EigenPairs(values=_values_below(_standard_form(d), cut))


# -- bookkeeping --------------------------------------------------------------


def _run_bounds(v: np.ndarray, rtol: float) -> tuple[np.ndarray, np.ndarray]:
    """The (start, stop) arrays of ``gap_runs``."""
    joins = v[1:] - v[:-1] <= rtol * np.maximum(1.0, np.abs(v[1:]))
    breaks = (~joins).nonzero()[0] + 1
    return np.concatenate(([0], breaks)), np.concatenate((breaks, [len(v)]))


def gap_runs(values, rtol: float) -> list[tuple[int, int]]:
    """(start, stop) index runs of a sorted array: a value joins the run of
    its predecessor when v[j] - v[j-1] <= rtol * max(1, |v[j]|)."""
    v = np.asarray(values, dtype=float)
    if not len(v):
        return []
    return list(zip(*(b.tolist() for b in _run_bounds(v, rtol))))


def cluster(
    eigs,
    rel_tol: float = 1e-7,
    origin: str = "numeric",
    truncation: float = np.inf,
    pitch: float | None = None,
    tags=None,
    meta: dict | None = None,
    counts=None,
) -> SpectrumList:
    """Gap-based multiplicity clustering of a sorted eigenvalue array, each
    value counted ``counts`` times (positive integers; once each by
    default).

    ``tags`` optionally assigns a label per value; a cluster's tag lists
    the distinct labels with their counts.  ``meta`` becomes the list's
    ``meta``.  Gaps of at most ``rel_tol`` chain, so a run is also held to
    a width of at most ``rel_tol * max(1, |last value|)``; a wider run is a
    string of distinct close values, not copies of one, and raises
    ``NoConvergence``.

    A cluster's multiplicity is the sum of its counts c_i, and its value
    is v_0 + sum c_i (v_i - v_0) / sum c_i over its values v_i, v_0 the
    first, the sum taken in order: a run of bit-identical values gives
    exactly that value.
    """
    eigs = np.asarray(eigs, dtype=float)
    counts = np.ones(len(eigs), dtype=np.int64) if counts is None else np.asarray(counts)
    if (eigs[1:] < eigs[:-1]).any():
        raise ValueError("input eigenvalues must be sorted")
    entries = []
    if len(eigs):
        start, stop = _run_bounds(eigs, rel_tol)
        last = eigs[stop - 1]
        wide = last - eigs[start] > rel_tol * np.maximum(1.0, np.abs(last))
        if wide.any():
            k = int(wide.argmax())
            i, j = int(start[k]), int(stop[k])
            raise NoConvergence(0, f"{j - i} eigenvalues from {eigs[i]!r} to {eigs[j - 1]!r} "
                                   f"chain into one cluster wider than rel_tol {rel_tol!r}")
        run = np.repeat(np.arange(len(start)), stop - start)
        mult = np.add.reduceat(counts, start)
        values = eigs[start] + np.bincount(run, counts * (eigs - eigs[start[run]]),
                                           len(start)) / mult
        labels = [""] * len(start)
        if tags is not None:
            names = sorted(set(tags))
            code = dict(zip(names, range(len(names))))
            table = np.bincount(run * len(names) + np.array([code[t] for t in tags], dtype=np.int64),
                                counts, len(start) * len(names))
            table = table.astype(np.int64).reshape(len(start), len(names))
            run, tag = np.nonzero(table)
            texts = [f"{names[t]}x{c}" for t, c in zip(tag.tolist(), table[run, tag].tolist())]
            cuts = [0, *((run[1:] != run[:-1]).nonzero()[0] + 1).tolist(), len(texts)]
            labels = [";".join(texts[a:b]) for a, b in zip(cuts, cuts[1:])]
        entries = [SpectrumEntry(*e) for e in zip(values.tolist(), mult.tolist(), labels)]
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
