"""The dense eigensolver route and the gap clustering it needs, kept as the
reference that the package's closed forms and exact merge are held to.

The package takes every spectrum in closed form and merges equal values
(``fiber._cluster_levels``); no run calls an eigensolver.  This module keeps
the route it took before:

- the general metric graph (``MetricGraph``), the level-0 graph that a
  path family stands for (``path_graph``) and the kernels of its walk
  (``walk_kernels``);
- the vertex pencil of a metric graph (``graph_operator``: the weighted
  Laplacian with its degrees as the lumped mass, held as NumPy CSR arrays
  in a ``DiscreteOperator``);
- ``solve_below``: the values of a pencil A v = lambda M v below a cut,
  from ``numpy.linalg.eigvalsh`` on the dense standard form
  S = M^{-1/2} A M^{-1/2}, and a pencil invariant under the six symmetries
  of the gasket (the group D3) split into the A1, A2 and E blocks of its
  symmetry-adapted basis (Bajorin et al., "Vibration modes of 3n-gaskets
  and other fractals", J. Phys. A, 2008);
- the gasket graphs of levels 0..m from one array subdivision pass
  (``gasket_levels``), their D3 maps (``d3_maps``), and the whole gasket
  solved in its D3 blocks (``gasket_graph_spectrum``, ``dirichlet_chain``);
- the gap clustering of values that a dense solve gives a few units in the
  last place apart (``gap_cluster``, ``gap_runs``, ``cluster_levels``).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, replace
from numbers import Real

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from fractal_spectra.eigensolve import SpectrumEntry, SpectrumList
from fractal_spectra.errors import FractalSpectraError, NoConvergence
from fractal_spectra.fiber import LevelFamily
from fractal_spectra.metric_graph import DIRICHLET, SPECTRAL_BOUND

#: relative tolerance for the rational-pitch divisibility rule and for
#: mass-conservation checks
REL_TOL = 1e-12


class NotPositiveMass(FractalSpectraError):
    """Mass matrix has a non-positive diagonal entry."""


# -- graphs -------------------------------------------------------------------


class MetricGraph:
    """Weighted metric graph (multigraph; parallel edges allowed), held as
    lists, with no checks of its own: ``family_reference.validate`` checks
    the loop-built graphs.

    Edge k joins vertices ``ends[k][0]`` and ``ends[k][1]``; it has length
    ``length[k]`` and measure density ``weight[k]`` (a scalar length or
    weight applies to every edge).  ``labels`` names the vertices, a number
    or a tuple of numbers each; ``dirichlet`` marks the Dirichlet vertices.
    """

    def __init__(self, labels, ends, length, weight, dirichlet=None):
        self.labels = [tuple(row) if isinstance(row, Iterable) else row for row in labels]
        self.ends = [(int(u), int(v)) for u, v in ends]
        self.length = _per_edge(length, len(self.ends))
        self.weight = _per_edge(weight, len(self.ends))
        self.dirichlet = ([False] * self.n_vertices if dirichlet is None
                          else [bool(x) for x in dirichlet])

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    def total_measure(self) -> float:
        return math.fsum(l * w for l, w in zip(self.length, self.weight))


def _per_edge(value, n_edges: int) -> list[float]:
    """A length or weight for each of ``n_edges`` edges: a number for all of
    them, or one number each."""
    return [float(value)] * n_edges if isinstance(value, Real) else [float(x) for x in value]


def path_graph(family: LevelFamily) -> MetricGraph:
    """The level-0 graph that a path family stands for: the vertices of its
    ``base`` in order, edge k joining k and k + 1, every edge of its length
    and weight 1, and an end a Dirichlet vertex where the one run of level
    0, the path less its Dirichlet vertices, has no free end."""
    n = family.base.n_vertices
    (key,), _ = family.runs[0]
    return MetricGraph(range(n), [(k, k + 1) for k in range(n - 1)], family.base.length, 1.0,
                       [v == 0 and not key & 2 or v == n - 1 and not key & 1 for v in range(n)])


def walk_kernels(g: MetricGraph) -> tuple[int, int]:
    """dim ker(P - I) and dim ker(P + I) for the walk P = I - M^{-1} A of
    the vertex pencil of the connected graph g with its Dirichlet vertices
    eliminated.

    A vector in either kernel has one |x| over g and vanishes next to an
    eliminated vertex, so with one eliminated both are 0.  Otherwise they
    hold the constants and the +-1 colourings, which exist when g is
    bipartite: when its double cover (u, v'), (u', v) has two components.
    """
    if any(g.dirichlet):
        return 0, 0
    n = g.n_vertices
    u, v = np.asarray(g.ends, dtype=np.int64).reshape(-1, 2).T
    cover = sp.coo_matrix((np.ones(2 * len(u)), (np.r_[u, u + n], np.r_[v + n, v])),
                          shape=(2 * n, 2 * n))
    return 1, int(connected_components(cover, directed=False)[0] == 2)


# -- pencils ------------------------------------------------------------------


@dataclass
class DiscreteOperator:
    """Stiffness/lumped-mass pencil (A, M) for A v = lambda M v.

    A is held as CSR arrays: row i has the entries
    ``data[indptr[i]:indptr[i + 1]]`` in the columns
    ``indices[indptr[i]:indptr[i + 1]]``, ascending, each column once.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    M: np.ndarray  # diagonal of the mass matrix
    kept_vertices: np.ndarray | None = None  # graph vertex of each row (graph_operator only)

    @property
    def n(self) -> int:
        return len(self.M)

    def rows(self) -> np.ndarray:
        """The row of each entry."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))


def _node_numbers(drop: np.ndarray) -> np.ndarray:
    """Consecutive numbers for the entries not dropped, -1 for dropped ones."""
    return np.where(drop, -1, np.cumsum(~drop) - 1)


def _laplacian(n: int, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> DiscreteOperator:
    """Weighted Laplacian of the node pairs (a[k], b[k]) with conductances
    c[k], where -1 marks an eliminated node whose couplings reach only the
    diagonal, with its diagonal as the mass.

    ``np.add.at`` sums the diagonal in index order, pair by pair and a
    before b, so the bits are those of a loop over the pairs.  The entries
    are sorted stably by row and column, the copies of a parallel edge
    summed in pair order and the diagonal added last, and an entry that
    sums to 0 is dropped: the CSR arrays of SciPy's
    ``(off.tocsr() + diags(diag)).tocsr()`` for the COO matrix ``off`` of
    the off-diagonal entries in pair order, bit for bit wherever a row has
    at most 16 entries before summing (SciPy sorts a longer row with an
    unstable sort, so the copies of a parallel edge can sum in another
    order there).
    """
    tips = np.stack([a, b], axis=1).ravel()
    conductance = np.repeat(c, 2)
    live = tips >= 0
    diag = np.zeros(n)
    np.add.at(diag, tips[live], conductance[live])
    both = (a >= 0) & (b >= 0)
    node = np.arange(n)
    rows = np.concatenate([np.stack([a[both], b[both]], axis=1).ravel(), node])
    cols = np.concatenate([np.stack([b[both], a[both]], axis=1).ravel(), node])
    order = np.argsort(rows * n + cols, kind="stable")
    rows, cols = rows[order], cols[order]
    first = (np.diff(rows, prepend=-1) != 0) | (np.diff(cols, prepend=-1) != 0)
    data = np.bincount(np.cumsum(first) - 1, np.r_[-np.repeat(c[both], 2), diag][order])
    data = data.astype(float, copy=False)  # bincount of nothing is int64
    keep = data != 0
    indptr = np.r_[0, np.cumsum(np.bincount(rows[first][keep], minlength=n))]
    return DiscreteOperator(data[keep], cols[first][keep], indptr, diag)


def graph_operator(g: MetricGraph, boundary: str | None = None) -> DiscreteOperator:
    """Weighted graph-Laplacian pencil on the vertices of g.

    A is the weighted combinatorial Laplacian (edge lengths ignored), M the
    weighted degree, so the pencil eigenvalues are those of the probabilistic
    Laplacian I - D^{-1}W.

    ``boundary`` overrides vertex markings: "dirichlet" eliminates all marked
    vertices, None keeps everything (Neumann).
    """
    drop = np.asarray(g.dirichlet) & (boundary == DIRICHLET)
    pos = _node_numbers(drop)
    ends = np.asarray(g.ends, dtype=np.int64).reshape(-1, 2)
    op = _laplacian(int(np.count_nonzero(~drop)), pos[ends[:, 0]], pos[ends[:, 1]],
                    np.asarray(g.weight))
    return replace(op, kept_vertices=np.flatnonzero(~drop))


# -- the dense solve ------------------------------------------------------------


@dataclass
class EigenPairs:
    """Eigenvalues sorted ascending."""

    values: np.ndarray


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
        raise NoConvergence(f"{finite} finite eigenvalues of a matrix of order {len(S)}")
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
    twice."""
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


# -- gap clustering ---------------------------------------------------------------


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


def gap_cluster(eigs, rel_tol: float = 1e-7, origin: str = "numeric",
                truncation: float = np.inf, pitch: float | None = None, tags=None,
                counts=None) -> SpectrumList:
    """Gap-based multiplicity clustering of a sorted eigenvalue array, each
    value counted ``counts`` times (positive integers; once each by
    default); the other arguments are those of ``eigensolve.cluster``.

    Gaps of at most ``rel_tol`` chain, so a run is also held to a width of
    at most ``rel_tol * max(1, |last value|)``; a wider run is a string of
    distinct close values, not copies of one, and raises ``NoConvergence``.

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
            raise NoConvergence(f"{j - i} eigenvalues from {eigs[i]!r} to {eigs[j - 1]!r} "
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
    return SpectrumList(entries=entries, origin=origin, truncation=truncation, pitch=pitch)


def cluster_levels(new: list[tuple[np.ndarray, np.ndarray]], origin: str,
                   **cluster_kw) -> list[SpectrumList]:
    """``fiber._cluster_levels`` with ``gap_cluster`` in place of the exact
    merge: level i's spectrum from the values and counts ``new[0..i]``,
    new[0] tagged "base" and new[k] "new@k", values of count 0 left out."""
    values, counts, tags, out = np.zeros(0), np.zeros(0, dtype=np.int64), [], []
    for level, (fresh, copies) in enumerate(new):
        listed = copies > 0
        values = np.concatenate([values, fresh[listed]])
        counts = np.concatenate([counts, copies[listed]])
        tags += ["base" if level == 0 else f"new@{level}"] * int(np.count_nonzero(listed))
        order = np.argsort(values, kind="stable")
        out.append(gap_cluster(values[order], counts=counts[order], origin=origin.format(level),
                               tags=[tags[k] for k in order], **cluster_kw))
    return out


# -- the gasket -------------------------------------------------------------------

# corners of the gasket as (x, y / sqrt(3)) times 2, the scale of level 0
_CORNERS = [(0, 0), (2, 0), (1, 1)]


@dataclass
class GasketGraph:
    """Level-m cell graph of the Sierpinski gasket.

    ``points[i]`` is (x, y/sqrt(3)) times 2^(m+1), exact integers;
    ``birth[i]`` is the level at which the vertex first appears (corners
    have birth 0); ``edges`` are (u, v) index rows in sorted order.
    """

    level: int
    points: np.ndarray
    birth: np.ndarray
    edges: np.ndarray

    @property
    def n_vertices(self) -> int:
        return len(self.points)


def gasket_levels(m: int) -> list[GasketGraph]:
    """Gaskets of levels 0..m from one midpoint-subdivision pass; level k's
    points (at its own scale) and births are the first entries of level m's.

    Every cell (a, b, c) gives the midpoints of ab, bc and ca and the cells
    (a, ab, ca), (ab, b, bc), (ca, bc, c); a midpoint is numbered where it
    first appears in that cell order."""
    if m < 0:
        raise ValueError("gasket level must be >= 0")
    points = np.array(_CORNERS, dtype=np.int64)
    birth = np.zeros(3, dtype=np.int64)
    cells = np.array([[0, 1, 2]], dtype=np.int64)

    def graph(lvl):
        edges = np.stack([cells, np.roll(cells, -1, axis=1)], axis=2).reshape(-1, 2)
        edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
        return GasketGraph(level=lvl, points=points, birth=birth, edges=edges)

    out = [graph(0)]
    for lvl in range(1, m + 1):
        points = 2 * points  # the scale of level lvl, where every midpoint is whole
        corner = points[cells]
        mids = ((corner + np.roll(corner, -1, axis=1)) // 2).reshape(-1, 2)
        key = mids[:, 0] * (2 ** (lvl + 1) + 1) + mids[:, 1]
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        ab, bc, ca = (len(points) + rank[inverse.ravel()]).reshape(-1, 3).T
        a, b, c = cells.T
        cells = np.stack([a, ab, ca, ab, b, bc, ca, bc, c], axis=1).reshape(-1, 3)
        points = np.concatenate([points, mids[np.sort(first)]])
        birth = np.concatenate([birth, np.full(len(first), lvl)])
        out.append(graph(lvl))
    return out


def build_gasket(m: int) -> GasketGraph:
    """Vertices and edges of the level-m gasket via midpoint subdivision."""
    return gasket_levels(m)[-1]


def gasket_graph(g: GasketGraph, boundary: str | None = None) -> MetricGraph:
    """The graph of g, the corners marked Dirichlet when ``boundary`` is
    "dirichlet"."""
    return MetricGraph(np.arange(g.n_vertices), g.edges, 1.0, 1.0,
                       (g.birth == 0) & (boundary == DIRICHLET))


#: the six symmetries of the gasket as permutations of the barycentric
#: coordinates, in the order e, r, r^2, s, rs, r^2 s of ``solve_below``:
#: r cycles the corners, s swaps the first two
_D3_PERMUTATIONS = ((0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0))


def d3_maps(g: GasketGraph) -> np.ndarray:
    """The six symmetries of the gasket (the group D3) as a (6, n) array of
    vertex maps, row g taking vertex v to ``maps[g, v]``.

    A point (x, u) of level m has the integer barycentric coordinates
    (W - x - u, x - u, 2u), W = 2^(m+1); a symmetry permutes them, and
    ``searchsorted`` on the key x (W + 1) + u finds the image's index.  Each
    map preserves the edges and the births, so also every Dirichlet piece of
    the pâte à choux, and the rotations fix no vertex (none lies at the
    centroid)."""
    w = 2 ** (g.level + 1)
    x, u = g.points.T
    bary = np.stack([w - x - u, x - u, 2 * u])
    key = x * (w + 1) + u
    order = np.argsort(key)
    maps = []
    for perm in _D3_PERMUTATIONS:
        b = bary[list(perm)]
        image = (b[1] + b[2] // 2) * (w + 1) + b[2] // 2
        maps.append(order[np.searchsorted(key, image, sorter=order)])
    return np.stack(maps)


def gasket_graph_spectrum(g: GasketGraph, boundary: str | None = None) -> SpectrumList:
    """Probabilistic graph-Laplacian spectrum of the level-m gasket.

    ``boundary="dirichlet"`` removes the three corner points.  The whole
    spectrum is solved, split by the symmetries of the gasket
    (``d3_maps``), and gap-clustered.
    """
    op = graph_operator(gasket_graph(g, boundary), boundary)
    maps = np.searchsorted(op.kept_vertices, d3_maps(g)[:, op.kept_vertices])
    return gap_cluster(solve_below(op, SPECTRAL_BOUND, maps).values,
                       origin=f"numeric(gasket,m={g.level})", truncation=np.inf)


def dirichlet_chain(levels: list[GasketGraph]) -> list[SpectrumList]:
    """The Dirichlet spectra of the gaskets ``levels[1:]``, of levels 1..m
    from one ``gasket_levels`` pass, each solved whole in its D3 blocks
    (``gasket_graph_spectrum``)."""
    return [gasket_graph_spectrum(g, DIRICHLET) for g in levels[1:]]
