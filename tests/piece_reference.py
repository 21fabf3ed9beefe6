"""The dense piece route: the spectra of the Dirichlet pieces of a level
family, each piece assembled, split into its connected components and
solved densely by ``dense_reference.solve_below``.  It is the reference for the closed
forms that ``fiber`` takes instead: the path runs (``fiber._run_values``)
and the pâte à choux pieces, by spectral decimation
(``gasket._piece_spectrum``).

The pieces are listed as (marks, copies) rows (``binary_pieces``: one per
birth set).  The pieces of a level are assembled as one disjoint union and
split into connected components by label propagation over the CSR arrays
of its pencil; each distinct component is solved once.  A base with the
six symmetries of the gasket (``dense_reference.d3_maps``) has pieces
that they carry onto themselves, so the components of a piece fall into
orbits: one component per orbit is solved, counted orbit size times, and
a component that is its own orbit is split into its symmetry blocks.
The levels are gap-clustered (``dense_reference.cluster_levels``).
``equilateral_spectrum`` applies the Chebyshev map of
``mesh_reference.EquilateralMesh`` to any graph whose edges all have one
length, its vertex values from this route; the package takes the mesh
values of its paths from their refined runs instead.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

import dense_reference
from dense_reference import (
    DiscreteOperator,
    MetricGraph,
    _laplacian,
    _node_numbers,
    solve_below,
    walk_kernels,
)
from fractal_spectra import fiber, gasket
from fractal_spectra.eigensolve import SpectrumList
from fractal_spectra.metric_graph import SPECTRAL_BOUND


def binary_pieces(birth, depth: int) -> list[list[tuple[np.ndarray, int]]]:
    """The pieces of levels 1..depth of a base graph times the binary fibers
    {0,1}^l, fiber coordinate b collapsed at the vertices born at level b
    (``birth[v]``, 0 for a vertex never collapsed), as (marks, copies)
    rows: level l has a piece for each of the 2^(l-1) sets S in {1..l} with
    max S = l, marking the vertices born at a level in S, once.  A set is a
    bit mask, bit b - 1 standing for level b."""
    birth = np.asarray(birth, dtype=np.int64)
    bit = np.where(birth >= 1, np.left_shift(1, np.maximum(birth - 1, 0)), 0)
    return [[((bit & (s | 1 << (level - 1))) != 0, 1) for s in range(1 << (level - 1))]
            for level in range(1, depth + 1)]


def _distinct_components(op: DiscreteOperator, copies: np.ndarray,
                         images: np.ndarray | None = None):
    """Yield (key, count, maps) for each distinct connected component of the
    pencil ``op``.  The key is the component's size n, its number of
    entries z, its CSR data, indices and indptr and its masses, as the bytes
    of one int64 row (the floats as their bits); ``count`` sums ``copies``,
    given per row, over the first rows of the components equal to it.

    ``images``, when given, holds the rows that six maps forming D3 send
    each row to, maps that permute the components among themselves.  Then
    each orbit of components is keyed once, on the component holding its
    smallest row, with ``copies`` times the orbit's size; a component that
    is its own orbit comes with its ``maps`` in its own numbering (for
    ``solve_below``), any other with None.

    The rows are permuted component by component, so each component's rows
    are a contiguous run whose columns stay inside the run, and a component
    is a slice of the CSR arrays; within a component the order is
    ascending, so every row keeps its column order.
    """
    if not op.n:
        return
    u, v = op.rows(), op.indices
    coupled = u < v  # each coupling once
    # numbered in the order of their smallest rows
    n_comp, labels = connected_components(
        sp.coo_matrix((np.ones(np.count_nonzero(coupled)), (u[coupled], v[coupled])),
                      shape=(op.n, op.n)), directed=False)
    order = np.argsort(labels, kind="stable")
    place = np.empty_like(order)
    place[order] = np.arange(op.n)
    length = np.diff(op.indptr)[order]
    indptr = np.r_[0, np.cumsum(length)]
    source = np.repeat(op.indptr[order] - indptr[:-1], length) + np.arange(indptr[-1])
    data, indices = op.data[source], place[op.indices[source]]
    M, copies = op.M[order], copies[order]
    sizes = np.bincount(labels, minlength=n_comp)
    stop = np.cumsum(sizes)
    start = stop - sizes
    weight, keep, local = copies[start], np.ones(n_comp, dtype=bool), {}
    if images is not None:
        first = order[start]  # the smallest row of each component
        orbit = labels[images[:, first]]
        keep = first[orbit].min(axis=0) == first
        size = 1 + np.count_nonzero(np.diff(np.sort(orbit, axis=0), axis=0), axis=0)
        weight = weight * size
        for c in np.flatnonzero(size == 1).tolist():
            rows = order[start[c]:stop[c]]
            local[c] = np.searchsorted(rows, images[:, rows])
    lo = indptr[start]
    nnz = indptr[stop] - lo
    for n, z in sorted(set(zip(sizes[keep].tolist(), nnz[keep].tolist()))):
        k = np.flatnonzero(keep & (sizes == n) & (nnz == z))
        entries, nodes = lo[k, None] + np.arange(z), start[k, None] + np.arange(n + 1)
        rows = np.concatenate([np.tile([n, z], (len(k), 1)), data.view(np.int64)[entries],
                               indices[entries] - start[k, None], indptr[nodes] - lo[k, None],
                               M.view(np.int64)[nodes[:, :-1]]], axis=1)
        keys, index, inverse = np.unique(rows.view(np.dtype((np.void, rows.shape[1] * 8))).ravel(),
                                         return_index=True, return_inverse=True)
        counts = np.bincount(inverse, weight[k], len(keys)).astype(np.int64)
        yield from zip(keys.tolist(), counts.tolist(), [local.get(c) for c in k[index].tolist()])


def _pencil(key: bytes) -> DiscreteOperator:
    """The pencil of a ``_distinct_components`` key."""
    row = np.frombuffer(key, dtype=np.int64)
    n, z = row[:2]
    data, indices, indptr, M = np.split(row[2:], [z, 2 * z, 2 * z + n + 1])
    return DiscreteOperator(data.view(np.float64), indices, indptr, M.view(np.float64))


def _components(base: MetricGraph, maps: np.ndarray | None, drop: np.ndarray,
                copies: np.ndarray):
    """``_distinct_components`` of the pieces of ``base`` whose eliminated
    vertices are the rows of ``drop``, each with its ``copies``, assembled
    as one disjoint union; with the D3 ``maps`` of ``base``, one component
    per orbit."""
    n = base.n_vertices
    pos = _node_numbers(drop.ravel())
    offset = n * np.arange(len(drop))[:, None]
    ends = (offset[:, :, None] + base.ends).reshape(-1, 2)
    op = _laplacian(int(np.count_nonzero(~drop)), pos[ends[:, 0]], pos[ends[:, 1]],
                    np.tile(base.weight, len(drop)))
    images = None
    if maps is not None:
        images = (offset + maps[:, None, :]).reshape(len(maps), -1)
        images = pos[images[:, ~drop.ravel()]]
    return _distinct_components(op, np.repeat(copies, n)[~drop.ravel()], images)


def component_values(base: MetricGraph, pieces, cut: float, maps: np.ndarray | None = None):
    """``fiber._level_values`` of the family of ``base`` (level 0) and the
    (marks, copies) ``pieces`` of levels 1..n, by the dense piece route:
    the eigenvalues <= ``cut`` new at each level as (values, counts), and
    the number of kept vertices of each level.  Each distinct component is
    solved once per call."""
    solved: dict[bytes, np.ndarray] = {}
    new, kept, size = [], [], 0
    for level in [[(np.zeros(base.n_vertices, dtype=bool), 1)], *pieces]:
        marks, copies = zip(*level)
        drop = base.dirichlet | np.stack(marks)
        copies = np.asarray(copies)
        size += int(copies @ np.count_nonzero(~drop, axis=1))
        parts = []
        for key, count, local in _components(base, maps, drop, copies):
            if key not in solved:
                solved[key] = solve_below(_pencil(key), cut, local).values
            parts.append((solved[key], count))
        new.append((np.concatenate([np.zeros(0), *(values for values, _ in parts)]),
                    np.concatenate([np.zeros(0, dtype=np.int64),
                                    *(np.full(len(values), count) for values, count in parts)])))
        kept.append(size)
    return new, kept


def choux_spectra(spec: gasket.ChouxSpec) -> list[SpectrumList]:
    """``gasket.choux_numeric_spectra`` by the dense piece route: every
    birth-set piece of the level-m gasket solved one component per D3
    orbit, the levels gap-clustered."""
    g = dense_reference.build_gasket(spec.gasket_level)
    base = dense_reference.gasket_graph(g, spec.boundary)
    new, _ = component_values(base, binary_pieces(g.birth, spec.fiber_depth),
                              SPECTRAL_BOUND, dense_reference.d3_maps(g))
    return dense_reference.cluster_levels(new, "numeric(choux,i={})", truncation=np.inf)


def equilateral_spectrum(base: MetricGraph, refine: int, lam_max: float) -> SpectrumList:
    """The finite-difference spectrum <= ``lam_max`` of the graph ``base``,
    whose edges all have one length, at ``refine`` cells per edge, as
    ``fiber.equilateral_spectra`` gives a path base's: the branch values of
    its vertex values in (0, 2) and the edge modes of its edges, kept
    vertices and walk kernels (``EquilateralMesh``), merged by
    ``fiber._cluster_levels``.  The vertex values are those of the dense
    piece route, gap-clustered so that the copies of a value share its
    bits, less the kernel values 0 and 2, the smallest and the largest:
    any graph, which has no closed form."""
    # mesh_reference imports family_reference, which imports this module
    from mesh_reference import EquilateralMesh

    mesh = EquilateralMesh(base.length[0] / refine, refine)
    kernels = walk_kernels(base)
    values, counts = component_values(base, [], SPECTRAL_BOUND)[0][0]
    order = np.argsort(values, kind="stable")
    merged = dense_reference.gap_cluster(values[order], counts=counts[order])
    counts = [e.multiplicity for e in merged.entries]
    n_kept = sum(counts)
    if counts:
        counts[0] -= kernels[0]
        counts[-1] -= kernels[1]
    branch, source = mesh.branch_values(merged.values(), lam_max)
    modes, mult = mesh.edge_modes(len(base.ends), n_kept, kernels, lam_max)
    return fiber._cluster_levels([(branch + modes, [counts[k] for k in source] + mult)], "{}",
                                 truncation=lam_max, pitch=mesh.pitch)[0]


def assert_same_levels(got, ref):
    """Level by level, the same tags, multiplicities, origin and truncation, and
    values to 1e-12 relative to max(|value|, 0.01)."""
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert (a.origin, a.truncation) == (b.origin, b.truncation)
        assert [(e.multiplicity, e.tag) for e in a.entries] == \
            [(e.multiplicity, e.tag) for e in b.entries]
        scale = np.maximum(np.abs(b.values()), 1e-2)
        assert np.all(np.abs(np.asarray(a.values()) - b.values()) <= 1e-12 * scale)

