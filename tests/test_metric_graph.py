import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from dense_reference import MetricGraph, _laplacian, graph_operator, walk_kernels
from fractal_spectra.metric_graph import DIRICHLET, NEUMANN
from json_reference import graph_from_json, graph_to_json
from lapack_reference import csr
from mesh_reference import (
    DimensionMismatch,
    EquilateralMesh,
    NonDividingPitch,
    assemble,
    dirichlet_energy,
    discretize,
    validate,
)


def interval(boundary=None):
    return MetricGraph([0.0, 1.0], [(0, 1)], 1.0, 1.0, dirichlet=[boundary == DIRICHLET] * 2)


def pencil_eigs(d):
    S = csr(d).toarray() / np.sqrt(d.M)[:, None] / np.sqrt(d.M)[None, :]
    return np.sort(scipy.linalg.eigvalsh(S))


def fd_dirichlet_eigs(h):
    k = np.arange(1, int(round(1.0 / h)))
    return (2.0 / h**2) * (1.0 - np.cos(k * np.pi * h))


class TestDiscretize:
    def test_interval_neumann_quarter_pitch(self):
        m = discretize(interval(NEUMANN), 0.25)
        assert m.n_nodes == 5
        # two half cells at the surviving endpoints, full cells inside
        assert sorted(m.masses) == pytest.approx([0.125, 0.125, 0.25, 0.25, 0.25])
        assert m.masses.sum() == pytest.approx(1.0, abs=1e-15)

    def test_interval_dirichlet_quarter_pitch(self):
        m = discretize(interval(DIRICHLET), 0.25)
        assert m.n_nodes == 3
        assert list(m.masses) == pytest.approx([0.25, 0.25, 0.25])

    def test_two_strand_dirichlet(self):
        g = MetricGraph([0.0, 1.0], [(0, 1), (0, 1)], 1.0, 0.5, dirichlet=[True, True])
        m = discretize(g, 0.5)
        assert m.n_nodes == 2
        assert list(m.masses) == pytest.approx([0.25, 0.25])

    def test_node_count_formula(self):
        g = MetricGraph([0.0, 0.5, 1.0], [(0, 1), (1, 2)], 0.5, 1.0,
                        dirichlet=[True, False, False])
        m = discretize(g, 0.125)
        # sum over edges of (length/h - 1) + surviving vertices
        assert m.n_nodes == (4 - 1) + (4 - 1) + 2

    def test_non_dividing_pitch(self):
        with pytest.raises(NonDividingPitch):
            discretize(interval(), 0.3)
        with pytest.raises(NonDividingPitch):
            discretize(interval(), -0.25)

    def test_mass_conservation(self):
        g = MetricGraph([0.0, 0.5, 1.0], [(0, 1), (1, 2), (0, 2)], [0.5, 0.5, 1.0],
                        [0.25, 0.75, 0.5])
        m = discretize(g, 0.125)
        assert m.masses.sum() == pytest.approx(g.total_measure(), rel=1e-12)


class TestAssemble:
    def test_dirichlet_interval_closed_form(self):
        h = 0.125
        d = assemble(discretize(interval(DIRICHLET), h))
        assert pencil_eigs(d) == pytest.approx(fd_dirichlet_eigs(h), rel=1e-12)

    def test_neumann_zero_mode(self):
        d = assemble(discretize(interval(NEUMANN), 0.125))
        w = pencil_eigs(d)
        assert abs(w[0]) < 1e-12
        ones = np.ones(d.n)
        assert np.linalg.norm(csr(d) @ ones) < 1e-12

    def test_row_sums_vanish_without_dirichlet(self):
        g = MetricGraph([0.0, 0.5, 1.0], [(0, 1), (1, 2), (0, 2)], [0.5, 0.5, 1.0],
                        [1.0, 2.0, 0.5])
        d = assemble(discretize(g, 0.25))
        assert np.abs(csr(d) @ np.ones(d.n)).max() < 1e-13

    def test_symmetry_and_validation(self):
        d = assemble(discretize(interval(NEUMANN), 0.25))
        validate(d)
        A = csr(d)
        assert (A != A.T).nnz == 0


class TestEnergy:
    def test_constant_has_zero_energy(self):
        d = assemble(discretize(interval(NEUMANN), 0.25))
        assert dirichlet_energy(d, np.ones(d.n)) == pytest.approx(0.0, abs=1e-14)

    def test_hat_at_midpoint(self):
        d = assemble(discretize(interval(DIRICHLET), 0.5))
        assert d.n == 1
        assert dirichlet_energy(d, np.array([1.0])) == pytest.approx(4.0)

    def test_clipping_never_increases_energy(self):
        g = MetricGraph([0.0, 0.5, 1.0], [(0, 1), (1, 2), (0, 2)], [0.5, 0.5, 1.0],
                        [1.0, 2.0, 0.5])
        d = assemble(discretize(g, 0.125))
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = rng.standard_normal(d.n) * 2.0
            assert dirichlet_energy(d, np.clip(v, 0.0, 1.0)) <= dirichlet_energy(v=v, d=d) + 1e-12

    def test_dimension_mismatch(self):
        d = assemble(discretize(interval(), 0.25))
        with pytest.raises(DimensionMismatch):
            dirichlet_energy(d, np.ones(d.n + 1))


class TestGraphValidation:
    def test_json_round_trip(self):
        # labels are (x, word) rows
        g = MetricGraph([(0.0, 0), (0.5, 0), (1.0, 1)], [(0, 1), (1, 2)], 0.5, 0.5,
                        dirichlet=[False, False, True])
        g2 = graph_from_json(graph_to_json(g))
        assert graph_to_json(g2) == graph_to_json(g)
        assert np.asarray(g2.labels)[:, 0].tolist() == [0.0, 0.5, 1.0]
        assert np.asarray(g2.dirichlet).tolist() == [False, False, True]


class TestGraphOperator:
    def test_triangle_probabilistic_spectrum(self):
        g = MetricGraph([(0, 0), (1, 0), (0, 1)], [(0, 1), (1, 2), (0, 2)], 1.0, 1.0)
        d = graph_operator(g)
        assert pencil_eigs(d) == pytest.approx([0.0, 1.5, 1.5], abs=1e-12)

    def test_dirichlet_drops_marked_vertices(self):
        g = MetricGraph([(0, 0), (1, 0), (0, 1)], [(0, 1), (1, 2), (0, 2)], 1.0, 1.0,
                        dirichlet=[True, False, False])
        d = graph_operator(g, boundary=DIRICHLET)
        assert d.n == 2
        assert d.kept_vertices.tolist() == [1, 2]


class TestEquilateralMesh:
    @pytest.mark.parametrize("boundary", [NEUMANN, DIRICHLET])
    @pytest.mark.parametrize("refine", [1, 2, 5, 8])
    def test_interval_is_edge_modes_only(self, boundary, refine):
        """One edge has no vertex value in (0, 2), so its mesh spectrum
        (2/h^2)(1 - cos(k pi / r)) is edge modes alone: k = 1..r-1 once each,
        and k = 0 and k = r once more when the ends are kept."""
        g, h = interval(boundary), 1.0 / refine
        op = graph_operator(g, DIRICHLET)
        values, mult = EquilateralMesh(h, refine).edge_modes(len(g.ends), op.n, walk_kernels(g),
                                                            4 / h**2)
        k = np.arange(refine + 1)
        assert values == pytest.approx((2 / h**2) * (1 - np.cos(k * np.pi / refine)), rel=1e-13)
        ends = 1 if boundary == NEUMANN else 0
        assert np.asarray(mult).tolist() == [ends] + [1] * (refine - 1) + [ends]
        mesh = assemble(discretize(g, h))
        assert np.asarray(mult).sum() == mesh.n
        if mesh.n:
            assert np.sort(np.repeat(values, mult)) == pytest.approx(pencil_eigs(mesh), rel=1e-12,
                                                                     abs=1e-9)

    @pytest.mark.parametrize("boundary", [NEUMANN, DIRICHLET])
    def test_edge_modes_stop_at_lambda_max(self, boundary):
        """A cut strictly between the edge-mode values k = 3 and k = 4 keeps
        the prefix k = 0..3 of the whole listing, with its multiplicities."""
        g, refine = interval(boundary), 8
        mesh = EquilateralMesh(1.0 / refine, refine)
        args = (len(g.ends), graph_operator(g, DIRICHLET).n, walk_kernels(g))
        values, mult = mesh.edge_modes(*args, 4 / mesh.pitch**2)
        cut = (values[3] + values[4]) / 2
        assert values[3] < cut < values[4]
        assert mesh.edge_modes(*args, cut) == (values[:4], mult[:4])

    def test_walk_kernels(self):
        square = MetricGraph(np.arange(4.0), [(0, 1), (1, 2), (2, 3), (3, 0)], 1.0, 1.0)
        triangle = MetricGraph(np.arange(3.0), [(0, 1), (1, 2), (2, 0)], 1.0, 1.0,
                               dirichlet=[True, False, False])
        assert walk_kernels(square) == (1, 1)  # bipartite
        assert walk_kernels(MetricGraph(triangle.labels, triangle.ends, 1.0, 1.0)) == (1, 0)
        assert walk_kernels(triangle) == (0, 0)  # a Dirichlet vertex

    def test_theta(self):
        mesh = EquilateralMesh(pitch=1 / 8, refine=4)

        def value(theta):
            return (2 / mesh.pitch * np.sin(theta / 2)) ** 2

        assert mesh.theta(value(0.3)) == pytest.approx(0.3, rel=1e-14)
        assert mesh.theta(value(np.pi)) == np.pi
        assert mesh.theta(1e9) == np.pi  # above the spectrum


def random_multigraph(seed, max_row=16):
    """n nodes and pairs (a[k], b[k]) with conductances c[k]: parallel copies
    of a pair with unequal conductances, nodes marked eliminated (-1) and
    nodes with no pair; no node is in more than ``max_row`` pairs."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    a, b = rng.integers(-1, n, (2, int(rng.integers(0, 3 * n))))
    repeat = rng.integers(0, len(a), len(a) // 2) if len(a) else np.zeros(0, dtype=int)
    a, b = np.r_[a, a[repeat], a[repeat]], np.r_[b, b[repeat], b[repeat]]
    keep, seen = [], np.zeros(n, dtype=int)
    for k, (u, v) in enumerate(zip(a.tolist(), b.tolist())):
        if u != v and (u < 0 or seen[u] < max_row) and (v < 0 or seen[v] < max_row):
            keep.append(k)
            seen[[x for x in (u, v) if x >= 0]] += 1
    a, b = a[keep], b[keep]
    c = rng.choice([1.0, 0.5, 1 / 3, 0.1, 7.0], len(a)) * rng.uniform(0.5, 2.0, len(a))
    return n, a, b, c


class TestSparseArrays:
    """The pencil's CSR arrays, held to SciPy."""

    @pytest.mark.parametrize("seed", range(60))
    def test_laplacian_is_scipys_csr(self, seed):
        """``_laplacian`` gives the arrays of SciPy's
        ``(off.tocsr() + diags(diag)).tocsr()`` bit for bit, parallel edges
        included: SciPy sorts a row of at most 16 entries stably, so the
        copies of an edge sum in pair order."""
        n, a, b, c = random_multigraph(seed)
        diag = np.zeros(n)
        for u, v, w in zip(a.tolist(), b.tolist(), c.tolist()):
            for x in (u, v):
                if x >= 0:
                    diag[x] += w
        both = (a >= 0) & (b >= 0)
        off = sp.coo_matrix((-np.repeat(c[both], 2), (np.stack([a[both], b[both]], 1).ravel(),
                                                      np.stack([b[both], a[both]], 1).ravel())),
                            shape=(n, n))
        ref = (off.tocsr() + sp.diags(diag)).tocsr()
        op = _laplacian(n, a, b, c)
        assert np.array_equal(op.indptr, ref.indptr) and np.array_equal(op.indices, ref.indices)
        assert np.array_equal(op.data.view(np.int64), ref.data.view(np.int64))
        assert np.array_equal(op.M.view(np.int64), diag.view(np.int64))
        assert np.array_equal(op.rows(), np.repeat(np.arange(n), np.diff(ref.indptr)))
