import numpy as np
import pytest
import scipy.linalg

from fractal_spectra.errors import DisconnectedGraph, NonDividingPitch
from fractal_spectra.metric_graph import (
    DIRICHLET,
    NEUMANN,
    EquilateralMesh,
    MetricGraph,
    graph_operator,
    walk_kernels,
)
from json_reference import graph_from_json, graph_to_json
from mesh_reference import DimensionMismatch, assemble, dirichlet_energy, discretize, validate


def interval(boundary=None):
    return MetricGraph([0.0, 1.0], [(0, 1)], 1.0, 1.0, dirichlet=[boundary == DIRICHLET] * 2)


def pencil_eigs(d):
    S = d.A.toarray() / np.sqrt(d.M)[:, None] / np.sqrt(d.M)[None, :]
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
        assert np.linalg.norm(d.A @ ones) < 1e-12

    def test_row_sums_vanish_without_dirichlet(self):
        g = MetricGraph([0.0, 0.5, 1.0], [(0, 1), (1, 2), (0, 2)], [0.5, 0.5, 1.0],
                        [1.0, 2.0, 0.5])
        d = assemble(discretize(g, 0.25))
        assert np.abs(d.A @ np.ones(d.n)).max() < 1e-13

    def test_symmetry_and_validation(self):
        d = assemble(discretize(interval(NEUMANN), 0.25))
        validate(d)
        assert (d.A != d.A.T).nnz == 0


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
    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError):
            MetricGraph([0.0, 0.0], [(0, 1)], 1.0, 1.0)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            MetricGraph([0.0, 1.0, 2.0, 3.0], [(0, 1), (2, 3)], 1.0, 1.0)

    def test_declared_mass_checked(self):
        with pytest.raises(ValueError):
            MetricGraph([0.0, 1.0], [(0, 1)], 1.0, 1.0, total_mass=2.0)

    def test_json_round_trip(self):
        # labels are (x, word) rows
        g = MetricGraph([(0.0, 0), (0.5, 0), (1.0, 1)], [(0, 1), (1, 2)], 0.5, 0.5,
                        dirichlet=[False, False, True])
        g2 = graph_from_json(graph_to_json(g))
        assert graph_to_json(g2) == graph_to_json(g)
        assert g2.labels[:, 0].tolist() == [0.0, 0.5, 1.0]
        assert g2.dirichlet.tolist() == [False, False, True]


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
        values, mult = EquilateralMesh.of([g], refine).edge_modes(len(g.ends), op.n,
                                                             walk_kernels(g), 4 / h**2)
        k = np.arange(refine + 1)
        assert values == pytest.approx((2 / h**2) * (1 - np.cos(k * np.pi / refine)), rel=1e-13)
        ends = 1 if boundary == NEUMANN else 0
        assert mult.tolist() == [ends] + [1] * (refine - 1) + [ends]
        mesh = assemble(discretize(g, h))
        assert mult.sum() == mesh.n
        if mesh.n:
            assert np.sort(np.repeat(values, mult)) == pytest.approx(pencil_eigs(mesh), rel=1e-12,
                                                                     abs=1e-9)

    def test_walk_kernels(self):
        square = MetricGraph(np.arange(4.0), [(0, 1), (1, 2), (2, 3), (3, 0)], 1.0, 1.0)
        triangle = MetricGraph(np.arange(3.0), [(0, 1), (1, 2), (2, 0)], 1.0, 1.0,
                               dirichlet=[True, False, False])
        assert walk_kernels(square) == (1, 1)  # bipartite
        assert walk_kernels(MetricGraph(triangle.labels, triangle.ends, 1.0, 1.0)) == (1, 0)
        assert walk_kernels(triangle) == (0, 0)  # a Dirichlet vertex

    def test_vertex_cut(self):
        mesh = EquilateralMesh(pitch=1 / 8, refine=4)

        def value(theta):
            return (2 / mesh.pitch * np.sin(theta / 2)) ** 2

        assert mesh.theta(value(0.3)) == pytest.approx(0.3, rel=1e-14)
        assert mesh.vertex_cut(value(0.3)) == pytest.approx(1 - np.cos(1.2), rel=1e-12)
        assert mesh.vertex_cut(value(0.9)) == 2.0  # r theta > pi: all of branch 0
        assert mesh.vertex_cut(1e9) == 2.0  # above the spectrum

    def test_edges_must_have_one_length(self):
        g = MetricGraph([0.0, 0.5, 1.5], [(0, 1), (1, 2)], [0.5, 1.0], 1.0)
        with pytest.raises(NonDividingPitch):
            EquilateralMesh.of([g], 4)
