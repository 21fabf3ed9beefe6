import numpy as np
import pytest

from fractal_spectra.fiber import (
    classify_levels,
    discretize_levels,
    fiber_complement,
    fiber_project,
    lift,
    new_subspace_split,
    project_down,
)
from fractal_spectra.laakso import LaaksoSpec, build_laakso
from fractal_spectra.metric_graph import assemble, dirichlet_energy
from lapack_reference import generalized_eigh


@pytest.fixture(scope="module")
def level_pair():
    """Two-level family: interval and two sheets glued at x = 1/2."""
    spec = LaaksoSpec(j=[2], refine=4)
    family = build_laakso(spec)
    meshes, fibers = discretize_levels(family, spec.pitch)
    ops = [assemble(m) for m in meshes]
    return ops, fibers[0]


def rand(n, seed):
    return np.random.default_rng(seed).standard_normal(n)


class TestLiftProject:
    def test_round_trip_identity(self, level_pair):
        ops, fs = level_pair
        for seed in range(100):
            u = rand(ops[0].n, seed)
            assert project_down(fs, lift(fs, u)) == pytest.approx(u, abs=1e-14)

    def test_constant_lifts_to_constant(self, level_pair):
        ops, fs = level_pair
        v = lift(fs, np.ones(ops[0].n))
        assert np.ptp(v) == 0.0

    def test_norm_and_energy_isometry(self, level_pair):
        ops, fs = level_pair
        for seed in range(100):
            u = rand(ops[0].n, seed)
            v = lift(fs, u)
            n_lo = u @ (ops[0].M * u)
            n_hi = v @ (ops[1].M * v)
            assert n_hi == pytest.approx(n_lo, rel=1e-12)
            assert dirichlet_energy(ops[1], v) == pytest.approx(
                dirichlet_energy(ops[0], u), rel=1e-11, abs=1e-11
            )

    def test_lift_intertwines_eigenpairs(self, level_pair):
        ops, fs = level_pair
        values, vectors = generalized_eigh(ops[0])
        for lam, u in zip(values, vectors.T):
            v = lift(fs, u)
            res = np.linalg.norm(ops[1].A @ v - lam * ops[1].M * v)
            assert res <= 1e-10 * max(1.0, np.linalg.norm(v))

    def test_mean_zero_projects_to_zero(self, level_pair):
        ops, fs = level_pair
        v = rand(ops[1].n, 5)
        w = fiber_complement(fs, v)
        assert project_down(fs, w) == pytest.approx(np.zeros(ops[0].n), abs=1e-14)


class TestFiberProjection:
    def test_idempotent_and_fixed_range(self, level_pair):
        ops, fs = level_pair
        v = rand(ops[1].n, 0)
        pv = fiber_project(fs, v)
        assert fiber_project(fs, pv) == pytest.approx(pv, abs=1e-13)
        # constant-across-fibers vectors are fixed
        c = lift(fs, rand(ops[0].n, 1))
        assert fiber_project(fs, c) == pytest.approx(c, abs=1e-13)

    def test_antisymmetric_pair_averages_to_zero(self, level_pair):
        ops, fs = level_pair
        v = np.zeros(ops[1].n)
        # find a node with a two-element fiber and set values (+1, -1)
        parents = fs.parent
        for p in range(ops[0].n):
            nodes = np.where(parents == p)[0]
            if len(nodes) == 2:
                v[nodes[0]], v[nodes[1]] = 1.0, -1.0
                pv = fiber_project(fs, v)
                assert pv[nodes[0]] == pytest.approx(0.0, abs=1e-15)
                assert pv[nodes[1]] == pytest.approx(0.0, abs=1e-15)
                return
        pytest.fail("no two-copy node found")

    def test_sheet_indicator_complement(self, level_pair):
        ops, fs = level_pair
        v = np.zeros(ops[1].n)
        parents = fs.parent
        for p in range(ops[0].n):
            nodes = np.where(parents == p)[0]
            if len(nodes) == 2:
                v[nodes[0]] = 1.0
                w = fiber_complement(fs, v)
                assert w[nodes[0]] == pytest.approx(0.5)
                assert w[nodes[1]] == pytest.approx(-0.5)
                return
        pytest.fail("no two-copy node found")

    def test_self_adjoint_in_m(self, level_pair):
        ops, fs = level_pair
        M = ops[1].M
        for seed in range(100):
            v, w = rand(ops[1].n, 2 * seed), rand(ops[1].n, 2 * seed + 1)
            lhs = fiber_project(fs, v) @ (M * w)
            rhs = v @ (M * fiber_project(fs, w))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_orthogonal_decomposition(self, level_pair):
        ops, fs = level_pair
        M = ops[1].M
        for seed in range(100):
            v = rand(ops[1].n, seed)
            pv = fiber_project(fs, v)
            qv = fiber_complement(fs, v)
            assert pv + qv == pytest.approx(v, abs=1e-13)
            assert pv @ (M * qv) == pytest.approx(0.0, abs=1e-12)

    def test_commutes_with_pencil(self, level_pair):
        ops, fs = level_pair
        A, M = ops[1].A, ops[1].M
        for seed in range(100):
            v = rand(ops[1].n, seed)
            v /= np.linalg.norm(v)
            lhs = (A @ fiber_project(fs, v)) / M
            rhs = fiber_project(fs, (A @ v) / M)
            assert np.linalg.norm(lhs - rhs) <= 1e-10


class TestClassification:
    def test_split_flags_lifted_and_new(self, level_pair):
        ops, fs = level_pair
        values, vectors = generalized_eigh(ops[1])
        rotated, flags = new_subspace_split(values, vectors, ops[1].M, fs)
        # pullback count equals the level-0 problem size
        assert int(np.sum(flags == 1)) == ops[0].n
        for j, flag in enumerate(flags):
            v = rotated[:, j]
            pv = fiber_project(fs, v)
            if flag == 1:
                assert np.linalg.norm(pv - v) <= 1e-8
            else:
                assert np.linalg.norm(pv) <= 1e-8

    def test_classify_levels_origins(self, level_pair):
        ops, fs = level_pair
        values, vectors = generalized_eigh(ops[1])
        origins = classify_levels(values, vectors, ops, [fs])
        assert sorted(set(origins)) == [0, 1]
        assert int(np.sum(origins == 0)) == ops[0].n
