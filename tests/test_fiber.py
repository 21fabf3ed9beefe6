import itertools
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.csgraph import connected_components

import family_reference
import piece_reference
from dense_reference import gap_cluster, gap_runs, graph_operator, path_graph
from fractal_spectra import fiber, gasket, laakso, strings
from fractal_spectra.eigensolve import SpectrumEntry
from fractal_spectra.errors import NoConvergence
from fractal_spectra.laakso import LaaksoSpec
from fractal_spectra.metric_graph import SPECTRAL_BOUND
from lapack_reference import csr, generalized_eigh, operator, path_tridiagonal
from level_reference import (
    FiberStructure,
    IncompatibleMesh,
    assert_matches_reference,
    block_spectra,
    choux_levels,
    classify_levels,
    cluster,
    contrast_basis,
    fiber_complement,
    fiber_project,
    graph_levels,
    lift,
    new_blocks,
    new_subspace_split,
    project_down,
    total_multiplicity,
    vertex_fiber_structure,
)
from mesh_reference import (
    dirichlet_energy,
    discretize_levels,
    interval_pencil,
    laakso_levels,
    stitched_levels,
)


@pytest.fixture(scope="module")
def level_pair():
    """Two-level family: interval and two sheets glued at x = 1/2."""
    spec = LaaksoSpec(j=[2], refine=4)
    ops, fibers = discretize_levels(family_reference.build_laakso(spec), spec.pitch)
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
            res = np.linalg.norm(csr(ops[1]) @ v - lam * ops[1].M * v)
            assert res <= 1e-10 * max(1.0, np.linalg.norm(v))

    def test_mean_zero_projects_to_zero(self, level_pair):
        ops, fs = level_pair
        v = rand(ops[1].n, 5)
        w = fiber_complement(fs, v)
        assert project_down(fs, w) == pytest.approx(np.zeros(ops[0].n), abs=1e-14)


    def test_blocks_of_vectors_map_column_by_column(self, level_pair):
        ops, fs = level_pair
        rng = np.random.default_rng(3)
        V, U = rng.standard_normal((ops[1].n, 5)), rng.standard_normal((ops[0].n, 5))
        for fn, block in ((project_down, V), (fiber_project, V), (fiber_complement, V), (lift, U)):
            whole = fn(fs, block)
            assert whole.shape[1] == 5
            for j in range(5):
                assert np.array_equal(whole[:, j], fn(fs, block[:, j]))

    @pytest.mark.parametrize("shape", [(3,), (3, 2), (1, 1, 1)])
    def test_wrong_shape_rejected(self, level_pair, shape):
        _, fs = level_pair
        with pytest.raises(IncompatibleMesh):
            project_down(fs, np.zeros(shape))

    def test_vertex_onto_an_eliminated_dirichlet_vertex_rejected(self):
        family = family_reference.build_choux(gasket.ChouxSpec(1, 2, "dirichlet"))
        lo = graph_operator(family.graphs[0], "dirichlet")
        hi = graph_operator(family.graphs[1])  # keeps the corners that lo drops
        with pytest.raises(IncompatibleMesh, match="eliminated"):
            vertex_fiber_structure(hi.kept_vertices, lo.kept_vertices, family.links[0])


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
        A, M = csr(ops[1]), ops[1].M
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


STRINGS_213 = strings.StringSpec([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)], [2, 1, 3], refine=8)
THETA = strings.StringSpec([Fraction(1, 2)], [3], refine=8)  # three copies of one segment
CHOUX_24D = gasket.ChouxSpec(fiber_depth=2, gasket_level=4, boundary="dirichlet")
CHOUX_35D = gasket.ChouxSpec(fiber_depth=3, gasket_level=5, boundary="dirichlet")


class TestContrastBasis:
    @pytest.mark.parametrize("case, copies", [("laakso", 2), ("theta", 3), ("strings_213", 4)])
    def test_orthonormal_mean_zero_and_counted(self, case, copies):
        """Laakso fibers have two copies; the theta string has three and
        strings [1/2, 1/4, 1/8] x [2, 1, 3] four at its top level."""
        fibers = {
            "laakso": lambda: laakso_levels(LaaksoSpec(j=[3, 2], refine=4))[1],
            "theta": lambda: stitched_levels(THETA)[1],
            "strings_213": lambda: stitched_levels(STRINGS_213)[1],
        }[case]()
        sizes = set()
        for fs in fibers:
            Q = contrast_basis(fs)
            assert Q.shape == (fs.n_high, fs.n_high - fs.n_low)
            dense = Q.toarray()
            assert np.abs(dense.T @ dense - np.eye(Q.shape[1])).max() <= 1e-14
            assert np.abs(fiber_project(fs, dense)).max() <= 1e-14
            collapsed = np.bincount(fs.parent)[fs.parent] == 1
            assert not dense[collapsed].any()  # collapsed nodes: no column
            sizes |= set(np.bincount(fs.parent).tolist())
        assert max(sizes) == copies

    def test_two_copies_give_normalized_difference(self):
        fs = FiberStructure(1, 1, 2, np.array([0, 0]))
        assert contrast_basis(fs).toarray() == pytest.approx(np.array([[1], [-1]]) / np.sqrt(2))

    def test_helmert_columns_of_three_copies(self):
        fs = FiberStructure(1, 2, 4, np.array([1, 0, 1, 1]))
        expect = np.zeros((4, 2))
        expect[[0, 2], 0] = [1 / np.sqrt(2), -1 / np.sqrt(2)]
        expect[[0, 2, 3], 1] = np.array([1, 1, -2]) / np.sqrt(6)
        assert contrast_basis(fs).toarray() == pytest.approx(expect, abs=1e-16)


class TestBlockRoute:
    @pytest.mark.parametrize("case", ["laakso_j23", "strings_213", "theta", "choux_24_dirichlet"])
    def test_matches_full_pencil_route_on_every_level(self, case):
        if case == "laakso_j23":
            spec, lam_max = LaaksoSpec(j=[2, 3], refine=8), 200.0
            (ops, fibers), numeric = laakso_levels(spec), laakso.laakso_numeric_spectra(spec, lam_max)
        elif case == "choux_24_dirichlet":
            lam_max = gasket.SPECTRAL_BOUND
            (ops, fibers), numeric = choux_levels(CHOUX_24D), gasket.choux_numeric_spectra(CHOUX_24D)
        else:
            spec, lam_max = {"strings_213": STRINGS_213, "theta": THETA}[case], 700.0
            (ops, fibers), numeric = stitched_levels(spec), strings.stitched_numeric_spectra(spec, lam_max)
        assert_matches_reference(numeric, ops, fibers, lam_max)

    def test_perturbed_stiffness_is_refused(self):
        ops, fibers = laakso_levels(LaaksoSpec(j=[2, 2], refine=4))
        A = csr(ops[2]).tolil()
        i = 7
        j = A.rows[i][0] if A.rows[i][0] != i else A.rows[i][-1]
        A[i, j] *= 1 + 1e-9
        A[j, i] = A[i, j]
        broken = ops[:2] + [operator(A, ops[2].M)]
        block_spectra(ops, fibers, 200.0, "{}")  # the unbroken levels pass
        with pytest.raises(IncompatibleMesh, match="intertwine"):
            block_spectra(broken, fibers, 200.0, "{}")
        with pytest.raises(IncompatibleMesh, match="intertwine"):
            new_blocks(broken[2], broken[1], fibers[1])

    def test_unequal_copy_masses_are_refused(self):
        """Two copies over one node: the lift intertwines whatever the copy
        masses are, but only equal ones let the contrast block carry the new
        eigenvalue (with masses 1, 2 it is 1.5 w, the block would say 4/3 w)."""
        fs = FiberStructure(1, 1, 2, np.array([0, 0]))
        low = operator(sp.csr_matrix((1, 1)), [2.0])
        w = 3.0
        A = np.array([[w, -w], [-w, w]])
        (block,) = new_blocks(operator(A, [1.0, 1.0]), low, fs)
        assert block.n == 1 and csr(block)[0, 0] / block.M[0] == pytest.approx(2 * w)
        with pytest.raises(IncompatibleMesh, match="unequal mass"):
            new_blocks(operator(A, [1.0, 2.0]), low, fs)

    def test_blocks_are_connected_components(self):
        ops, fibers = laakso_levels(LaaksoSpec(j=[2, 2, 2], refine=8))
        for level in (1, 2, 3):
            blocks = new_blocks(ops[level], ops[level - 1], fibers[level - 1])
            assert sum(b.n for b in blocks) == ops[level].n - ops[level - 1].n
            assert len(blocks) > 1
            for b in blocks:
                assert connected_components(csr(b), directed=False)[0] == 1

    @pytest.mark.parametrize("case", ["laakso_j222", "strings_213", "choux_24_dirichlet"])
    def test_blocks_are_the_fancy_indexed_components(self, case):
        """Each block equals A[idx][:, idx] and M[idx] of its component,
        the construction the slices replace, bit for bit."""
        ops, fibers = {
            "laakso_j222": lambda: laakso_levels(LaaksoSpec(j=[2, 2, 2], refine=8)),
            "strings_213": lambda: stitched_levels(STRINGS_213),
            "choux_24_dirichlet": lambda: choux_levels(CHOUX_24D),
        }[case]()
        for level in range(1, len(ops)):
            Q = contrast_basis(fibers[level - 1])
            A = Q.T @ csr(ops[level]) @ Q
            A = (0.5 * (A + A.T)).tocsr()
            A.eliminate_zeros()
            M = Q.multiply(Q).T @ ops[level].M
            n_comp, labels = connected_components(A, directed=False)
            blocks = new_blocks(ops[level], ops[level - 1], fibers[level - 1])
            assert len(blocks) == n_comp
            for k, block in enumerate(blocks):
                idx = np.flatnonzero(labels == k)
                expect = A[idx][:, idx]
                for name in ("indptr", "indices", "data"):
                    got, want = getattr(block, name), getattr(expect, name)
                    assert got.dtype == want.dtype and np.array_equal(got, want), name
                assert csr(block).shape == expect.shape
                assert np.array_equal(block.M, M[idx])


class TestSolveOnce:
    """level_spectra evaluates the closed form of each distinct run of the
    pieces of a level once; equal runs of a level reuse its values.  A run
    that recurs at another level is evaluated there again: that costs O(m)
    array work, not a solve."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []

        def counted(key, *args, _values=fiber._run_values, **kwargs):
            calls.append(key)
            return _values(key, *args, **kwargs)

        monkeypatch.setattr(fiber, "_run_values", counted)
        return calls

    def test_laakso_krylov_spec(self, solves):
        """j = [2]*5 at refine 8: level 0 and 31 pieces above it, with
        2, 4, 4, 4 and 4 distinct runs on levels 1-5 and 15 distinct runs
        in all, the edge between two marks of level 5 among them.  The
        one-vertex runs at the two ends of the path are mirror images with
        one pencil, but they are keyed apart."""
        per_level = laakso.laakso_numeric_spectra(LaaksoSpec(j=[2] * 5, refine=8), 400.0)
        assert len(solves) == 1 + 2 + 4 + 4 + 4 + 4 and len(set(solves)) == 16
        assert [total_multiplicity(s) for s in per_level] == [7, 13, 26, 40, 40, 40]

    def test_laakso_cli_spec(self, solves):
        """j = [2, 2, 2] at refine 32: level 0 plus 2, 4 and 4 distinct runs
        on levels 1-3, 9 distinct of the 35 runs of the 7 pieces above
        level 0, the edge between two marks of level 3 among them; the
        block route split the same levels into 21 blocks, 7 of them
        distinct."""
        spec = LaaksoSpec(j=[2, 2, 2], refine=32)
        laakso.laakso_numeric_spectra(spec, 230.0)
        assert len(solves) == 1 + 2 + 4 + 4 and len(set(solves)) == 10
        ops, fibers = graph_levels(family_reference.build_laakso(spec), "dirichlet")
        assert sum(len(new_blocks(ops[i], ops[i - 1], fibers[i - 1])) for i in (1, 2, 3)) == 21

    def test_path_bases_call_no_eigensolver(self, monkeypatch):
        """The Laakso and string pieces are runs of a path, whose values are
        in closed form: their pipelines call no LAPACK solver."""
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolver called on a path base")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        laakso.laakso_numeric_spectra(LaaksoSpec(j=[2] * 9, refine=8, boundary="dirichlet"), 400.0)
        strings.stitched_numeric_spectra(STRINGS_213, 700.0)


class TestPathPieces:
    """The pencil of a run of m vertices of a path is the walk Laplacian of
    the path with its free ends kept and every other end next to an
    eliminated vertex.  Its values are 2 sin^2(theta_k / 2), k = 0..m-1,
    with theta_k = k pi / (m - 1) for two free ends,
    (2k + 1) pi / 2m for one and (k + 1) pi / (m + 1) for none.
    ``fiber._run_values`` gives them in closed form; LAPACK's ``dsterf`` and
    ``dstebz`` on the tridiagonal standard form are the reference."""

    @pytest.mark.parametrize("m, first, last", [
        (m, first, last) for m in (1, 2, 3, 17, 511, 1025)
        for first, last in ((1, 1), (1, 0), (0, 1), (0, 0))
        if m > 1 or not (first and last)  # two free ends need an edge
    ])
    @pytest.mark.parametrize("cut", [SPECTRAL_BOUND, 0.05])
    def test_closed_form(self, m, first, last, cut):
        k = np.arange(m)
        theta = {2: k * np.pi / max(m - 1, 1), 1: (2 * k + 1) * np.pi / (2 * m),
                 0: (k + 1) * np.pi / (m + 1)}[first + last]
        exact = 2 * np.sin(theta / 2) ** 2
        exact = exact[exact <= cut]  # no closed-form value lies within 1e-4 of 0.05
        got = fiber._run_values(4 * m + 2 * first + last, cut)
        assert len(got) == len(exact) and np.all(np.diff(got) > 0)
        assert np.abs(got - exact).max(initial=0.0) <= 1e-14

    @pytest.mark.parametrize("m", [2, 3, 9, 17, 100, 511, 1023])
    @pytest.mark.parametrize("first, last", [(1, 1), (1, 0), (0, 0)])
    def test_whole_spectrum_agrees_with_dsterf(self, m, first, last):
        """Above the spectrum a run's m values agree with LAPACK's
        values-only QR, ``dsterf``, on its tridiagonal standard form, to
        1e-14 |T|."""
        diag, off = path_tridiagonal(m, first, last)
        w, info = lapack.dsterf(diag, off)
        assert info == 0
        got = fiber._run_values(4 * m + 2 * first + last, SPECTRAL_BOUND)
        norm = np.abs(diag).max() + 2 * np.abs(off).max()  # bounds |T|
        assert len(got) == m and np.abs(got - w).max() <= 1e-14 * norm

    @pytest.mark.parametrize("m", [2, 3, 9, 100, 1023])
    @pytest.mark.parametrize("first, last", [(1, 1), (1, 0), (0, 0)])
    @pytest.mark.parametrize("cut", [0.05, 0.7])
    def test_part_agrees_with_dstebz(self, m, first, last, cut):
        """Below a cut inside the spectrum a run's values agree with LAPACK's
        bisection over (-inf, cut], ``dstebz``, to 1e-14 |T|, and there are
        as many."""
        diag, off = path_tridiagonal(m, first, last)
        # range 1 selects by value, tolerance 0 takes LAPACK's default, order
        # "E" sorts the values of all split blocks together
        k, w, _, _, info = lapack.dstebz(diag, off, 1, -np.inf, cut * (1 + 1e-12), 0, 0, 0.0, "E")
        assert info == 0
        got = fiber._run_values(4 * m + 2 * first + last, cut)
        norm = np.abs(diag).max() + 2 * np.abs(off).max()  # bounds |T|
        assert len(got) == k
        assert np.abs(got - w[:k]).max(initial=0.0) <= 1e-14 * norm

    @pytest.mark.parametrize("m, first, last", [
        (m, first, last) for m in (1, 2, 3, 17, 100)
        for first, last in ((1, 1), (1, 0), (0, 0))
        if m > 1 or not (first and last)  # two free ends need an edge
    ])
    def test_cut_lists_the_prefix_of_the_whole_list(self, m, first, last):
        """The listing stops at the first value above the cut: at every cut
        that lies on a value, between two values, below them all or above
        them all, it is the prefix of the whole list <= cut (1 + 1e-12)."""
        key = 4 * m + 2 * first + last
        whole = fiber._run_values(key, float("inf"))
        assert len(whole) == m and whole == sorted(whole)
        mids = [(a + b) / 2 for a, b in zip(whole, whole[1:])]
        for cut in [*whole, *mids, whole[0] / 2, 1e-300, SPECTRAL_BOUND, 3.0]:
            got = fiber._run_values(key, cut)
            assert got == [value for value in whole if value <= cut * (1 + 1e-12)]
            assert got == whole[:len(got)]

    def test_equal_angles_have_equal_bits(self):
        """theta / pi is reduced before the sine: theta = 13 pi / 39 of the
        40-vertex run with two free ends has the bits of pi / 3 of the
        4-vertex one and of the 2-vertex run with none, which the unreduced
        fraction does not give."""
        a, b, c = (fiber._run_values(key, SPECTRAL_BOUND) for key in (4 * 40 + 3, 4 * 4 + 3, 4 * 2))
        assert a[13] == b[1] == c[0]
        assert 2 * np.sin(np.pi * 13 / (2 * 39)) ** 2 != a[13]


class TestRefinedRuns:
    """The mesh of a run of m vertices with f free ends, at r cells per
    edge, is a run of (m + 1) r - 1, m r or (m - 1) r + 1 nodes
    (``fiber._mesh_key``), whose values times 2 / h^2 are those of the mesh
    pencil of the run's interval (``mesh_reference.interval_pencil``)."""

    @pytest.mark.parametrize("r", range(2, 9))
    @pytest.mark.parametrize("m, first, last", [
        (m, first, last) for m in range(7) for first, last in ((0, 0), (1, 0), (0, 1), (1, 1))
        if m >= first + last  # a free end is a vertex of the run
    ])
    def test_refined_run_is_the_mesh_pencil_of_its_interval(self, m, first, last, r):
        """m = 0..6 vertices, every end type, r = 2..8: as many values as
        mesh nodes, to 1e-13 of the top of the spectrum 4 / h^2.  Key 0, an
        edge between two Dirichlet vertices, has r - 1 nodes and no vertex."""
        key, pitch = 4 * m + 2 * first + last, 0.125
        mesh = fiber._mesh_key(key, r)
        assert mesh & 3 == key & 3
        assert mesh >> 2 == {0: (m + 1) * r - 1, 1: m * r, 2: (m - 1) * r + 1}[first + last]
        op = interval_pencil(key, r, pitch)
        assert op.n == mesh >> 2
        scale = 2 / pitch**2
        got = scale * np.asarray(fiber._run_values(mesh, float("inf")))
        ref = generalized_eigh(op)[0] if op.n else np.zeros(0)
        assert len(got) == len(ref)
        assert np.abs(got - ref).max(initial=0.0) <= 1e-13 * 2 * scale

    @pytest.mark.parametrize("spec", [LaaksoSpec([2, 3], 8, "dirichlet"), LaaksoSpec([3, 4], 4),
                                      STRINGS_213], ids=["laakso_23d", "laakso_34n", "strings"])
    def test_lambda_max_on_a_mesh_eigenvalue_keeps_it(self, spec):
        """A cut placed exactly on a listed mesh eigenvalue keeps it with its
        multiplicity and tags, and every entry below; a cut 1e-11 below it
        drops it."""
        family = (laakso.laakso_family(spec) if isinstance(spec, LaaksoSpec)
                  else strings.stitched_family(spec))
        whole = fiber.equilateral_spectra(family, [spec.refine], 2000.0, "{}")[0][-1].entries
        for k in range(1, len(whole), 3):
            lam = whole[k].value
            assert fiber.equilateral_spectra(family, [spec.refine], lam, "{}")[0][-1].entries == \
                whole[:k + 1]
            below = fiber.equilateral_spectra(family, [spec.refine], lam * (1 - 1e-11), "{}")
            assert below[0][-1].entries == whole[:k]


class TestPieces:
    """The pieces of each level carry the dimension of its whole pencil,
    and the edges that the runs of a path family span are those of the
    built levels."""

    @pytest.mark.parametrize("case", ["laakso_j343", "laakso_j232_dirichlet", "choux_35",
                                      "choux_35_dirichlet", "strings_213", "theta"])
    def test_counts_are_those_of_the_built_levels(self, case):
        family, spec, boundary = {
            "laakso_j343": lambda: (laakso.laakso_family(LaaksoSpec([3, 4, 3])),
                                    LaaksoSpec([3, 4, 3]), "dirichlet"),
            "laakso_j232_dirichlet": lambda: (
                laakso.laakso_family(LaaksoSpec([2, 3, 2], boundary="dirichlet")),
                LaaksoSpec([2, 3, 2], boundary="dirichlet"), "dirichlet"),
            "choux_35": lambda: (gasket.choux_family(gasket.ChouxSpec(3, 5)),
                                 gasket.ChouxSpec(3, 5), None),
            "choux_35_dirichlet": lambda: (gasket.choux_family(CHOUX_35D), CHOUX_35D, "dirichlet"),
            "strings_213": lambda: (strings.stitched_family(STRINGS_213), STRINGS_213, "dirichlet"),
            "theta": lambda: (strings.stitched_family(THETA), THETA, "dirichlet"),
        }[case]()
        build = {laakso.LaaksoSpec: family_reference.build_laakso,
                 gasket.ChouxSpec: family_reference.build_choux,
                 strings.StringSpec: family_reference.build_stitched}[type(spec)]
        graphs = build(spec).graphs
        kept = family_reference.kept_counts(family)
        assert kept == [graph_operator(g, boundary).n for g in graphs]
        if family.base is not None:  # the pâte à choux has no base, as it takes no mesh
            assert family_reference.edge_counts(family) == [len(g.ends) for g in graphs]
            assert path_graph(family).ends == graphs[0].ends

    @pytest.mark.parametrize("spec", [
        *(LaaksoSpec(j, 4, boundary) for j in ([], [3], [2, 2], [3, 2, 3], [2, 3, 3, 2])
          for boundary in ("neumann", "dirichlet")),
        STRINGS_213, THETA,
        strings.StringSpec([Fraction(1, 3**i) for i in range(1, 7)], [2**i for i in range(6)], 4),
    ], ids=lambda spec: repr(spec.j if isinstance(spec, LaaksoSpec) else spec.mults))
    def test_path_base_stands_for_the_level_0_graph(self, spec):
        """The graph of a family's ``PathBase`` and level-0 run is level 0 of
        the loop-built family: its vertices, edges, edge length, Dirichlet
        marks and total measure (1 on the Laakso grid, l_1 on the strings).
        The last string is the Cantor string of depth 6."""
        if isinstance(spec, LaaksoSpec):
            family = laakso.laakso_family(spec)
            ref, measure = family_reference.build_laakso(spec).graphs[0], 1.0
        else:
            family = strings.stitched_family(spec)
            ref = family_reference.build_stitched(spec, top=0).graphs[0]
            measure = float(spec.lengths[0])
        g = path_graph(family)
        assert g.n_vertices == ref.n_vertices
        assert g.ends == ref.ends
        assert g.length == ref.length
        assert g.dirichlet == ref.dirichlet
        assert g.total_measure() == pytest.approx(ref.total_measure(), rel=1e-12)
        assert g.total_measure() == pytest.approx(measure, rel=1e-12)

    def test_binary_pieces_are_the_sets_with_their_level_on_top(self):
        """Level l has a piece for each S in {1..l} with max S = l, marking
        the vertices born at a level in S."""
        birth = np.array([0, 3, 2, 3, 1, 3, 2, 3, 0])
        pieces_by_level = piece_reference.binary_pieces(birth, 3)
        for level, pieces in enumerate(pieces_by_level, start=1):
            sets = [frozenset(birth[marks].tolist()) for marks, copies in pieces]
            assert all(copies == 1 for _, copies in pieces)
            assert sorted(sets, key=sorted) == sorted(
                (frozenset(s) | {level} for r in range(level) for s in
                 itertools.combinations(range(1, level), r)), key=sorted)


class TestCluster:
    def test_equal_values_merge(self):
        s = cluster(np.array([4.0, 4.0, 9.0]))
        assert [(e.value, e.multiplicity) for e in s.entries] == [(4.0, 2), (9.0, 1)]

    def test_close_distinct_values_stay_apart(self):
        """Values that differ are distinct eigenvalues however close they
        are: 1e-12 apart, and one unit in the last place apart."""
        s = cluster(np.array([4.0, 4.0 + 1e-12, np.nextafter(9.0, 0.0), 9.0]))
        assert [e.multiplicity for e in s.entries] == [1, 1, 1, 1]

    def test_empty(self):
        assert cluster(np.array([])).entries == []

    def test_tag_counts(self):
        s = cluster(np.array([4.0, 4.0, 9.0]), tags=["base", "new@1", "base"])
        assert s.entries[0].tag == "basex1;new@1x1"

    def test_wide_chain_of_close_values_is_listed_value_by_value(self):
        """Twenty distinct values, each within the gap of the next: the gap
        reference chains them into one cluster too wide to be copies of
        one value and refuses it, and the exact merge lists all twenty."""
        rel_tol = 1e-7
        chain = 1.0 + 0.9 * rel_tol * np.arange(20)
        assert gap_runs(chain, rel_tol) == [(0, 20)]
        with pytest.raises(NoConvergence, match="wider than rel_tol"):
            gap_cluster(chain, rel_tol=rel_tol)
        assert [e.value for e in cluster(chain).entries] == chain.tolist()

    @pytest.mark.parametrize("seed", range(4))
    def test_values_and_tags_are_those_of_a_loop_over_the_runs(self, seed):
        """Runs of 1-3000 equal values, a run's neighbours a few ulps away,
        each value counted 1-5 times, with random tags: each entry is the
        value of its run, its multiplicity the sum of the counts, and each
        tag counts the run's labels with their counts in sorted order."""
        rng = np.random.default_rng(seed)
        lengths = rng.choice([1, 2, 3, 7, 8, 9, 16, 127, 128, 129, 257, 1000, 3000], 40)
        centres = np.cumsum(rng.uniform(0.5, 2.0, len(lengths))) * 10.0 ** rng.integers(-3, 3)
        centres[1::2] = np.nextafter(centres[:-1:2], np.inf)  # neighbours one ulp apart
        eigs = np.repeat(centres, lengths)
        counts = rng.integers(1, 6, len(eigs))
        tags = rng.choice(["base", "new@1", "new@2", "new@10"], len(eigs)).tolist()
        s = cluster(eigs, tags=tags, counts=counts)
        ref = []
        for i, j in zip(np.cumsum(lengths) - lengths, np.cumsum(lengths)):
            labels = {}
            for t, c in zip(tags[i:j], counts[i:j].tolist()):
                labels[t] = labels.get(t, 0) + c
            ref.append((eigs[i], int(counts[i:j].sum()),
                        ";".join(f"{t}x{c}" for t, c in sorted(labels.items()))))
        assert [(e.value, e.multiplicity, e.tag) for e in s.entries] == ref
        assert len(s.entries) == len(lengths)

    def test_copies_a_few_ulps_apart_merge_only_in_the_gap_reference(self):
        """Six values a few ulps apart are six entries of the exact merge
        and one cluster of the gap reference; 18 equal copies (laakso_cli's
        value 157.88196427564415, whose np.mean is 157.88196427564418) are
        one entry of that value in both."""
        near = 4.0 + np.spacing(4.0) * np.arange(6)
        assert [e.multiplicity for e in cluster(np.array([1.0, *near, 900.0])).entries] == \
            [1] * 8
        assert [e.multiplicity for e in gap_cluster(np.array([1.0, *near, 900.0])).entries] == \
            [1, 6, 1]
        exact = 157.88196427564415
        copies = np.array([1.0, *np.full(18, exact), 900.0])
        for merge in (cluster, gap_cluster):
            assert merge(copies).entries[1] == SpectrumEntry(exact, 18)
        assert cluster(np.array([exact]), counts=[18]).entries == [SpectrumEntry(exact, 18)]

    def test_gap_runs(self):
        v = [0.0, 1e-9, 1.0, 1.0 + 5e-8, 1.0 + 1e-7, 3.0, 300.0, 300.0 + 2e-5]
        assert gap_runs(v, 1e-7) == [(0, 2), (2, 5), (5, 6), (6, 8)]
        assert gap_runs([], 1e-7) == []
