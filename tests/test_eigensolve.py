import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fractal_spectra import eigensolve
from fractal_spectra.eigensolve import (
    FDModel,
    SpectrumEntry,
    SpectrumList,
    cluster,
    compare_spectra,
    counting_function,
    gap_runs,
    _count_below,
    _standard_form,
    richardson,
    solve_below,
    verify_nesting,
)
from fractal_spectra.errors import (
    BeyondTruncation,
    MisalignedMeshes,
    NoConvergence,
    NotPositiveMass,
)
from fractal_spectra.gasket import SPECTRAL_BOUND, ChouxSpec, choux_levels
from fractal_spectra.laakso import LaaksoSpec, build_laakso
from fractal_spectra.metric_graph import (
    DIRICHLET,
    NEUMANN,
    DiscreteOperator,
    MetricGraph,
    Vertex,
    assemble,
    discretize,
)
from fractal_spectra.strings import StringSpec, build_stitched
from lapack_reference import generalized_eigh


def interval_pencil(h, boundary):
    g = MetricGraph(
        [Vertex(0.0, boundary=boundary), Vertex(1.0, boundary=boundary)],
        [(0, 1, 1.0, 1.0)],
    )
    return assemble(discretize(g, h))


def fd_dirichlet(h, kmax=None):
    k = np.arange(1, kmax + 1 if kmax else int(round(1.0 / h)))
    return (2.0 / h**2) * (1.0 - np.cos(k * np.pi * h))


def random_pencil(n, seed, mult=1):
    """Random SPD pencil with known eigenvalues 1,2,... each repeated `mult`."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.repeat(np.arange(1, n // mult + 1, dtype=float), mult)[:n]
    S = (Q * vals) @ Q.T
    M = rng.uniform(0.5, 2.0, n)
    A = sp.csr_matrix((np.sqrt(M)[:, None] * S) * np.sqrt(M)[None, :])
    return DiscreteOperator(A=A, M=M), vals


def whole_spectrum(d):
    """solve_below with a cut above the spectrum: the Gershgorin bound of
    M^{-1} A, whose eigenvalues are those of the pencil."""
    return solve_below(d, float(np.max(np.ravel(abs(d.A).sum(axis=1)) / d.M)))


@pytest.fixture
def eigsh_threshold(monkeypatch):
    """Set the size above which solve_below takes eigsh (0: always)."""
    return lambda n: monkeypatch.setattr(eigensolve, "EIGSH_THRESHOLD", n)


class TestDense:
    """solve_below with a cut above the spectrum returns every eigenpair."""

    def test_three_node_dirichlet_path(self):
        d = interval_pencil(0.25, DIRICHLET)
        pairs = whole_spectrum(d)
        expect = [9.372583002030481, 32.0, 54.62741699796952]
        assert pairs.values == pytest.approx(expect, rel=1e-12)
        assert pairs.values == pytest.approx(fd_dirichlet(0.25), rel=1e-12)

    def test_one_by_one(self):
        d = DiscreteOperator(A=sp.csr_matrix(np.array([[2.0]])), M=np.array([1.0]))
        assert whole_spectrum(d).values == pytest.approx([2.0])

    def test_neumann_zero_ground_state(self):
        pairs = whole_spectrum(interval_pencil(0.125, NEUMANN))
        assert abs(pairs.values[0]) < 1e-12
        v0 = pairs.vectors[:, 0]
        assert np.ptp(v0 / v0[0]) < 1e-10  # constant eigenvector

    def test_residuals_and_m_orthogonality(self):
        d = interval_pencil(1 / 32, NEUMANN)
        pairs = whole_spectrum(d)
        assert len(pairs.values) == pairs.inertia_count == d.n
        assert pairs.residuals(d).max() < 1e-8
        G = pairs.vectors.T @ (d.M[:, None] * pairs.vectors)
        assert np.abs(G - np.eye(G.shape[0])).max() < 1e-10

    def test_nonpositive_mass_rejected(self):
        d = DiscreteOperator(A=sp.identity(3, format="csr"), M=np.array([1.0, 0.0, 1.0]))
        with pytest.raises(NotPositiveMass):
            solve_below(d, 2.0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_full_spectrum_is_lapacks_full_solve(self, m):
        """A cut above the spectrum returns all n pairs bit for bit as LAPACK's
        full solver gives them (a value range would take bisection)."""
        d = choux_levels(ChouxSpec(fiber_depth=0, gasket_level=m, boundary="dirichlet"))[0][0]
        S, ms = _standard_form(d)
        w, Y = scipy.linalg.eigh(S.toarray())
        pairs = solve_below(d, SPECTRAL_BOUND)
        assert pairs.inertia_count == len(pairs.values) == d.n
        assert np.array_equal(pairs.values, w)
        assert np.array_equal(pairs.vectors, ms[:, None] * Y)


class TestLanczos:
    """solve_below against LAPACK's generalized solver; an EIGSH_THRESHOLD of
    0 forces shift-invert eigsh."""

    def test_matches_dense_on_interval(self, eigsh_threshold):
        d = interval_pencil(1 / 64, DIRICHLET)
        dense, _ = generalized_eigh(d)
        cut = 0.5 * (dense[11] + dense[12])
        eigsh_threshold(0)
        lz = solve_below(d, cut)
        assert lz.values == pytest.approx(dense[:12], rel=1e-8)

    def test_k1_neumann_zero(self, eigsh_threshold):
        eigsh_threshold(0)
        pairs = solve_below(interval_pencil(1 / 16, NEUMANN), 1.0)
        assert len(pairs.values) == 1
        assert abs(pairs.values[0]) < 1e-10

    @pytest.mark.parametrize("seed", range(50))
    def test_random_pencils_fifty_seeds(self, seed, eigsh_threshold):
        d, _ = random_pencil(100, seed)
        dense, _ = generalized_eigh(d)
        eigsh_threshold(0)
        lz = solve_below(d, 10.5, seed=1000 + seed)
        assert lz.values == pytest.approx(dense[:10], rel=1e-8)

    @pytest.mark.parametrize("dense_route", [False, True])
    def test_multiplicities_recovered(self, dense_route, eigsh_threshold):
        d, vals = random_pencil(200, 42, mult=4)
        dense, _ = generalized_eigh(d)
        eigsh_threshold(10**6 if dense_route else 0)
        lz = solve_below(d, 4.5)
        assert lz.values == pytest.approx(dense[:16], rel=1e-8)
        assert lz.values == pytest.approx(np.sort(vals)[:16], rel=1e-9)

    def test_solve_dispatcher_routes_by_size(self, eigsh_threshold):
        d, _ = random_pencil(60, 3)
        via_dense = solve_below(d, 5.5)
        eigsh_threshold(10)
        via_eigsh = solve_below(d, 5.5)
        assert via_eigsh.values == pytest.approx(via_dense.values, rel=1e-8)

    def test_solve_below_collects_all(self):
        d = interval_pencil(1 / 64, DIRICHLET)
        pairs = solve_below(d, 30 * math.pi**2)
        n_expected = sum(1 for lam in fd_dirichlet(1 / 64) if lam <= 30 * math.pi**2)
        assert len(pairs.values) == n_expected
        assert pairs.inertia_count == n_expected

    @pytest.mark.parametrize("cut", [0.5, 2.5, 10.5, 37.5, 7.0 + 1e-9, 7.0 - 1e-9, 50.0 + 1e-9])
    def test_inertia_count_matches_dense(self, cut):
        d, _ = random_pencil(200, 42, mult=4)
        S, _ = _standard_form(d)
        dense, _ = generalized_eigh(d)
        assert _count_below(S, cut) == np.count_nonzero(dense <= cut)

    @pytest.mark.parametrize("family", ["laakso", "string"])
    def test_eigsh_matches_dense_subset_on_family_pencils(self, family, eigsh_threshold):
        if family == "laakso":
            spec = LaaksoSpec(j=[2, 2], refine=16)
            fam, lam_max = build_laakso(spec), 230.0
        else:
            spec = StringSpec([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)], [1, 2, 1], refine=16)
            fam, lam_max = build_stitched(spec), 2000.0
        d = assemble(discretize(fam.graphs[-1], spec.pitch))
        eigsh_threshold(10**6)
        dense = solve_below(d, lam_max)
        eigsh_threshold(0)
        krylov = solve_below(d, lam_max)
        assert krylov.inertia_count == dense.inertia_count == len(dense.values) == len(krylov.values)
        assert np.all(np.abs(krylov.values - dense.values) <= 1e-9 * np.maximum(1.0, dense.values))
        assert krylov.residuals(d).max() <= 1e-8 * lam_max

    def test_same_seed_is_bit_identical(self, eigsh_threshold):
        d, _ = random_pencil(200, 42, mult=4)
        eigsh_threshold(0)
        a = solve_below(d, 6.5, seed=7)
        b = solve_below(d, 6.5, seed=7)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    @pytest.mark.parametrize(
        "module, name, threshold",
        [(spla, "eigsh", 0), (scipy.linalg, "eigh", 10**6)],
        ids=["eigsh", "dense"],
    )
    def test_missing_copy_is_refused(self, monkeypatch, eigsh_threshold, module, name, threshold):
        """A result one copy short of a repeated eigenvalue is never returned."""
        d, _ = random_pencil(200, 42, mult=4)
        solver = getattr(module, name)

        def drop_a_copy(*args, **kwargs):
            w, Y = solver(*args, **kwargs)
            j = int(np.argmin(np.abs(w - 2.0)))
            return np.delete(w, j), np.delete(Y, j, axis=1)

        monkeypatch.setattr(module, name, drop_a_copy)
        eigsh_threshold(threshold)
        with pytest.raises(NoConvergence):
            solve_below(d, 4.5)


class TestCluster:
    def test_near_duplicates_merge(self):
        s = cluster(np.array([4.0, 4.0 + 1e-12, 9.0]))
        assert [e.multiplicity for e in s.entries] == [2, 1]
        assert [e.value for e in s.entries] == pytest.approx([4.0, 9.0], rel=1e-12)

    def test_empty(self):
        assert cluster(np.array([])).entries == []

    def test_tag_counts(self):
        s = cluster(np.array([4.0, 4.0, 9.0]), tags=["base", "new@1", "base"])
        assert s.entries[0].tag == "basex1;new@1x1"

    def test_gap_runs(self):
        v = [0.0, 1e-9, 1.0, 1.0 + 5e-8, 1.0 + 1e-7, 3.0, 300.0, 300.0 + 2e-5]
        assert gap_runs(v, 1e-7) == [(0, 2), (2, 5), (5, 6), (6, 8)]
        assert gap_runs([], 1e-7) == []


class TestNesting:
    def _spectrum(self, values, pitch=0.1):
        entries = [SpectrumEntry(v, 1) for v in values]
        return SpectrumList(entries, "numeric(test)", 100.0, pitch=pitch)

    def test_identical_lists(self):
        a = self._spectrum([1.0, 2.0, 3.0])
        rep = verify_nesting(a, a)
        assert rep.ok and not rep.surplus

    def test_missing_value_reported(self):
        low = self._spectrum([1.0, 2.0, 3.0])
        up = self._spectrum([1.0, 3.0, 5.0])
        rep = verify_nesting(low, up)
        assert rep.unmatched_lower == [2.0]
        assert not rep.ok
        assert rep.surplus == [5.0]

    def test_misaligned_pitch_rejected(self):
        with pytest.raises(MisalignedMeshes):
            verify_nesting(self._spectrum([1.0], pitch=0.1), self._spectrum([1.0], pitch=0.2))


class TestCounting:
    def test_dirichlet_interval(self):
        entries = [SpectrumEntry((k * math.pi) ** 2, 1) for k in range(1, 6)]
        s = SpectrumList(entries, "analytic(test)", 300.0)
        assert counting_function(s, 50.0) == 2
        assert counting_function(s, 5.0) == 0
        assert counting_function(s, 300.0) == s.total_multiplicity()

    def test_monotone(self):
        entries = [SpectrumEntry(float(v), m) for v, m in [(1, 2), (4, 1), (9, 3)]]
        s = SpectrumList(entries, "analytic(test)", 10.0)
        counts = [counting_function(s, lam) for lam in (0.5, 1.0, 4.0, 9.0, 10.0)]
        assert counts == sorted(counts) == [0, 2, 3, 6, 6]

    def test_beyond_truncation(self):
        s = SpectrumList([SpectrumEntry(1.0, 1)], "analytic(test)", 10.0)
        with pytest.raises(BeyondTruncation):
            counting_function(s, 20.0)


class TestCompare:
    def _analytic_interval(self, lam_max):
        entries = [
            SpectrumEntry((k * math.pi) ** 2, 1)
            for k in range(1, int(math.sqrt(lam_max) / math.pi) + 1)
        ]
        return SpectrumList(entries, "analytic(interval)", lam_max)

    def test_analytic_vs_itself(self):
        a = self._analytic_interval(1000.0)
        rep = compare_spectra(a, a, FDModel(pitch=1e-6), coverage_max=900.0)
        assert rep.ok and rep.max_rel_deviation < 1e-15

    def test_interval_fd_match(self):
        h = 1 / 64
        num = cluster(fd_dirichlet(h, kmax=8), pitch=h, truncation=700.0)
        rep = compare_spectra(num, self._analytic_interval(700.0), FDModel(pitch=h))
        assert rep.ok
        # FD error of mode k is below (k pi h)^2 / 10 relative... actually
        # lambda h^2 / 12; the stated model bound is much looser
        for m in rep.matched:
            assert m["rel_dev"] <= (math.sqrt(m["analytic"]) * h) ** 2 / 10

    def test_order_two_convergence(self):
        h = 1 / 32
        fine = cluster(fd_dirichlet(h / 2, kmax=6), pitch=h / 2, truncation=400.0)
        coarse = cluster(fd_dirichlet(h, kmax=6), pitch=h, truncation=400.0)
        rep = compare_spectra(fine, self._analytic_interval(400.0), FDModel(pitch=h / 2),
                              numeric_coarse=coarse)
        assert rep.convergence_order == pytest.approx(2.0, abs=0.2)
        # deviation ratio per mode in [3.6, 4.4]
        exact = np.array([(k * math.pi) ** 2 for k in range(1, 7)])
        ratio = (fd_dirichlet(h, kmax=6) - exact) / (fd_dirichlet(h / 2, kmax=6) - exact)
        assert np.all((3.6 <= np.abs(ratio)) & (np.abs(ratio) <= 4.4))

    def test_richardson_kills_leading_error(self):
        exact = np.array([(k * math.pi) ** 2 for k in range(1, 7)])
        h = 1 / 32
        extr = richardson(fd_dirichlet(h / 2, kmax=6), fd_dirichlet(h, kmax=6))
        assert np.abs(extr - exact).max() < np.abs(fd_dirichlet(h / 2, kmax=6) - exact).max() / 50


class TestSerialization:
    def _spectrum(self):
        entries = [SpectrumEntry(1.2345678901234567, 2, "base"), SpectrumEntry(9.0, 1, "new@1")]
        return SpectrumList(entries, "numeric(test)", 10.0, pitch=0.015625)

    def test_csv_round_trip(self):
        s = self._spectrum()
        text = s.to_csv()
        assert text.splitlines()[0] == "eigenvalue,multiplicity,tag,source"
        s2 = SpectrumList.from_csv(text)
        assert s2.to_csv() == text
        assert s2.entries[0].value == s.entries[0].value  # bitwise, via repr

    def test_json_round_trip(self):
        s = self._spectrum()
        s2 = SpectrumList.from_json(s.to_json())
        assert [e.value for e in s2.entries] == [e.value for e in s.entries]
        assert s2.pitch == s.pitch

    def test_reread_csv_counts_only_up_to_its_last_value(self):
        s2 = SpectrumList.from_csv(self._spectrum().to_csv())
        assert s2.truncation == 9.0
        assert counting_function(s2, 9.0) == 3
        with pytest.raises(BeyondTruncation):
            counting_function(s2, 9.5)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            SpectrumList.from_csv("a,b,c\n1,2,3\n")

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            SpectrumList([SpectrumEntry(2.0, 1), SpectrumEntry(1.0, 1)], "x", 10.0)
        with pytest.raises(ValueError):
            SpectrumList([SpectrumEntry(1.0, 0)], "x", 10.0)
