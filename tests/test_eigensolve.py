import json
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import family_reference
from dense_reference import MetricGraph, NotPositiveMass, solve_below
from fractal_spectra import cli, fiber
from fractal_spectra.eigensolve import (
    SpectrumEntry,
    SpectrumList,
    compare_spectra,
    verify_nesting,
)
from fractal_spectra.errors import MisalignedMeshes, NoConvergence
from fractal_spectra.gasket import SPECTRAL_BOUND, ChouxSpec, choux_family
from fractal_spectra.laakso import LaaksoSpec
from fractal_spectra.metric_graph import DIRICHLET, NEUMANN
from fractal_spectra.strings import StringSpec
from lapack_reference import (
    csr,
    eigenpairs_below,
    generalized_eigh,
    operator,
    residuals,
    standard_form,
)
from csv_reference import spectrum_to_csv
from json_reference import spectrum_from_json, spectrum_to_json
from level_reference import (
    BeyondTruncation,
    choux_levels,
    cluster,
    counting_function,
    total_multiplicity,
)
from mesh_reference import assemble, discretize


def interval_pencil(h, boundary):
    g = MetricGraph([0.0, 1.0], [(0, 1)], 1.0, 1.0, dirichlet=[boundary == DIRICHLET] * 2)
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
    return operator((np.sqrt(M)[:, None] * S) * np.sqrt(M)[None, :], M), vals


def path_blocks(t, copies, seed):
    """The pencil of a random weighted path Laplacian of t vertices with
    random masses, repeated ``copies`` times with zero couplings between
    the copies."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 2.0, t - 1)
    T = sp.diags([-w, np.r_[w, 0.0] + np.r_[0.0, w] + 0.5, -w], [-1, 0, 1])
    return operator(sp.kron(sp.identity(copies), T), np.tile(rng.uniform(0.5, 2.0, t), copies))


def whole_spectrum(d):
    """solve_below with a cut above the spectrum: the Gershgorin bound of
    M^{-1} A, whose eigenvalues are those of the pencil."""
    return solve_below(d, float(np.max(np.ravel(abs(csr(d)).sum(axis=1)) / d.M)))


class TestDense:
    """The dense reference solver (``dense_reference.solve_below``): with a
    cut above the spectrum it returns every eigenvalue."""

    def test_three_node_dirichlet_path(self):
        d = interval_pencil(0.25, DIRICHLET)
        pairs = whole_spectrum(d)
        expect = [9.372583002030481, 32.0, 54.62741699796952]
        assert pairs.values == pytest.approx(expect, rel=1e-12)
        assert pairs.values == pytest.approx(fd_dirichlet(0.25), rel=1e-12)

    def test_one_by_one(self):
        d = operator(np.array([[2.0]]), [1.0])
        assert whole_spectrum(d).values == pytest.approx([2.0])

    def test_neumann_zero_ground_state(self):
        d = interval_pencil(0.125, NEUMANN)
        pairs = whole_spectrum(d)
        assert abs(pairs.values[0]) < 1e-12
        v0 = generalized_eigh(d)[1][:, 0]
        assert np.ptp(v0 / v0[0]) < 1e-10  # constant eigenvector

    def test_residuals_and_m_orthogonality(self):
        """The values are eigenvalues of the pencil: paired with the
        M-orthonormal vectors of LAPACK's generalized driver they leave
        residuals at rounding level."""
        d = interval_pencil(1 / 32, NEUMANN)
        pairs = whole_spectrum(d)
        assert len(pairs.values) == d.n
        values, vectors = generalized_eigh(d)
        assert np.abs(vectors.T @ (d.M[:, None] * vectors) - np.eye(d.n)).max() < 1e-10
        assert residuals(pairs.values, vectors, d).max() < 1e-8
        assert np.all(np.abs(pairs.values - values) <= 1e-10 * np.maximum(1.0, values))

    def test_nonpositive_mass_rejected(self):
        d = operator(sp.identity(3), [1.0, 0.0, 1.0])
        with pytest.raises(NotPositiveMass):
            solve_below(d, 2.0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_full_spectrum_is_lapacks_full_solve(self, m):
        """A cut above the spectrum returns all n values bit for bit as
        LAPACK's full values-only solver (dsytrd, then dsterf) gives them; a
        value range would take bisection."""
        d = choux_levels(ChouxSpec(fiber_depth=0, gasket_level=m, boundary="dirichlet"))[0][0]
        w = scipy.linalg.eigh(standard_form(d), eigvals_only=True, driver="ev")
        pairs = solve_below(d, SPECTRAL_BOUND)
        assert len(pairs.values) == d.n
        assert np.array_equal(pairs.values, w)

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("lam_max", [0.3, 0.7, 1.2])
    def test_partial_spectrum_is_lapacks_subset_solve(self, m, lam_max):
        """A cut inside the spectrum returns the values below it of LAPACK's
        full values-only solver bit for bit, and they agree with its
        values-only subset solver (dsytrd, then dstebz) on the same value
        range to 1e-14 |S|."""
        d = choux_levels(ChouxSpec(fiber_depth=0, gasket_level=m, boundary="dirichlet"))[0][0]
        cut = lam_max * (1 + 1e-12)
        S = standard_form(d)
        whole = scipy.linalg.eigh(S, eigvals_only=True, driver="ev")
        w = scipy.linalg.eigh(S, eigvals_only=True, driver="evx", subset_by_value=(-np.inf, cut))
        pairs = solve_below(d, lam_max)
        assert 0 < len(pairs.values) == len(w) < d.n
        assert np.array_equal(pairs.values, whole[whole <= cut])
        assert np.abs(pairs.values - w).max() <= 1e-14 * np.linalg.norm(S, 2)

    @pytest.mark.parametrize("failure", ["raise", "nan", "short"])
    @pytest.mark.parametrize("whole", [False, True])
    def test_lapack_failure_is_no_convergence(self, monkeypatch, failure, whole):
        """A LAPACK failure (``eigvalsh`` raising LinAlgError), a value that
        is not finite or a value missing is a solver failure."""
        def fail(a, *args, _solver=np.linalg.eigvalsh, **kwargs):
            if failure == "raise":
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            w = _solver(a, *args, **kwargs)
            return np.r_[w[:-1], np.nan] if failure == "nan" else w[1:]

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        d = interval_pencil(1 / 16, NEUMANN)
        lam_max = 2000.0 if whole else 30.0
        with pytest.raises(np.linalg.LinAlgError if failure == "raise" else NoConvergence):
            solve_below(d, lam_max)


class TestLanczos:
    """solve_below against LAPACK's generalized solver."""

    def test_matches_dense_on_interval(self):
        d = interval_pencil(1 / 64, DIRICHLET)
        dense, _ = generalized_eigh(d)
        cut = 0.5 * (dense[11] + dense[12])
        lz = solve_below(d, cut)
        assert lz.values == pytest.approx(dense[:12], rel=1e-8)

    def test_k1_neumann_zero(self):
        pairs = solve_below(interval_pencil(1 / 16, NEUMANN), 1.0)
        assert len(pairs.values) == 1
        assert abs(pairs.values[0]) < 1e-10

    @pytest.mark.parametrize("seed", range(50))
    def test_random_pencils_fifty_seeds(self, seed):
        d, _ = random_pencil(100, seed)
        dense, _ = generalized_eigh(d)
        lz = solve_below(d, 10.5)
        assert lz.values == pytest.approx(dense[:10], rel=1e-8)

    @pytest.mark.parametrize("dense_route", [False, True])
    def test_multiplicities_recovered(self, dense_route):
        """Every copy of a value repeated 4 times: from the dense reduction
        of a pencil with a 4-fold spectrum, and of a tridiagonal pencil that
        splits into 4 equal blocks."""
        if dense_route:
            d, vals = random_pencil(200, 42, mult=4)
            lz = solve_below(d, 4.5)
            assert lz.values == pytest.approx(np.sort(vals)[:16], rel=1e-9)
        else:
            d = path_blocks(30, 4, 42)
            lz = solve_below(d, 2.0)
        dense, _ = eigenpairs_below(d, 4.5 if dense_route else 2.0)
        assert len(lz.values) == len(dense) > 0 and len(dense) % 4 == 0
        assert lz.values == pytest.approx(dense, rel=1e-12)

    def test_every_size_takes_the_dense_reduction(self, monkeypatch):
        """Small and large pencils alike are solved densely by ``eigvalsh``;
        none takes another route."""
        sizes = []

        def spy(a, *args, _solver=np.linalg.eigvalsh, **kwargs):
            sizes.append(a.shape[0])
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        for n in (60, 600):
            d, _ = random_pencil(n, 3)
            dense, _ = generalized_eigh(d)
            assert solve_below(d, 5.5).values == pytest.approx(dense[:5], rel=1e-12)
        assert sizes == [60, 600]

    def test_solve_below_collects_all(self):
        d = interval_pencil(1 / 64, DIRICHLET)
        pairs = solve_below(d, 30 * math.pi**2)
        n_expected = sum(1 for lam in fd_dirichlet(1 / 64) if lam <= 30 * math.pi**2)
        assert len(pairs.values) == n_expected

    def test_nothing_below_the_cut_calls_no_eigensolver(self, monkeypatch):
        """Below the lowest value of a Dirichlet interval: solve_below lists
        no value, and the closed form of its interior path (a run with no
        free end, whose walk values are h^2 / 2 times the pencil's) lists
        none and calls no eigensolver.  A zero mass is refused before any
        solve."""
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolver called with nothing below the cut")

        h = 1 / 64
        d = interval_pencil(h, DIRICHLET)  # lowest value just below pi^2
        assert solve_below(d, 9.0).values.shape == (0,)
        lowest = solve_below(d, 10.0).values
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert np.asarray(fiber._run_values(4 * d.n, 9.0 * h**2 / 2)).shape == (0,)
        walk = np.asarray(fiber._run_values(4 * d.n, 10.0 * h**2 / 2))
        assert walk * (2 / h**2) == pytest.approx(lowest, rel=1e-12) and len(lowest) == 1
        with pytest.raises(NotPositiveMass):
            solve_below(operator(csr(d), np.concatenate([[0.0], d.M[1:]])), 9.0)

    @pytest.mark.parametrize("cut", [0.5, 2.5, 10.5, 37.5, 7.0 + 1e-9, 7.0 - 1e-9, 50.0 + 1e-9])
    def test_inertia_count_matches_dense(self, cut):
        d, _ = random_pencil(200, 42, mult=4)
        dense, _ = generalized_eigh(d)
        assert len(solve_below(d, cut).values) == np.count_nonzero(dense <= cut)

    @pytest.mark.parametrize("family", ["laakso", "string"])
    def test_eigsh_matches_dense_subset_on_family_pencils(self, family):
        """The whole mesh pencil of the deepest level, solved below the cut:
        as many values as LAPACK's generalized driver finds there, equal to
        its values, and with its vectors they leave residuals at rounding
        level."""
        if family == "laakso":
            spec = LaaksoSpec(j=[2, 2], refine=16)
            fam, lam_max = family_reference.build_laakso(spec).graphs, 230.0
        else:
            spec = StringSpec([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)], [1, 2, 1], refine=16)
            fam, lam_max = family_reference.build_stitched(spec).graphs, 2000.0
        d = assemble(discretize(fam[-1], spec.pitch))
        got = solve_below(d, lam_max)
        values, vectors = eigenpairs_below(d, lam_max)
        assert len(got.values) == len(values) > 0
        assert np.all(np.abs(got.values - values) <= 1e-9 * np.maximum(1.0, values))
        assert residuals(got.values, vectors, d).max() <= 1e-8 * lam_max

    def test_repeated_solve_is_bit_identical(self):
        d, _ = random_pencil(200, 42, mult=4)
        a = solve_below(d, 6.5)
        b = solve_below(d, 6.5)
        assert np.array_equal(a.values, b.values)
        d = path_blocks(600, 1, 7)
        assert np.array_equal(solve_below(d, 1.0).values, solve_below(d, 1.0).values)

    @pytest.mark.parametrize("route, lam_max", [("whole", 60.0), ("dense", 4.5)],
                             ids=["whole", "dense"])
    def test_missing_copy_is_refused(self, monkeypatch, route, lam_max):
        """A result one copy short of a repeated eigenvalue is never
        returned: with one value fewer than its order, from a tridiagonal
        pencil of 4 equal blocks (whole) and from a dense one (dense)."""
        d = path_blocks(30, 4, 42) if route == "whole" else random_pencil(200, 42, mult=4)[0]
        solver = np.linalg.eigvalsh

        def drop_a_copy(a, *args, **kwargs):
            w = solver(a, *args, **kwargs)
            return np.delete(w, int(np.argmin(np.abs(w - (2.0 if route == "dense" else w[0])))))

        monkeypatch.setattr(np.linalg, "eigvalsh", drop_a_copy)
        with pytest.raises(NoConvergence):
            solve_below(d, lam_max)

    def test_pipeline_calls_no_linear_algebra(self, monkeypatch, tmp_path):
        """No run calls a function of ``numpy.linalg``: the laakso, choux
        (with its decimation chain) and string commands take every value in
        closed form and exit 0 with each of them refusing."""
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called by a run")

        for name in dir(np.linalg):
            if callable(getattr(np.linalg, name)) and not name[0].isupper() and name[0] != "_":
                monkeypatch.setattr(np.linalg, name, refuse)
        with pytest.raises(AssertionError):
            np.linalg.eigvalsh(np.eye(2))
        runs = {
            "laakso": {"j": [2, 3], "refine": 8, "lambda_max": 400, "boundary": "dirichlet"},
            "choux": {"fiber_depth": 3, "gasket_level": 6, "boundary": "dirichlet"},
            "string": {"lengths": [0.5, 0.25, 0.125, 0.0625], "mults": [1, 2, 1, 3],
                       "refine": 16, "lambda_max": 2000},
        }
        for command, doc in runs.items():
            spec = tmp_path / f"{command}.json"
            spec.write_text(json.dumps(doc))
            assert cli.main([command, "--spec", str(spec), "--out", str(tmp_path / command)]) == \
                cli.EXIT_OK, command


def choux_24_level(boundary, level):
    """One fiber level of choux 2/4 and its spectrum from LAPACK's
    generalized solver (``eigenpairs_below``)."""
    d = choux_levels(ChouxSpec(2, 4, boundary))[0][level]
    return d, eigenpairs_below(d, np.inf)[0]


class TestInertiaGuard:
    """Gasket pencils sit at cuts where a sparse LDL^T with diagonal
    pivoting only (SuperLU in symmetric mode) goes wrong: its permutation
    leaves the diagonal, or a pivot falls near zero and flips the signs
    after it.  The values of the dense reduction count them right."""

    def test_tiny_pivot_count_is_redone(self):
        """At the double just below 1/2 the sparse pivots of choux 2/4 level
        1 count 56, with the smallest |pivot| about 1.7e-16; the spectrum
        has 54 values there and none within 0.15 of the cut."""
        d, dense = choux_24_level(None, 1)
        cut = 0.49999999999999994
        assert np.abs(dense - cut).min() > 0.15
        assert np.count_nonzero(dense < cut) == 54
        assert len(solve_below(d, cut).values) == 54

    @pytest.mark.parametrize("boundary, level, cut",
                             [(None, 0, 0.5), ("dirichlet", 1, 0.25), (None, 2, 0.5)])
    def test_off_diagonal_pivoting_is_recounted(self, boundary, level, cut):
        d, dense = choux_24_level(boundary, level)
        assert np.abs(dense - cut).min() > 5e-3
        assert len(solve_below(d, cut).values) == np.count_nonzero(dense < cut)

    @pytest.mark.parametrize("boundary", [None, "dirichlet"])
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_cuts_off_the_spectrum_count_exactly(self, boundary, level):
        """The package's level route (``fiber.level_spectra`` on the choux
        family, whose pieces take their spectra by spectral decimation)
        counts exactly the dense count of the level pencil at the cuts 0.05
        apart that lie more than 1e-6 from every eigenvalue."""
        _, dense = choux_24_level(boundary, level)
        family = choux_family(ChouxSpec(2, 4, boundary))
        cuts = [c for c in np.arange(0.05, 2.0, 0.05) if np.abs(dense - c).min() > 1e-6]
        counts = [total_multiplicity(fiber.level_spectra(family, c, "{}")[level]) for c in cuts]
        assert counts == [np.count_nonzero(dense < c) for c in cuts]

    @pytest.mark.parametrize("boundary", [None, "dirichlet"])
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_sparse_count_is_exact_or_refused(self, boundary, level):
        """solve_below on the sparse level pencil, at the same cuts: it
        returns exactly the dense count of values, each within 1e-12 of the
        dense one, or refuses the cut; on these pencils it refuses none."""
        d, dense = choux_24_level(boundary, level)
        cuts = [c for c in np.arange(0.05, 2.0, 0.05) if np.abs(dense - c).min() > 1e-6]
        for c in cuts:
            got = solve_below(d, c)
            assert len(got.values) == np.count_nonzero(dense < c), c
            assert np.abs(got.values - dense[:len(got.values)]).max(initial=0.0) <= 1e-12, c


class TestSpectrumListChecks:
    """A spectrum list is checked in one pass over its entries: each value
    finite, the values strictly increasing, each multiplicity >= 1."""

    @pytest.mark.parametrize("entries, message", [
        ([(1.0, 1), (math.nan, 1), (2.0, 1)], "finite"),
        ([(1.0, 1), (math.inf, 1)], "finite"),
        ([(-math.inf, 1), (1.0, 1)], "finite"),
        ([(1.0, 1), (1.0, 2)], "strictly increasing"),
        ([(2.0, 1), (1.0, 1)], "strictly increasing"),
        ([(1.0, 1), (2.0, 0)], ">= 1"),
    ], ids=["nan", "+inf", "-inf", "repeated", "decreasing", "multiplicity-0"])
    def test_bad_entries_raise(self, entries, message):
        with pytest.raises(ValueError, match=message):
            SpectrumList([SpectrumEntry(v, m) for v, m in entries], "numeric", math.inf)

    def test_good_entries_pass(self):
        s = SpectrumList([SpectrumEntry(-1.0, 1), SpectrumEntry(0.0, 3), SpectrumEntry(2.5, 1)],
                         "numeric", 3.0)
        assert s.values() == [-1.0, 0.0, 2.5]
        assert SpectrumList([], "numeric", 3.0).values() == []


class TestNesting:
    def _spectrum(self, values, pitch=0.1):
        entries = [SpectrumEntry(v, 1) for v in values]
        return SpectrumList(entries, "numeric(test)", 100.0, pitch=pitch)

    def test_identical_lists(self):
        a = self._spectrum([1.0, 2.0, 3.0])
        rep = verify_nesting(a, a)
        assert rep["pass"] and rep["surplus"] == 0

    def test_missing_value_reported(self):
        low = self._spectrum([1.0, 2.0, 3.0])
        up = self._spectrum([1.0, 3.0, 5.0])
        rep = verify_nesting(low, up)
        assert rep["unmatched_lower"] == [2.0]
        assert not rep["pass"]
        assert rep["surplus"] == 1  # 5.0

    def test_misaligned_pitch_rejected(self):
        with pytest.raises(MisalignedMeshes):
            verify_nesting(self._spectrum([1.0], pitch=0.1), self._spectrum([1.0], pitch=0.2))


class TestCounting:
    def test_dirichlet_interval(self):
        entries = [SpectrumEntry((k * math.pi) ** 2, 1) for k in range(1, 6)]
        s = SpectrumList(entries, "analytic(test)", 300.0)
        assert counting_function(s, 50.0) == 2
        assert counting_function(s, 5.0) == 0
        assert counting_function(s, 300.0) == total_multiplicity(s)

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

    def _pair(self, lam, value, mult=1):
        """A one-entry analytic list and a one-entry numeric list."""
        return (SpectrumList([SpectrumEntry(value, mult)], "numeric(test)", 1e3),
                SpectrumList([SpectrumEntry(lam, 1)], "analytic(test)", 1e3))

    def test_analytic_vs_itself(self):
        a = self._analytic_interval(1000.0)
        rep = compare_spectra(a, a, 1e-6, 900.0)
        assert rep["pass"] and max(m["rel_dev"] for m in rep["matched"]) == 0.0
        assert len(rep["matched"]) == 9 and rep["count_mismatch"] == 0

    def test_interval_fd_match(self):
        h = 1 / 64
        num = cluster(fd_dirichlet(h, kmax=8), pitch=h, truncation=700.0)
        rep = compare_spectra(num, self._analytic_interval(700.0), h, 700.0)
        assert rep["pass"]
        # the FD error of lambda is at most lambda^2 h^2 / 12
        for m in rep["matched"]:
            assert m["rel_dev"] <= m["analytic"] * h * h / 12
            assert m["mult_analytic"] == m["mult_numeric"] == 1

    def test_pair_bound_is_exact(self):
        """A pair passes between lambda (1 - lambda h^2 / 12) and lambda,
        and fails a little outside either end."""
        h, lam = 0.1, 10.0
        low = lam * (1 - lam * h * h / 12)
        for value, ok in ((lam, True), (low, True), (lam * (1 + 1e-14), False),
                          (low * (1 - 1e-14), False)):
            assert compare_spectra(*self._pair(lam, value), h, 100.0)["pass"] is ok, value

    def test_multiplicities_must_be_equal(self):
        rep = compare_spectra(*self._pair(10.0, 10.0, mult=2), 0.1, 100.0)
        assert not rep["pass"] and rep["mismatched"][0]["mult_numeric"] == 2

    def test_pairs_strictly_below_pi_over_h_squared(self):
        """An analytic value at (pi / h)^2 is not paired: at pitch 1 the
        free-free mesh value 4 has no partner there, and is left over above
        the floor c (1 - c / 12)."""
        h = 1.0
        numeric = SpectrumList([SpectrumEntry(0.0, 1), SpectrumEntry(4.0, 1)], "n", 20.0)
        analytic = SpectrumList([SpectrumEntry(0.0, 1), SpectrumEntry(math.pi**2, 1)], "a", 20.0)
        rep = compare_spectra(numeric, analytic, h, 20.0)
        assert rep["pass"] and [m["analytic"] for m in rep["matched"]] == [0.0]

    def test_leftover_below_the_floor_fails_the_count(self):
        """Analytic values above the cut pair no numeric value at or below
        c (1 - c h^2 / 12); one left over there fails the count, as does an
        analytic value with no numeric one."""
        h, cut = 0.1, 50.0
        analytic = self._analytic_interval(cut)  # pi^2, 4 pi^2
        floor = cut * (1 - cut * h * h / 12)
        extra = cluster(np.array([*fd_dirichlet(h, kmax=2), floor * (1 - 1e-9)]), pitch=h,
                        truncation=cut)
        rep = compare_spectra(extra, analytic, h, cut)
        assert rep["count_mismatch"] == 1 and not rep["pass"]
        above = cluster(np.array([*fd_dirichlet(h, kmax=2), floor * (1 + 1e-9)]), pitch=h,
                        truncation=cut)
        assert compare_spectra(above, analytic, h, cut)["pass"]
        short = cluster(fd_dirichlet(h, kmax=1), pitch=h, truncation=cut)
        rep = compare_spectra(short, analytic, h, cut)
        assert rep["count_mismatch"] == 1 and not rep["pass"]

    def test_order_two_convergence(self):
        h = 1 / 32
        fine = cluster(fd_dirichlet(h / 2, kmax=6), pitch=h / 2, truncation=400.0)
        coarse = cluster(fd_dirichlet(h, kmax=6), pitch=h, truncation=400.0)
        analytic = self._analytic_interval(400.0)
        order = cli._convergence_order(compare_spectra(fine, analytic, h / 2, 400.0),
                                       compare_spectra(coarse, analytic, h, 400.0))
        assert order == pytest.approx(2.0, abs=0.2)
        # deviation ratio per mode in [3.6, 4.4]
        exact = np.array([(k * math.pi) ** 2 for k in range(1, 7)])
        ratio = (fd_dirichlet(h, kmax=6) - exact) / (fd_dirichlet(h / 2, kmax=6) - exact)
        assert np.all((3.6 <= np.abs(ratio)) & (np.abs(ratio) <= 4.4))

    def test_order_counts_no_error_below_1e_10(self):
        """A fine error under 1e-10 relative is roundoff, not a
        finite-difference error: with no other rank the order is None."""
        a, h = self._analytic_interval(400.0), 1 / 32

        def report(shift, pitch):
            numeric = [SpectrumEntry(e.value * (1 - shift), 1) for e in a.entries]
            return compare_spectra(SpectrumList(numeric, "n", 400.0), a, pitch, 400.0)

        coarse = report(4e-5, h)
        assert coarse["pass"] and len(coarse["matched"]) == 6
        assert cli._convergence_order(report(5e-11, h / 2), coarse) is None
        assert cli._convergence_order(report(1e-5, h / 2), coarse) == pytest.approx(2.0)


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

    @pytest.mark.parametrize("field", ["", ",", '"', "\r", "\n", "a,\"b\"\r\nc", "é∂ü", " ;x"])
    def test_csv_is_the_row_by_row_csv_writer(self, field):
        """Each tag and origin is quoted as ``csv.writer`` quotes it in a
        whole row, an empty one included, and reads back."""
        entries = [SpectrumEntry(1.0, 2, field), SpectrumEntry(2.0, 1, "base"),
                   SpectrumEntry(3.0, 3, field)]
        for s in (SpectrumList(entries, field, 10.0), SpectrumList(entries, "numeric", 10.0)):
            text = s.to_csv()
            assert text == spectrum_to_csv(s)
            back = SpectrumList.from_csv(text)
            assert (back.entries, back.origin) == (s.entries, s.origin)

    def test_json_round_trip(self):
        s = self._spectrum()
        s2 = spectrum_from_json(spectrum_to_json(s))
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
