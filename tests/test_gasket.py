import itertools
import json
import math

import numpy as np
import pytest

import decimation_reference
import dense_reference
import piece_reference
from dense_reference import (
    build_gasket,
    d3_maps,
    dirichlet_chain,
    gasket_graph,
    gasket_graph_spectrum,
    gasket_levels,
    graph_operator,
)
from fractal_spectra import cli, fiber, gasket
from fractal_spectra.eigensolve import verify_nesting
from fractal_spectra.errors import InvalidSpaceSpec, NoConvergence, ResolutionTooCoarse
from fractal_spectra.gasket import (
    DECIMATION_SCALE,
    SPECTRAL_BOUND,
    ChouxSpec,
    choux_family,
    choux_numeric_spectra,
    decimation_branch,
    decimation_chain,
    decimation_check,
    hausdorff_dimension,
    n_points,
)
from fractal_spectra.metric_graph import DIRICHLET, NEUMANN
from lapack_reference import csr, eigenpairs_below
from level_reference import (
    assert_matches_reference,
    choux_levels,
    choux_numeric_spectrum,
    classify_levels,
    total_multiplicity,
)


class TestGasketGraph:
    """The reference gasket graphs of ``tests/dense_reference.py``."""

    @pytest.mark.parametrize("m", range(7))
    def test_closed_form_counts(self, m):
        """|V_m| and |E_m|, which the choux family takes in closed form."""
        g = build_gasket(m)
        assert len(g.points) == n_points(m) == (3 ** (m + 1) + 3) // 2
        assert len(g.edges) == 3 ** (m + 1)

    def test_vertex_sets_nested(self):
        g = build_gasket(3)
        # birth levels partition the vertices and older generations persist
        for m in range(4):
            v_m = sum(1 for b in g.birth if b <= m)
            assert v_m == (3 ** (m + 1) + 3) // 2

    def test_level_zero_triangle_spectrum(self):
        s = gasket_graph_spectrum(build_gasket(0))
        assert [(round(e.value, 12), e.multiplicity) for e in s.entries] == [
            (0.0, 1),
            (1.5, 2),
        ]

    def test_constant_in_kernel(self):
        d = graph_operator(gasket_graph(build_gasket(2)))
        assert np.abs(csr(d) @ np.ones(d.n)).max() < 1e-12

    def test_choux_family_has_no_base_graph(self):
        """The family builds no graph of the gasket."""
        family = choux_family(ChouxSpec(fiber_depth=3, gasket_level=5))
        assert family.base is None


class TestSymmetry:
    @pytest.mark.parametrize("m", range(7))
    def test_maps_are_automorphisms(self, m):
        """Each of the six maps permutes the vertices, carries the pencil of
        the gasket onto itself bit for bit, keeps every birth (so every
        Dirichlet mark of a pâte à choux piece); the rotations fix no vertex
        and the maps compose as e, r, r^2, s, rs, r^2 s."""
        g = build_gasket(m)
        maps = d3_maps(g)
        A = csr(graph_operator(gasket_graph(g))).toarray()
        assert maps.shape == (6, g.n_vertices)
        assert np.array_equal(maps[0], np.arange(g.n_vertices))
        for p in maps:
            assert np.array_equal(np.sort(p), np.arange(g.n_vertices))
            assert np.array_equal(A[p][:, p], A)
            assert np.array_equal(g.birth[p], g.birth)
            for boundary in (None, "dirichlet"):
                marks = np.asarray(gasket_graph(g, boundary).dirichlet)
                assert np.array_equal(marks[p], marks)
        assert not np.any(maps[1:3] == np.arange(g.n_vertices))
        r, r2, s, rs, r2s = maps[1:]
        assert np.array_equal(r[r], r2) and np.array_equal(r[r2], maps[0])
        assert np.array_equal(s[s], maps[0])
        assert np.array_equal(r[s], rs) and np.array_equal(r2[s], r2s)

    def test_orbits_of_the_level_five_gasket(self):
        """n = 366 splits into blocks of 58 (A2), 64 (A1) and 122 (E)."""
        maps = d3_maps(build_gasket(5))
        assert [size for *_, size in dense_reference._symmetry_blocks(maps)] == [58, 64, 122]

    @pytest.mark.parametrize("spec", [ChouxSpec(i, m, boundary)
                                      for i, m in [(1, 2), (2, 3), (3, 4), (3, 5)]
                                      for boundary in (None, "dirichlet")], ids=str)
    def test_pieces_give_the_whole_level_spectra(self, spec):
        """The closed-form pieces against the whole level pencils classified
        by the fiber projectors: multiplicities, tags and counts exactly,
        values to 1e-12 relative (a zero value to 1e-14 absolute)."""
        ops, fibers = choux_levels(spec)
        assert_matches_reference(choux_numeric_spectra(spec), ops, fibers, SPECTRAL_BOUND,
                                 rtol=1e-12, floor=1e-2)

    def test_chain_is_the_dense_gasket_spectra(self):
        """The package's decimation chain, in closed form, equals the dense
        reference chain of the Dirichlet gaskets of levels 1..7 solved in
        their D3 blocks: multiplicities exactly, values to 1e-12 relative
        (floored at 1)."""
        chain, ref = decimation_chain(7), dirichlet_chain(gasket_levels(7))
        assert len(chain) == len(ref) == 7
        for k, (got, want) in enumerate(zip(chain, ref), start=1):
            assert total_multiplicity(got) == n_points(k) - 3
            assert [e.multiplicity for e in got.entries] == [e.multiplicity for e in want.entries]
            dev = np.abs(np.asarray(got.values()) - want.values())
            assert np.all(dev <= 1e-12 * np.maximum(1.0, want.values()))

    @pytest.mark.parametrize("m", range(1, 8))
    def test_neumann_gasket_is_the_dense_gasket_spectrum(self, m):
        """Level 0 of the Neumann pâte à choux is the whole gasket with its
        corners kept: the dense solve in D3 blocks gives its multiplicities
        exactly and its values to 1e-12 relative (floored at 0.01)."""
        values, mult = map(np.asarray, gasket._piece_spectrum(m, 0, 3, math.inf))
        order = np.argsort(values)
        want = gasket_graph_spectrum(build_gasket(m))
        assert mult[order].tolist() == [e.multiplicity for e in want.entries]
        scale = np.maximum(np.abs(want.values()), 1e-2)
        assert np.all(np.abs(values[order] - want.values()) <= 1e-12 * scale)

    def test_dense_chain_solves_each_level_whole_in_its_d3_blocks(self, monkeypatch):
        """On the choux_cli spec neither the pieces nor the decimation chain
        call an eigensolver; the dense reference chain solves the Dirichlet
        gasket of each level 1..5 once, whole, with its six symmetries."""
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolver called by the package")

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", refuse)
            for boundary in (None, "dirichlet"):
                choux_numeric_spectra(ChouxSpec(3, 5, boundary))
            decimation_chain(5)
        solves = []

        def counted(d, lam_max, maps=None, _solve=dense_reference.solve_below):
            solves.append((d.n, None if maps is None else maps.shape))
            return _solve(d, lam_max, maps)

        monkeypatch.setattr(dense_reference, "solve_below", counted)
        dirichlet_chain(gasket_levels(5))
        assert solves == [(n_points(k) - 3, (6, n_points(k) - 3)) for k in range(1, 6)]


@pytest.fixture(scope="module")
def dirichlet_spectra():
    return decimation_chain(3)


class TestDecimation:
    def test_level_one_dirichlet_values(self, dirichlet_spectra):
        entries = [(4.0 * e.value, e.multiplicity) for e in dirichlet_spectra[0].entries]
        assert entries == [(pytest.approx(2.0), 1), (pytest.approx(5.0), 2)]

    def test_all_levels_fully_explained(self, dirichlet_spectra):
        for lo, hi in zip(dirichlet_spectra, dirichlet_spectra[1:]):
            rep = decimation_check(lo, hi)
            assert rep["pass"]
            assert rep["fraction_explained"] == 1.0

    @pytest.mark.parametrize("m", range(1, 11))
    def test_one_pass_chain_is_the_level_by_level_chain(self, m):
        """Each level l of the one-pass chain lists the entries of cluster
        over the sorted spectrum of an explicit loop of l decimation steps
        from level 0, bit for bit."""
        def bits(chain):
            return [[(e.value.hex(), e.multiplicity, e.tag) for e in s.entries] for s in chain]

        chain = decimation_chain(m)
        assert len(chain) == m
        assert bits(chain) == bits(decimation_reference.decimation_chain(m))

    @pytest.mark.parametrize("m", range(0, 8))
    def test_piece_spectrum_is_the_explicit_loop(self, m):
        """_piece_spectrum(m, level, key, inf) ends on the iterate of the explicit
        loop of m - level decimation steps, bit for bit, for every piece of
        choux_family over the level-m gasket under both boundaries."""
        for boundary in (DIRICHLET, NEUMANN):
            family = choux_family(ChouxSpec(m, m, boundary))
            for level, (keys, _) in enumerate(family.runs):
                for key in np.asarray(keys).tolist():
                    got = gasket._piece_spectrum(m, level, key, math.inf)
                    ref = decimation_reference.piece_spectrum(m, level, key)
                    assert np.asarray(got[0]).tobytes() == ref[0].tobytes()
                    assert np.asarray(got[1]).tolist() == ref[1].tolist()

    def test_zero_is_a_fixed_point(self):
        # lambda' = 0 maps to lambda = 0 under lambda'(5 - lambda')
        assert 0.0 * (5.0 - 0.0) == 0.0

    def test_branch_limits_stabilize(self, dirichlet_spectra):
        branch = decimation_branch(dirichlet_spectra, [1, 2, 3])
        assert abs(branch[2] - branch[1]) / branch[1] < 0.02


def decimation_spectrum(m: int) -> list[tuple[float, int]]:
    """Exact Dirichlet spectrum of -Delta_m = 4 I - W on the interior of the
    level-m gasket, as sorted (eigenvalue, multiplicity) pairs, from spectral
    decimation (Fukushima & Shima 1992; Strichartz 2006, ch. 3).

    Level 1 is {2: 1, 5: 2}.  Each eigenvalue x of level m - 1 continues to
    the preimages psi_-(x) and psi_+(x) of phi(y) = y (5 - y) with its
    multiplicity, except that 6 continues only to psi_+(6) = 3, because
    psi_-(6) = 2 is forbidden.  Level m >= 2 adds the 5-series, 5 with
    multiplicity (3^(m-1) + 3) / 2, and the 6-series, 6 with multiplicity
    (3^m - 3) / 2; the multiplicities then add up to the (3^(m+1) - 3) / 2
    interior vertices.  No two chains meet, so no value repeats.
    """
    spectrum = {2.0: 1, 5.0: 2}
    for level in range(2, m + 1):
        nxt = {5.0: (3 ** (level - 1) + 3) // 2, 6.0: (3**level - 3) // 2}
        for x, mult in spectrum.items():
            root = math.sqrt(25.0 - 4.0 * x)
            nxt[(5.0 + root) / 2] = mult  # psi_+
            if x != 6.0:
                nxt[2.0 * x / (5.0 + root)] = mult  # psi_-, free of cancellation
        spectrum = nxt
    return sorted(spectrum.items())


@pytest.mark.parametrize("m", range(1, 8))
def test_dirichlet_gasket_spectrum_is_the_decimation_spectrum(m):
    """The dense reference's values-only whole-spectrum solve against the
    exact spectrum: values to 1e-10 relative, multiplicities exactly."""
    exact = decimation_spectrum(m)
    got = gasket_graph_spectrum(build_gasket(m), "dirichlet")
    assert sum(mult for _, mult in exact) == total_multiplicity(got) == (3 ** (m + 1) - 3) // 2
    assert [e.multiplicity for e in got.entries] == [mult for _, mult in exact]
    values = DECIMATION_SCALE * np.asarray(got.values())
    want = np.array([x for x, _ in exact])
    assert np.all(np.abs(values - want) <= 1e-10 * want)


class TestClosedForm:
    """Every pâte à choux piece takes its spectrum by spectral decimation
    (``gasket._piece_spectrum``); the dense piece route of
    ``tests/piece_reference.py``, one component per D3 orbit, is its
    reference."""

    @pytest.mark.parametrize("spec", [ChouxSpec(i, m, boundary) for m in range(7)
                                      for i in range(m + 1)
                                      for boundary in (None, "dirichlet")], ids=str)
    def test_pieces_are_the_dense_piece_route(self, spec):
        """Every i <= m <= 6 on both boundaries: tags, multiplicities and
        counts exactly, values to 1e-12 relative; the scale is floored at
        0.01, as the dense route gives the smallest values only to about
        1e-16 absolute (1.2e-12 relative at gasket level 6)."""
        piece_reference.assert_same_levels(choux_numeric_spectra(spec),
                                           piece_reference.choux_spectra(spec))

    @pytest.mark.parametrize("m", range(1, 8))
    def test_whole_dirichlet_gasket_is_the_decimation_spectrum(self, m):
        """Level 0 with its corners eliminated is the whole Dirichlet
        gasket: value for value the bits of ``decimation_spectrum``."""
        values, mult = map(np.asarray, gasket._piece_spectrum(m, 0, 0, math.inf))
        order = np.argsort(values)
        got = list(zip((DECIMATION_SCALE * values[order]).tolist(), mult[order].tolist()))
        assert got == decimation_spectrum(m)

    def test_zero_and_six_are_told_by_equality(self):
        """0 continues only to psi_-(0) = 0 and 6 only to psi_+(6) = 3, but
        the psi_- chain of 4 at 30 steps, below 1e-20, is no zero: it
        continues to both of its preimages, psi_+ rounding to 5."""
        small = 4.0
        for _ in range(30):
            small = 2 * small / (5 + math.sqrt(25 - 4 * small))
        x, c = gasket._decimate(np.array([0.0, 6.0, small]), np.array([1, 2, 1]), 3, 9, 0)
        assert sorted(zip(np.asarray(x).tolist(), np.asarray(c).tolist())) == [
            (0.0, 1), (2 * small / (5 + math.sqrt(25 - 4 * small)), 1), (3.0, 2), (5.0, 1),
            (5.0, 9 - 5), (6.0, 3)]  # 5 takes the 9 born less the 5 continued
        assert 0 < small < 1e-20

    def test_neumann_zero_mode_is_exactly_zero(self):
        spectrum = choux_numeric_spectra(ChouxSpec(3, 7))
        for level in spectrum:
            assert (level.entries[0].value, level.entries[0].multiplicity) == (0.0, 1)

    def test_negative_count_is_no_convergence(self):
        """Counts the gasket cannot hold: 4 five times continues to ten
        values where nine vertices are born, leaving -1 for 5; and 2 asked
        for -1 times."""
        with pytest.raises(NoConvergence, match="-1 for 5"):
            gasket._decimate(np.array([4.0]), np.array([5]), 5, 9, 0)
        with pytest.raises(NoConvergence, match="-1 for 2"):
            gasket._decimate(np.array([4.0]), np.array([1]), 1, 9, -1)

    def test_doctored_count_exits_3(self, tmp_path, monkeypatch):
        """A piece handed twice its counts at each step runs out of room
        for 5, and the run exits with the solver code."""
        def doctored(x, c, *args, _decimate=gasket._decimate):
            return _decimate(x, 2 * np.asarray(c), *args)

        monkeypatch.setattr(gasket, "_decimate", doctored)
        spec = tmp_path / "spec.json"
        spec.write_text('{"fiber_depth": 1, "gasket_level": 3}')
        assert cli.main(["choux", "--spec", str(spec), "--out", str(tmp_path / "o")]) == \
            cli.EXIT_SOLVER


    def test_level_eleven_lists_every_distinct_value(self):
        """Choux 3/11 Dirichlet: the top level has one entry per distinct
        closed-form value, 4991 of them (a merge by gaps of 1e-7 relative
        joins some into 4986), and its multiplicities add up to the number
        of values of its pieces."""
        spec = ChouxSpec(3, 11, "dirichlet")
        top = choux_numeric_spectra(spec)[-1]
        new = fiber._level_values(choux_family(spec), SPECTRAL_BOUND)
        distinct = np.unique(np.concatenate([np.asarray(values)[np.asarray(counts) > 0]
                                             for values, counts in new]))
        assert len(top.entries) == len(distinct) == 4991
        assert np.array_equal(top.values(), distinct)
        assert total_multiplicity(top) == sum(sum(counts) for _, counts in new)

    @pytest.mark.parametrize("boundary", ["neumann", "dirichlet"])
    def test_level_twelve_runs_and_verifies(self, tmp_path, boundary):
        """Choux 3/12 runs and passes ``verify`` under both boundaries: its
        close distinct values are not chained into one cluster and refused
        (``NoConvergence``), as a merge by gaps refused them."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"fiber_depth": 3, "gasket_level": 12, "boundary": boundary}))
        out = tmp_path / "o"
        assert cli.main(["choux", "--spec", str(spec), "--out", str(out)]) == cli.EXIT_OK
        assert cli.main(["verify", "--out", str(out)]) == cli.EXIT_OK

class TestChoux:
    @staticmethod
    def kept(spec):
        """The vertex count of each level of a Neumann spec's family: the
        multiplicities of the level's whole spectrum add up to it."""
        return [total_multiplicity(s) for s in choux_numeric_spectra(spec)]

    def test_fiber_depth_zero_is_plain_gasket(self):
        assert self.kept(ChouxSpec(fiber_depth=0, gasket_level=2)) == [15]

    def test_depth_one_hand_count(self):
        # two level-1 gasket sheets glued along the 3 midpoints
        assert self.kept(ChouxSpec(fiber_depth=1, gasket_level=1))[1] == 2 * 6 - 3

    def test_depth_two_matches_quotient_enumeration(self):
        spec = ChouxSpec(fiber_depth=2, gasket_level=2)
        g = build_gasket(2)
        # brute-force quotient of V_2 x {0,1}^2 under coordinate collapse at
        # birth-level vertices
        classes = set()
        for vi, b in enumerate(g.birth):
            for w in itertools.product((0, 1), repeat=2):
                w = list(w)
                if 1 <= b <= 2:
                    w[b - 1] = 0
                classes.add((vi, tuple(w)))
        assert self.kept(spec)[2] == len(classes)

    def test_resolution_too_coarse(self):
        with pytest.raises(ResolutionTooCoarse):
            ChouxSpec(fiber_depth=3, gasket_level=1)

    def test_unknown_boundary_rejected(self):
        with pytest.raises(InvalidSpaceSpec):
            ChouxSpec(fiber_depth=1, gasket_level=2, boundary="dirichet")

    def test_nesting_zero_unmatched(self):
        spec = ChouxSpec(fiber_depth=1, gasket_level=2)
        s0, s1 = choux_numeric_spectra(spec)
        rep = verify_nesting(s0, s1)
        assert rep["pass"] and rep["max_deviation"] <= 1e-9

    def test_zero_mode_multiplicity_one(self):
        s = choux_numeric_spectrum(ChouxSpec(fiber_depth=1, gasket_level=1))
        assert s.entries[0].value == pytest.approx(0.0, abs=1e-10)
        assert s.entries[0].multiplicity == 1

    def test_new_vectors_vanish_at_glued_vertices(self):
        spec = ChouxSpec(fiber_depth=1, gasket_level=2)
        ops, fibers = choux_levels(spec)
        values, vectors = eigenpairs_below(ops[-1], SPECTRAL_BOUND)
        origins = classify_levels(values, vectors, ops, fibers)
        # collapsed vertices are exactly the fixed points of the fiber swap;
        # mean-zero (new) vectors must vanish there
        fixed = np.where(np.bincount(fibers[0].parent) == 1)[0]
        assert len(fixed) > 0
        for idx in np.where(origins == 1)[0]:
            v = vectors[:, idx]
            for p in fixed:
                node = np.where(fibers[0].parent == p)[0][0]
                assert abs(v[node]) <= 1e-8


class TestDimension:
    def test_closed_form(self):
        assert hausdorff_dimension() == math.log(6) / math.log(2)
        assert hausdorff_dimension() == pytest.approx(1 + math.log(3) / math.log(2), rel=1e-15)

    def test_box_count_slope_diagnostic(self):
        # vertex counts grow like 3^m at scale 2^-m: slope -> log3/log2 = dim(SG)
        counts = [len(build_gasket(m).points) for m in range(2, 7)]
        slopes = [
            math.log(b / a) / math.log(2) for a, b in zip(counts, counts[1:])
        ]
        assert 1 + slopes[-1] == pytest.approx(hausdorff_dimension(), rel=0.05)
