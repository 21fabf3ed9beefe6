import itertools
import math

import numpy as np
import pytest

import family_reference
from dense_reference import path_graph, solve_below
from handfit_reference import handfit_laakso_spectrum
from fractal_spectra.eigensolve import compare_spectra, verify_nesting
from fractal_spectra.errors import InvalidSequence
from fractal_spectra.laakso import (
    LaaksoSpec,
    laakso_analytic_spectrum,
    laakso_family,
    laakso_numeric_spectra,
    laakso_numeric_spectrum,
)
from lapack_reference import eigenpairs_below
from level_reference import assert_matches_reference, classify_levels, fiber_project
from mesh_reference import laakso_levels

PI2 = math.pi**2


def quotient_counts(j):
    """Brute-force vertex/edge count of the level-n product quotient.

    Enumerates ([0,1] grid) x {0,1}^n and glues by union-find, independently
    of the builder's canonical-word construction.
    """
    n = len(j)
    d = [1]
    for jl in j:
        d.append(d[-1] * jl)
    D = d[n]
    words = list(itertools.product((0, 1), repeat=n))
    index = {(i, w): k for k, (i, w) in enumerate(itertools.product(range(D + 1), words))}
    parent = list(range(len(index)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def birth(i):
        for m in range(n + 1):
            if i % (D // d[m]) == 0:
                return m
        return None

    for i in range(1, D):
        m = birth(i)
        if m is None or m == 0:
            continue
        for w in words:
            w2 = list(w)
            w2[m - 1] ^= 1
            ra, rb = find(index[(i, w)]), find(index[(i, tuple(w2))])
            if ra != rb:
                parent[ra] = rb
    n_vertices = len({find(k) for k in index.values()})
    n_edges = D * 2**n
    return n_vertices, n_edges


def level_sizes(spec):
    """(vertices, edges) of each level of a Neumann spec's family: its kept
    vertex counts and the edges its runs span."""
    family = laakso_family(spec)
    return list(zip(family_reference.kept_counts(family), family_reference.edge_counts(family)))


class TestBuild:
    """The level sizes of the family against hand counts and the
    brute-force quotient, and the loop-built graphs of
    ``tests/family_reference.py`` with them."""

    def test_depth_one_hand_count(self):
        spec = LaaksoSpec(j=[2])
        g = family_reference.build_laakso(spec).graphs[1]
        assert level_sizes(spec)[1] == (g.n_vertices, len(g.ends)) == (5, 4)
        assert np.all((np.asarray(g.length) == 0.5) & (np.asarray(g.weight) == 0.5))

    def test_depth_two_counts_and_measure(self):
        spec = LaaksoSpec(j=[2, 2])
        g = family_reference.build_laakso(spec).graphs[2]
        # wormholes at 1/2 (level 1) and 1/4, 3/4 (level 2); total measure 1
        # forces 16 edges of length 1/4 and weight 1/4
        assert level_sizes(spec)[2] == (g.n_vertices, len(g.ends)) == (14, 16)
        assert g.total_measure() == pytest.approx(1.0, abs=1e-15)

    def test_depth_zero_is_unit_interval(self):
        assert level_sizes(LaaksoSpec(j=[])) == [(2, 1)]
        assert path_graph(laakso_family(LaaksoSpec(j=[]))).total_measure() == \
            pytest.approx(1.0)

    @pytest.mark.parametrize("j", [[2], [2, 2], [2, 3], [3, 3], [3, 4, 4], [2, 2, 3]])
    def test_counts_match_brute_force_quotient(self, j):
        g = family_reference.build_laakso(LaaksoSpec(j=j)).graphs[len(j)]
        assert level_sizes(LaaksoSpec(j=j))[-1] == (g.n_vertices, len(g.ends)) == quotient_counts(j)
        assert g.total_measure() == pytest.approx(1.0, abs=1e-12)

    def test_invalid_sequences_rejected(self):
        with pytest.raises(InvalidSequence):
            LaaksoSpec(j=[2, 4])
        with pytest.raises(InvalidSequence):
            LaaksoSpec(j=[1, 2])
        with pytest.raises(InvalidSequence):
            LaaksoSpec(j=[2], refine=1)

    def test_build_is_deterministic(self):
        a, b = (laakso_family(LaaksoSpec(j=[2, 3])).runs for _ in range(2))
        assert all(np.array_equal(x, y) for ra, rb in zip(a, b, strict=True)
                   for x, y in zip(ra, rb, strict=True))

    def test_wormhole_births(self):
        """Grid point k / d_n is born at the first level m whose grid holds
        it: the wormholes are at 1/2 at level 1 and at 1/4 and 3/4 at
        level 2, and the endpoints are never collapsed."""
        spec = LaaksoSpec(j=[2, 2])
        base = laakso_family(spec).base
        assert (base.n_vertices, base.length) == (5, 0.25)  # the grid points k / 4
        assert family_reference.laakso_births(spec) == [0, 2, 1, 2, 0]


def analytic(spec, lam_max):
    return laakso_analytic_spectrum(laakso_family(spec), lam_max)


class TestAnalyticSpectrum:
    def test_entries_below_twenty_pi_squared(self):
        """Level 0 of [2, 2] is the free path of 4 edges, (pi k)^2; level 1
        adds its two end runs of 2 edges with one free end, (pi (2k+1))^2,
        and level 2 the end runs of one edge with one free end, the middle
        run of 2 edges and two single edges with Dirichlet ends."""
        s = analytic(LaaksoSpec(j=[2, 2]), 20 * PI2)
        assert [round(e.value / PI2, 12) for e in s.entries] == [0, 1, 4, 9, 16]
        assert [(e.multiplicity, e.tag) for e in s.entries] == [
            (1, "basex1"), (3, "basex1;new@1x2"), (6, "basex1;new@2x5"), (3, "basex1;new@1x2"),
            (4, "basex1;new@2x3")]

    def test_all_perfect_squares_for_constant_two(self):
        s = analytic(LaaksoSpec(j=[2, 2, 2]), 2000 * PI2)
        for e in s.entries:
            if e.value < 1e-12:
                continue
            c = e.value / PI2
            r = round(math.sqrt(c))
            assert abs(r * r - c) < 1e-6 * c

    def test_truncation_below_first_entry(self):
        neumann = analytic(LaaksoSpec(j=[2]), 0.5 * PI2)
        assert [e.value for e in neumann.entries] == [0.0]
        dirichlet = analytic(LaaksoSpec(j=[2], boundary="dirichlet"), 0.5 * PI2)
        assert dirichlet.entries == []

    def test_a_value_on_the_cut_is_kept(self):
        s = analytic(LaaksoSpec(j=[2, 2]), 16 * PI2)
        assert s.entries[-1].value == pytest.approx(16 * PI2, rel=1e-15)
        assert analytic(LaaksoSpec(j=[2, 2]), 16 * PI2 * (1 - 1e-11)).entries[-1].multiplicity == 3

    @pytest.mark.parametrize("j, boundary", [
        ([2, 3], "neumann"), ([2, 3], "dirichlet"), ([2, 2, 2], "neumann"),
        ([2] * 6, "dirichlet"), ([3, 4], "dirichlet"), ([4, 5], "neumann")])
    def test_value_set_of_the_hand_fit_families(self, j, boundary):
        """On these specs the hand-fit families of ``handfit_reference``
        list the values of the closed form, each once, up to 10^5."""
        spec = LaaksoSpec(j=j, boundary=boundary)
        ours = [e.value / PI2 for e in analytic(spec, 1e5).entries]
        fitted = [e.value / PI2 for e in handfit_laakso_spectrum(spec, 1e5).entries]
        assert ours == pytest.approx(fitted, rel=1e-13, abs=1e-13)

    def test_hand_fit_families_miss_the_half_integer_runs(self):
        """Neumann [3]: the end runs of one edge with one free end have
        (3 pi / 2)^2, which no hand-fit family lists."""
        spec = LaaksoSpec(j=[3])
        ours = [e.value / PI2 for e in analytic(spec, 50.0).entries]
        assert ours[:3] == pytest.approx([0, 1, 2.25], abs=1e-13)
        assert 2.25 not in [round(e.value / PI2, 9) for e in handfit_laakso_spectrum(spec, 50.0).entries]

    def test_hand_fit_tags_name_every_family(self):
        tag16 = handfit_laakso_spectrum(LaaksoSpec(j=[2, 2]), 20 * PI2).entries[-1].tag
        assert "f1(n=2,k=1)" in tag16 and "f3(n=1,k=0)" in tag16


@pytest.fixture(scope="module")
def run():
    spec = LaaksoSpec(j=[2], refine=64)
    lam_max = 20 * PI2
    return spec, lam_max, laakso_numeric_spectrum(spec, lam_max)


class TestNumericSpectrum:

    def test_matches_analytic_set(self, run):
        spec, lam_max, numeric = run
        rep = compare_spectra(numeric, analytic(spec, lam_max), spec.pitch, lam_max)
        assert rep["pass"] and rep["matched"]

    def test_lowest_values(self, run):
        spec, _, numeric = run
        vals = [e.value / PI2 for e in numeric.entries if e.value > 1e-9][:4]
        assert vals == pytest.approx([1, 4, 9, 16], rel=1e-3)

    def test_zero_mode_multiplicity_one(self, run):
        _, _, numeric = run
        assert numeric.entries[0].value == pytest.approx(0.0, abs=1e-10)
        assert numeric.entries[0].multiplicity == 1

    def test_new_vectors_killed_by_projection(self):
        spec = LaaksoSpec(j=[2], refine=8)
        ops, fibers = laakso_levels(spec)
        values, vectors = eigenpairs_below(ops[1], 30 * PI2)
        origins = classify_levels(values, vectors, ops[:2], fibers[:1])
        assert np.any(origins == 1)
        for idx in np.where(origins == 1)[0]:
            v = vectors[:, idx]
            assert np.linalg.norm(fiber_project(fibers[0], v)) <= 1e-8

    def test_pullback_count_matches_lower_level(self):
        spec = LaaksoSpec(j=[2, 2], refine=4)
        lam_max = 40 * PI2
        ops, fibers = laakso_levels(spec)
        origins = classify_levels(*eigenpairs_below(ops[2], lam_max), ops[:3], fibers[:2])
        lower = solve_below(ops[1], lam_max)
        assert int(np.sum(origins <= 1)) == len(lower.values)

    def test_exact_nesting_chain(self):
        spec = LaaksoSpec(j=[2, 3], refine=4)
        levels = laakso_numeric_spectra(spec, 60 * PI2)
        for lo, hi in zip(levels, levels[1:]):
            rep = verify_nesting(lo, hi)
            assert rep["pass"] and rep["max_deviation"] <= 1e-9


def test_dirichlet_j23_cut_past_the_first_edge_mode():
    """At refine 8 the cut 400 lies past the first edge mode
    (4/h^2) sin^2(pi/16) = 350.76...: its cluster joins the edge modes of
    all three levels, x14, and the vertex values of the branches above the
    first are mapped from the whole vertex spectrum."""
    spec = LaaksoSpec(j=[2, 3], refine=8, boundary="dirichlet")
    per_level = laakso_numeric_spectra(spec, 400.0)
    top = per_level[-1].entries[-1]
    assert top.value == pytest.approx(350.7631141879912, rel=1e-10)
    assert (top.multiplicity, top.tag) == (14, "basex1;new@1x2;new@2x11")
    assert_matches_reference(per_level, *laakso_levels(spec), 400.0)
