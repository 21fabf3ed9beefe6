import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from fractal_spectra.eigensolve import FDModel, compare_spectra, solve_below, verify_nesting
from fractal_spectra.errors import InvalidSequence
from fractal_spectra.fiber import classify_levels, fiber_project
from fractal_spectra.gasket import ChouxSpec, choux_numeric_spectra
from fractal_spectra.laakso import (
    LaaksoSpec,
    build_laakso,
    laakso_analytic_spectrum,
    laakso_levels,
    laakso_numeric_spectra,
    laakso_numeric_spectrum,
    wormhole_table,
)
from fractal_spectra.strings import StringSpec, stitched_numeric_spectra

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


class TestBuild:
    def test_depth_one_hand_count(self):
        fam = build_laakso(LaaksoSpec(j=[2]))
        g = fam.graphs[1]
        assert len(g.vertices) == 5
        assert len(g.edges) == 4
        assert all(e.length == 0.5 and e.weight == 0.5 for e in g.edges)

    def test_depth_two_counts_and_measure(self):
        fam = build_laakso(LaaksoSpec(j=[2, 2]))
        g = fam.graphs[2]
        # wormholes at 1/2 (level 1) and 1/4, 3/4 (level 2); total measure 1
        # forces 16 edges of length 1/4 and weight 1/4
        assert len(g.vertices) == 14
        assert len(g.edges) == 16
        assert g.total_measure() == pytest.approx(1.0, abs=1e-15)

    def test_depth_zero_is_unit_interval(self):
        fam = build_laakso(LaaksoSpec(j=[]))
        g = fam.graphs[0]
        assert len(g.vertices) == 2
        assert g.total_measure() == pytest.approx(1.0)

    @pytest.mark.parametrize("j", [[2], [2, 2], [2, 3], [3, 3], [3, 4, 4], [2, 2, 3]])
    def test_counts_match_brute_force_quotient(self, j):
        fam = build_laakso(LaaksoSpec(j=j))
        g = fam.graphs[len(j)]
        assert (len(g.vertices), len(g.edges)) == quotient_counts(j)
        assert g.total_measure() == pytest.approx(1.0, abs=1e-12)

    def test_invalid_sequences_rejected(self):
        with pytest.raises(InvalidSequence):
            LaaksoSpec(j=[2, 4])
        with pytest.raises(InvalidSequence):
            LaaksoSpec(j=[1, 2])
        with pytest.raises(InvalidSequence):
            LaaksoSpec(j=[2], refine=1)

    def test_build_is_deterministic(self):
        a = build_laakso(LaaksoSpec(j=[2, 3])).graphs[2].to_json()
        b = build_laakso(LaaksoSpec(j=[2, 3])).graphs[2].to_json()
        assert a == b

    def test_wormhole_table(self):
        table = wormhole_table(LaaksoSpec(j=[2, 2]))
        assert table[1] == [Fraction(1, 2)]
        assert table[2] == [Fraction(1, 4), Fraction(3, 4)]
        assert not set(table[1]) & set(table[2])


class TestAnalyticSpectrum:
    def test_entries_below_twenty_pi_squared(self):
        s = laakso_analytic_spectrum(LaaksoSpec(j=[2, 2]), 20 * PI2)
        nonzero = [e for e in s.entries if e.value > 1e-12]
        assert [round(e.value / PI2) for e in nonzero] == [1, 4, 9, 16]
        # 16 pi^2 arises from several families at once
        tag16 = nonzero[-1].tag
        assert "f1(n=2,k=1)" in tag16 and "f3(n=1,k=0)" in tag16

    def test_all_perfect_squares_for_constant_two(self):
        s = laakso_analytic_spectrum(LaaksoSpec(j=[2, 2, 2]), 2000 * PI2)
        for e in s.entries:
            if e.value < 1e-12:
                continue
            c = e.value / PI2
            r = round(math.sqrt(c))
            assert abs(r * r - c) < 1e-6 * c

    def test_truncation_below_first_entry(self):
        neumann = laakso_analytic_spectrum(LaaksoSpec(j=[2]), 0.5 * PI2)
        assert [e.value for e in neumann.entries] == [0.0]
        dirichlet = laakso_analytic_spectrum(
            LaaksoSpec(j=[2], boundary="dirichlet"), 0.5 * PI2
        )
        assert dirichlet.entries == []


@pytest.fixture(scope="module")
def run():
    spec = LaaksoSpec(j=[2], refine=64)
    lam_max = 20 * PI2
    return spec, lam_max, laakso_numeric_spectrum(spec, lam_max)


class TestNumericSpectrum:

    def test_matches_analytic_set(self, run):
        spec, lam_max, numeric = run
        analytic = laakso_analytic_spectrum(spec, lam_max)
        rep = compare_spectra(numeric, analytic, FDModel(pitch=spec.pitch),
                              coverage_max=0.8 * lam_max)
        assert rep.ok

    def test_lowest_values(self, run):
        spec, _, numeric = run
        vals = [e.value / PI2 for e in numeric.entries if e.value > 1e-9][:4]
        assert vals == pytest.approx([1, 4, 9, 16], rel=1e-3)

    @pytest.mark.parametrize("family", ["laakso", "string", "choux"])
    def test_multiplicities_add_up_to_inertia_count(self, family):
        if family == "laakso":
            per_level = laakso_numeric_spectra(LaaksoSpec(j=[2], refine=64), 20 * PI2)
        elif family == "string":
            spec = StringSpec([Fraction(1, 2), Fraction(1, 4)], [1, 2], refine=8)
            per_level = stitched_numeric_spectra(spec, 700.0)
        else:
            per_level = choux_numeric_spectra(ChouxSpec(fiber_depth=2, gasket_level=3))
        for numeric in per_level:
            assert numeric.meta["inertia_count"] == numeric.total_multiplicity()

    def test_zero_mode_multiplicity_one(self, run):
        _, _, numeric = run
        assert numeric.entries[0].value == pytest.approx(0.0, abs=1e-10)
        assert numeric.entries[0].multiplicity == 1

    def test_new_vectors_killed_by_projection(self):
        spec = LaaksoSpec(j=[2], refine=8)
        ops, fibers = laakso_levels(spec)
        pairs = solve_below(ops[1], 30 * PI2)
        origins = classify_levels(pairs.values, pairs.vectors, ops[:2], fibers[:1])
        assert np.any(origins == 1)
        for idx in np.where(origins == 1)[0]:
            v = pairs.vectors[:, idx]
            assert np.linalg.norm(fiber_project(fibers[0], v)) <= 1e-8

    def test_pullback_count_matches_lower_level(self):
        spec = LaaksoSpec(j=[2, 2], refine=4)
        lam_max = 40 * PI2
        ops, fibers = laakso_levels(spec)
        pairs = solve_below(ops[2], lam_max)
        origins = classify_levels(pairs.values, pairs.vectors, ops[:3], fibers[:2])
        lower = solve_below(ops[1], lam_max)
        assert int(np.sum(origins <= 1)) == len(lower.values)

    def test_exact_nesting_chain(self):
        spec = LaaksoSpec(j=[2, 3], refine=4)
        levels = [laakso_numeric_spectrum(spec, 60 * PI2, level=i) for i in range(3)]
        for lo, hi in zip(levels, levels[1:]):
            rep = verify_nesting(lo, hi)
            assert rep.ok and rep.max_deviation <= 1e-9
