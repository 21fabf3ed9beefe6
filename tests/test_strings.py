import math
import time
from fractions import Fraction

import numpy as np
import pytest

from fractal_spectra.eigensolve import compare_spectra, verify_nesting
from fractal_spectra.cli import ZETA_S_GRID
from fractal_spectra.errors import InfeasibleNesting
from fractal_spectra.strings import (
    ZETA_DIRECT_TERMS,
    StringSpec,
    rationalize,
    stitched_family,
    stitched_numeric_spectra,
    string_analytic_spectrum,
    zeta_partial,
)
from family_reference import build_stitched, edge_counts, kept_counts
from lapack_reference import eigenpairs_below
from level_reference import classify_levels, counting_function
from mesh_reference import stitched_levels
import strings_reference

PI2 = math.pi**2


def cantor_spec(depth):
    return StringSpec(
        lengths=[Fraction(1, 3**i) for i in range(1, depth + 1)],
        mults=[2 ** (i - 1) for i in range(1, depth + 1)],
    )


def string_workload_zeta_cut():
    """The benchmark's string spec and the cut of its default zeta table."""
    lengths, _ = rationalize([0.5, 0.25, 0.125, 0.0625])
    return StringSpec(lengths, [1, 2, 1, 3], refine=16), (math.pi * 10**4 / 0.5) ** 2


class TestAnalyticSpectrum:
    def test_single_interval(self):
        s = string_analytic_spectrum(StringSpec([Fraction(1)], [1]), 100.0)
        assert [e.value for e in s.entries] == pytest.approx([PI2, 4 * PI2, 9 * PI2])
        assert all(e.multiplicity == 1 for e in s.entries)

    def test_cantor_string_multiplicities(self):
        s = string_analytic_spectrum(cantor_spec(4), 100 * PI2)
        by_value = {round(e.value / PI2): e.multiplicity for e in s.entries}
        assert by_value[9] == 1  # (i=1, k=1)
        assert by_value[36] == 1  # (i=1, k=2)
        assert by_value[81] == 3  # (i=2, k=1) x mult 2  +  (i=1, k=3)

    def test_counting_function_matches_direct_sum(self):
        spec = cantor_spec(4)
        lam = 90 * PI2
        s = string_analytic_spectrum(spec, lam)
        expect = sum(
            m * math.floor(float(l) * math.sqrt(lam) / math.pi)
            for l, m in zip(spec.lengths, spec.mults)
        )
        assert counting_function(s, lam) == expect

    def test_zeta_cut_of_the_string_workload_matches_the_rational_reference(self):
        """The spectrum up to the zeta cut of the benchmark's string spec:
        10 000 entries, each equal to the Fraction-merged reference."""
        spec, lam = string_workload_zeta_cut()
        s, ref = string_analytic_spectrum(spec, lam), strings_reference.string_analytic_spectrum(spec, lam)
        assert len(s.entries) == 10_000
        assert s.entries == ref.entries
        assert s.to_csv() == ref.to_csv()

    def test_truncation_below_first(self):
        s = string_analytic_spectrum(StringSpec([Fraction(1, 2)], [1]), PI2)
        assert s.entries == []


class TestBuilder:
    def test_theta_graph(self):
        spec = StringSpec([Fraction(1, 2)], [3])
        g = build_stitched(spec).graphs[1]
        family = stitched_family(spec)
        # both vertices are Dirichlet ends, so the pieces keep none, and
        # each edge is a run of no vertex
        assert kept_counts(family)[1] == 0 and edge_counts(family) == [1, 3]
        assert g.n_vertices == 2
        assert len(g.ends) == 3
        assert all(length == pytest.approx(0.5) for length in g.length)
        assert all(g.dirichlet)

    def test_two_length_attachment(self):
        spec = StringSpec([Fraction(1, 2), Fraction(1, 4)], [1, 1])
        g = build_stitched(spec).graphs[2]
        # fiber measures are probabilities, so the total measure stays l_1
        assert g.total_measure() == pytest.approx(0.5)
        # a label row starts with the grid index of the vertex's position
        x = (np.asarray(g.labels)[:, 0] * float(spec.grid_unit)).tolist()
        xs = sorted(set(x))
        assert 0.25 in xs  # the attachment point l_1 - l_2
        # the duplicated right-end strand shows as a parallel edge over the
        # cell (1/4, 1/2), each copy carrying half the density
        ends = {frozenset((x[u], x[v])): 0 for u, v in g.ends}
        for u, v in g.ends:
            ends[frozenset((x[u], x[v]))] += 1
        assert ends[frozenset((0.0, 0.25))] == 1
        assert ends[frozenset((0.25, 0.5))] == 2
        parallel = [w for (u, v), w in zip(g.ends, g.weight) if {x[u], x[v]} == {0.25, 0.5}]
        assert parallel == [pytest.approx(0.5)] * 2

    def test_depth_six_cantor_string_builds_in_seconds(self):
        """Enumerating every (position, word) pair of the full product of
        fiber sets took 73 s on a 2-CPU machine for this top level of 604
        vertices and 665 edges; its family, one run per level, gives the
        sizes of every level in milliseconds, the kept vertices being all
        but the two Dirichlet ends."""
        start = time.perf_counter()
        family = stitched_family(cantor_spec(6))
        kept = kept_counts(family)
        elapsed = time.perf_counter() - start
        assert [n + 2 for n in kept] == [244, 244, 404, 508, 572, 604, 604]
        assert edge_counts(family) == [243, 243, 405, 513, 585, 633, 665]
        assert elapsed < 5.0

    def test_single_strand_is_plain_interval(self):
        fam = build_stitched(StringSpec([Fraction(1, 2)], [1])).graphs
        lower, upper = stitched_numeric_spectra(StringSpec([Fraction(1, 2)], [1]), 500.0)
        assert verify_nesting(lower, upper)["surplus"] == 0
        assert fam[1].total_measure() == pytest.approx(0.5)

    def test_increasing_lengths_rejected(self):
        with pytest.raises(InfeasibleNesting):
            StringSpec([Fraction(1, 4), Fraction(1, 2)], [1, 1])

    def test_rationalize_reports_perturbation(self):
        vals, worst = rationalize([0.5, 1 / math.pi], denominator_bound=100)
        assert vals[0] == Fraction(1, 2)
        assert 0 < worst < 1e-3
        exact, none = rationalize([0.5, 0.25], denominator_bound=100)
        assert none == 0.0


class TestNumericSpectrum:
    def test_isospectral_pair(self):
        lam = 700.0
        for spec in (
            StringSpec([Fraction(1, 2), Fraction(1, 4)], [1, 1], refine=16),
            StringSpec([Fraction(1, 2)], [3], refine=16),
        ):
            numeric = stitched_numeric_spectra(spec, lam)[-1]
            analytic = string_analytic_spectrum(spec, lam)
            rep = compare_spectra(numeric, analytic, spec.pitch, lam)
            assert rep["pass"], rep["mismatched"]

    def test_merged_multiplicities(self):
        spec = StringSpec([Fraction(1, 2), Fraction(1, 4)], [1, 1], refine=16)
        numeric = stitched_numeric_spectra(spec, 700.0)[-1]
        # continuum values 4, 16, 36, 64 (in pi^2 units); the collisions at
        # 16 and 64 stay exactly degenerate in FD because both families
        # discretize to the same cosine argument
        assert [e.multiplicity for e in numeric.entries[:4]] == [1, 2, 1, 2]

    def test_theta_multiplicity_three(self):
        numeric = stitched_numeric_spectra(StringSpec([Fraction(1, 2)], [3], refine=16), 700.0)[-1]
        assert all(e.multiplicity == 3 for e in numeric.entries)
        # one pullback plus two mean-zero vectors per eigenvalue
        assert all(e.tag == "basex1;new@1x2" for e in numeric.entries)

    def test_nesting_across_levels(self):
        spec = StringSpec(
            [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)], [2, 1, 2], refine=4
        )
        levels = stitched_numeric_spectra(spec, 900.0)
        for lo, hi in zip(levels, levels[1:]):
            rep = verify_nesting(lo, hi)
            assert rep["pass"] and rep["max_deviation"] <= 1e-9

    def test_new_vectors_vanish_at_attachments(self):
        spec = StringSpec([Fraction(1, 2), Fraction(1, 4)], [1, 1], refine=8)
        ops, fibers = stitched_levels(spec)
        values, vectors = eigenpairs_below(ops[-1], 700.0)
        origins = classify_levels(values, vectors, ops, fibers)
        fs = fibers[-1]
        fixed = np.where(np.bincount(fs.parent) == 1)[0]
        for idx in np.where(origins == len(fibers))[0]:
            v = vectors[:, idx]
            for p in fixed:
                node = np.where(fs.parent == p)[0][0]
                assert abs(v[node]) <= 1e-8

    def test_new_level_values_are_interval_spectrum(self):
        # new-at-level-2 eigenvalues = Dirichlet spectrum of an l_2 interval
        spec = StringSpec([Fraction(1, 2), Fraction(1, 4)], [1, 1], refine=16)
        numeric = stitched_numeric_spectra(spec, 900.0)[-1]
        new_vals = [e.value for e in numeric.entries if "new@2" in e.tag]
        h = spec.pitch
        fd = [(2 / h**2) * (1 - math.cos(k * math.pi * h / 0.25)) for k in (1, 2)]
        assert new_vals == pytest.approx(fd, rel=1e-10)


class TestZeta:
    def test_partial_sum_reaches_one_sixth(self):
        spec = StringSpec([Fraction(1)], [1])
        lam = (math.pi * 10**4) ** 2 * 1.0001
        assert zeta_partial(spec, 1.0, lam) == pytest.approx(1.0 / 6.0, abs=1e-3)

    def test_below_first_eigenvalue(self):
        assert zeta_partial(StringSpec([Fraction(1)], [1]), 1.0, 0.5 * PI2) == 0.0

    def test_homogeneity(self):
        spec = cantor_spec(3)
        scaled = StringSpec([2 * l for l in spec.lengths], spec.mults)
        lam = 500 * PI2
        s_val = 1.25
        a = zeta_partial(spec, s_val, lam)
        b = zeta_partial(scaled, s_val, lam / 4.0)
        assert b == pytest.approx(2 ** (2 * s_val) * a, rel=1e-12)

    def test_unit_string_keeps_the_value_on_its_cut(self):
        """(pi n)^2 / pi^2 rounds below n^2 for n = 1000, so a stop on the
        rounded coefficient would drop the last of the 1000 terms."""
        for s_val in ZETA_S_GRID:
            explicit = math.fsum((math.pi * k) ** (-2 * s_val) for k in range(1, 1001))
            z = zeta_partial(StringSpec([Fraction(1)], [1]), s_val, (math.pi * 1000) ** 2)
            assert z == pytest.approx(explicit, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("s_val", [*ZETA_S_GRID, 0.25, 0.5 + 1e-9, 3.0])
    @pytest.mark.parametrize("terms", [1, ZETA_DIRECT_TERMS - 1, ZETA_DIRECT_TERMS,
                                       ZETA_DIRECT_TERMS + 1, 10**5])
    def test_sum_is_the_sum_over_every_term(self, terms, s_val):
        """The unit string cut at its ``terms``-th value: below
        ``ZETA_DIRECT_TERMS`` terms the sum is taken term by term, from there
        on by Euler-Maclaurin, whose integral is a log at s = 1/2 and loses
        no digits next to it; both within 1e-14 of an exactly rounded sum
        over every term."""
        explicit = math.fsum((math.pi * k) ** (-2 * s_val) for k in range(1, terms + 1))
        z = zeta_partial(StringSpec([Fraction(1)], [1]), s_val, (math.pi * terms) ** 2)
        assert z == pytest.approx(explicit, rel=1e-14, abs=0.0)

    def test_string_workload_matches_the_rational_reference(self):
        """At the zeta cut of the benchmark's string spec the per-string sums
        equal the sum over the Fraction-merged spectrum."""
        spec, lam = string_workload_zeta_cut()
        ref = strings_reference.string_analytic_spectrum(spec, lam)
        for s_val in ZETA_S_GRID:
            merged = math.fsum(e.multiplicity * e.value ** -s_val for e in ref.entries)
            assert zeta_partial(spec, s_val, lam) == pytest.approx(merged, rel=1e-13, abs=0.0)

    def test_string_workload_brackets_the_closed_form_limit(self):
        """Partial sum plus the integral bounds on its tail bracket
        pi^{-2s} zeta(2s) sum_i m_i l_i^{2s}; the cut is the 10 000th value
        of the longest string, so string i keeps 10 000 l_i / l_1 terms."""
        spec, lam = string_workload_zeta_cut()
        terms = [int(10**4 * l / spec.lengths[0]) for l in spec.lengths]
        assert terms == [10_000, 5_000, 2_500, 1_250]
        for s_val in (s for s in ZETA_S_GRID if s > 0.5):
            partial = zeta_partial(spec, s_val, lam)
            lower, upper = strings_reference.zeta_tail_bounds(spec, s_val, terms)
            limit = strings_reference.zeta_limit(spec, s_val)
            assert (partial + lower) * (1 - 1e-13) <= limit <= (partial + upper) * (1 + 1e-13)
