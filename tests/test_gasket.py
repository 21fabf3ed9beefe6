import itertools
import math

import numpy as np
import pytest

from fractal_spectra.eigensolve import solve_below, verify_nesting
from fractal_spectra.errors import ResolutionTooCoarse
from fractal_spectra.fiber import classify_levels
from fractal_spectra.gasket import (
    SPECTRAL_BOUND,
    ChouxSpec,
    build_choux,
    build_gasket,
    choux_levels,
    choux_numeric_spectrum,
    decimation_branch,
    decimation_check,
    gasket_graph_spectrum,
    hausdorff_dimension,
)


class TestGasketGraph:
    @pytest.mark.parametrize("m", range(7))
    def test_closed_form_counts(self, m):
        g = build_gasket(m)
        assert len(g.points) == (3 ** (m + 1) + 3) // 2
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
        from fractal_spectra.gasket import _gasket_metric_graph
        from fractal_spectra.metric_graph import graph_operator

        mg, _, _, _ = _gasket_metric_graph(build_gasket(2))
        d = graph_operator(mg)
        assert np.abs(d.A @ np.ones(d.n)).max() < 1e-12


@pytest.fixture(scope="module")
def dirichlet_spectra():
    return [
        gasket_graph_spectrum(build_gasket(m), boundary="dirichlet")
        for m in range(1, 4)
    ]


class TestDecimation:
    def test_level_one_dirichlet_values(self, dirichlet_spectra):
        entries = [(4.0 * e.value, e.multiplicity) for e in dirichlet_spectra[0].entries]
        assert entries == [(pytest.approx(2.0), 1), (pytest.approx(5.0), 2)]

    def test_all_levels_fully_explained(self, dirichlet_spectra):
        for lo, hi in zip(dirichlet_spectra, dirichlet_spectra[1:]):
            rep = decimation_check(lo, hi)
            assert rep["pass"]
            assert rep["fraction_explained"] == 1.0

    def test_zero_is_a_fixed_point(self):
        # lambda' = 0 maps to lambda = 0 under lambda'(5 - lambda')
        assert 0.0 * (5.0 - 0.0) == 0.0

    def test_branch_limits_stabilize(self, dirichlet_spectra):
        branch = decimation_branch(dirichlet_spectra, [1, 2, 3])
        assert abs(branch[2] - branch[1]) / branch[1] < 0.02


class TestChoux:
    def test_fiber_depth_zero_is_plain_gasket(self):
        fam = build_choux(ChouxSpec(fiber_depth=0, gasket_level=2))
        assert len(fam.graphs) == 1
        assert len(fam.graphs[0].vertices) == 15

    def test_depth_one_hand_count(self):
        fam = build_choux(ChouxSpec(fiber_depth=1, gasket_level=1))
        # two level-1 gasket sheets glued along the 3 midpoints
        assert len(fam.graphs[1].vertices) == 2 * 6 - 3

    def test_depth_two_matches_quotient_enumeration(self):
        spec = ChouxSpec(fiber_depth=2, gasket_level=2)
        fam = build_choux(spec)
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
        assert len(fam.graphs[2].vertices) == len(classes)

    def test_resolution_too_coarse(self):
        with pytest.raises(ResolutionTooCoarse):
            ChouxSpec(fiber_depth=3, gasket_level=1)

    def test_nesting_zero_unmatched(self):
        spec = ChouxSpec(fiber_depth=1, gasket_level=2)
        s0 = choux_numeric_spectrum(spec, level=0)
        s1 = choux_numeric_spectrum(spec, level=1)
        rep = verify_nesting(s0, s1)
        assert rep.ok and rep.max_deviation <= 1e-9

    def test_zero_mode_multiplicity_one(self):
        s = choux_numeric_spectrum(ChouxSpec(fiber_depth=1, gasket_level=1))
        assert s.entries[0].value == pytest.approx(0.0, abs=1e-10)
        assert s.entries[0].multiplicity == 1

    def test_new_vectors_vanish_at_glued_vertices(self):
        spec = ChouxSpec(fiber_depth=1, gasket_level=2)
        ops, fibers = choux_levels(spec)
        pairs = solve_below(ops[-1], SPECTRAL_BOUND)
        origins = classify_levels(pairs.values, pairs.vectors, ops, fibers)
        # collapsed vertices are exactly the fixed points of the fiber swap;
        # mean-zero (new) vectors must vanish there
        fixed = np.where(np.bincount(fibers[0].parent) == 1)[0]
        assert len(fixed) > 0
        for idx in np.where(origins == 1)[0]:
            v = pairs.vectors[:, idx]
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
