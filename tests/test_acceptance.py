"""Acceptance suite: eight criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live;
without ``-s`` they appear in the captured-output section of any failure.
"""

import contextlib
import filecmp
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from fractal_spectra import cli, fiber, gasket, laakso, strings
from fractal_spectra.eigensolve import (
    FDModel,
    cluster,
    compare_spectra,
    richardson,
    solve_below,
    verify_nesting,
)
from fractal_spectra.metric_graph import Edge, MetricGraph, Vertex, assemble, discretize


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({name}): FAIL")
        raise
    print(f"criterion {num} ({name}): PASS")


def mnorm(M, v):
    return math.sqrt(float(v @ (M * v)))


def interval_operator(h):
    g = MetricGraph(
        [Vertex(0.0, (), "dirichlet"), Vertex(1.0, (), "dirichlet")],
        [Edge(0, 1, 1.0, 1.0)],
    )
    return assemble(discretize(g, h))


def test_criterion_1_interval_oracle():
    with criterion(1, "interval FD oracle, order-2 convergence"):
        t0 = time.perf_counter()
        h = 1.0 / 128
        # the FD eigenvalues (2/h^2)(1 - cos(k pi h)) all lie below 4/h^2
        vals = solve_below(interval_operator(h), 4 / h**2).values
        k = np.arange(1, len(vals) + 1)
        exact_fd = (2.0 / h**2) * (1.0 - np.cos(k * math.pi * h))
        assert np.max(np.abs(vals[:20] / exact_fd[:20] - 1.0)) <= 1e-10
        continuum = (k[:20] * math.pi) ** 2
        err_h = np.abs(vals[:20] - continuum)
        vals2 = solve_below(interval_operator(h / 2), 4 / (h / 2) ** 2).values[:20]
        err_h2 = np.abs(vals2 - continuum)
        ratio = err_h / err_h2
        assert np.all(ratio >= 3.6) and np.all(ratio <= 4.4)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_laakso_reproduction():
    with criterion(2, "Laakso closed-form spectrum via Richardson"):
        t0 = time.perf_counter()
        for j in ([2], [2, 2], [2, 2, 2]):
            raw = {}
            for refine in (64, 32):
                spec = laakso.LaaksoSpec(j=list(j), refine=refine)
                fam = laakso.build_laakso(spec)
                op = assemble(discretize(fam.graphs[-1], spec.pitch))
                raw[refine] = solve_below(op, 230.0).values
            fine_pitch = laakso.LaaksoSpec(j=list(j), refine=64).pitch
            m = min(len(raw[64]), len(raw[32]))
            extrap = np.sort(richardson(raw[64][:m], raw[32][:m]))
            extrap = extrap[extrap <= 200.0]
            numeric = cluster(extrap, origin="richardson", truncation=200.0,
                              pitch=fine_pitch)
            analytic = laakso.laakso_analytic_spectrum(
                laakso.LaaksoSpec(j=list(j), refine=64), 200.0
            )
            report = compare_spectra(
                numeric, analytic, FDModel(pitch=fine_pitch), coverage_max=150.0
            )
            assert report.ok, (j, report.to_dict())
        assert time.perf_counter() - t0 < 60.0


def test_criterion_3_exact_nesting():
    with criterion(3, "exact spectral nesting at aligned pitch"):
        chains = []
        lspec = laakso.LaaksoSpec(j=[2, 2, 2], refine=8)
        chains.append([laakso.laakso_numeric_spectrum(lspec, 200.0, level=i)
                       for i in range(4)])
        cspec = gasket.ChouxSpec(fiber_depth=2, gasket_level=2)
        chains.append([gasket.choux_numeric_spectrum(cspec, level=i)
                       for i in range(3)])
        sspec = strings.StringSpec(
            [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)], [1, 1, 1], refine=8
        )
        chains.append([strings.stitched_numeric_spectrum(sspec, 700.0, level=i)
                       for i in range(4)])
        for chain in chains:
            for lo, hi in zip(chain, chain[1:]):
                rep = verify_nesting(lo, hi, tol=1e-9)
                assert rep.ok, rep.to_dict()
                assert rep.unmatched_lower == []
                assert rep.max_deviation <= 1e-9


def test_criterion_4_fiber_decomposition():
    with criterion(4, "fiber projector classification and commutator"):
        cases = []
        for (ops, fibers), solve in (
            (laakso.laakso_levels(laakso.LaaksoSpec(j=[2, 2], refine=8)),
             lambda op: solve_below(op, 200.0)),
            (gasket.choux_levels(gasket.ChouxSpec(fiber_depth=2, gasket_level=2)),
             lambda op: solve_below(op, gasket.SPECTRAL_BOUND)),
            (strings.stitched_levels(
                strings.StringSpec([Fraction(1, 2), Fraction(1, 4)], [1, 1], refine=8)),
             lambda op: solve_below(op, 700.0)),
        ):
            pairs = solve(ops[-1])
            fiber.classify_levels(pairs.values, pairs.vectors, ops, fibers)
            cases.append((pairs, ops[-1], fibers[-1]))

        rng = np.random.default_rng(0)
        for pairs, op, fs in cases:
            rotated, _ = fiber.new_subspace_split(
                pairs.values, pairs.vectors, op.M, fs
            )
            for jcol in range(rotated.shape[1]):
                v = rotated[:, jcol]
                pv = fiber.fiber_project(fs, v)
                assert min(mnorm(op.M, pv - v), mnorm(op.M, pv)) <= 1e-8
            for _ in range(100):
                x = rng.standard_normal(op.n)
                x /= mnorm(op.M, x)
                lap = lambda y: (op.A @ y) / op.M
                comm = lap(fiber.fiber_project(fs, x)) - fiber.fiber_project(fs, lap(x))
                assert mnorm(op.M, comm) <= 1e-10


def test_criterion_5_string_isospectrality():
    with criterion(5, "string isospectrality with exact multiplicities"):
        t0 = time.perf_counter()
        pi2 = math.pi**2

        spec = strings.StringSpec([Fraction(1, 2), Fraction(1, 4)], [1, 1], refine=16)
        analytic = strings.string_analytic_spectrum(spec, 700.0)
        numeric = strings.stitched_numeric_spectrum(spec, 700.0)
        iso = strings.isospectrality_report(
            numeric, analytic, FDModel(pitch=spec.pitch), 700.0
        )
        assert iso["pass"], iso["mismatched"]
        for coincidence in (16 * pi2, 64 * pi2):
            (ae,) = [e for e in analytic.entries
                     if abs(e.value - coincidence) < 1e-6]
            assert ae.multiplicity == 2
            (item,) = [it for it in iso["matched"]
                       if abs(it["analytic"] - coincidence) < 1e-6]
            assert item["mult_numeric"] == 2

        theta = strings.StringSpec([Fraction(1, 2)], [3], refine=16)
        t_analytic = strings.string_analytic_spectrum(theta, 700.0)
        t_numeric = strings.stitched_numeric_spectrum(theta, 700.0)
        t_iso = strings.isospectrality_report(
            t_numeric, t_analytic, FDModel(pitch=theta.pitch), 700.0
        )
        assert t_iso["pass"], t_iso["mismatched"]
        assert [e.multiplicity for e in t_analytic.entries if e.value > 1e-12] == [3, 3, 3, 3]
        first = next(e for e in t_numeric.entries if e.value > 1e-12)
        tol = FDModel(pitch=theta.pitch).rel_tol(4 * pi2) * 4 * pi2
        assert first.multiplicity == 3 and abs(first.value - 4 * pi2) <= tol

        assert time.perf_counter() - t0 < 10.0


def test_criterion_6_zeta():
    with criterion(6, "string zeta partial sum and homogeneity"):
        unit = strings.StringSpec([Fraction(1, 1)], [1])
        z = strings.zeta_partial(unit, 1.0, (math.pi * 10**4) ** 2)
        assert abs(z - 1.0 / 6.0) <= 1e-3

        base = strings.StringSpec([Fraction(1, 2), Fraction(1, 4)], [1, 2])
        scaled = strings.StringSpec([Fraction(1, 1), Fraction(1, 2)], [1, 2])
        a = strings.string_analytic_spectrum(base, 4000.0).values()
        b = strings.string_analytic_spectrum(scaled, 1000.0).values()
        assert len(a) == len(b) and np.array_equal(b, a / 4.0)


def test_criterion_7_gasket_decimation():
    with criterion(7, "gasket decimation, counts, dimension"):
        spectra = {
            m: gasket.gasket_graph_spectrum(gasket.build_gasket(m), boundary="dirichlet")
            for m in range(1, 5)
        }
        for m in (1, 2, 3):
            check = gasket.decimation_check(spectra[m], spectra[m + 1])
            assert check["pass"] and check["fraction_explained"] == 1.0

        for m in range(7):
            g = gasket.build_gasket(m)
            assert g.n_vertices == (3 ** (m + 1) + 3) // 2
            assert len(g.edges) == 3 ** (m + 1)

        assert gasket.hausdorff_dimension() == pytest.approx(
            math.log(6) / math.log(2), rel=1e-15
        )


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "byte-identical CLI reruns"):
        specs = {
            "laakso": {"j": [2], "refine": 16, "lambda_max": 100.0},
            "string": {"lengths": [0.5, 0.25], "mults": [1, 1],
                       "refine": 8, "lambda_max": 400.0, "zeta_terms": 100},
            "choux": {"fiber_depth": 1, "gasket_level": 2},
        }
        for command, doc in specs.items():
            spec_path = tmp_path / f"{command}.json"
            spec_path.write_text(json.dumps(doc))
            outs = []
            for run in ("a", "b"):
                out = tmp_path / f"{command}_{run}"
                assert cli.main([command, "--spec", str(spec_path),
                                 "--out", str(out)]) == 0
                outs.append(out)
            for f in sorted(outs[0].iterdir()):
                assert filecmp.cmp(f, outs[1] / f.name, shallow=False), f.name
