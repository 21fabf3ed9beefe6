"""End-to-end command-line tests: artifacts, determinism, exit codes."""

import argparse
import collections
import filecmp
import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fractal_spectra
from fractal_spectra import cli, eigensolve, fiber, gasket, laakso, strings


def write_spec(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture(scope="module")
def laakso_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("laakso")
    spec = write_spec(tmp, "spec.json", {"j": [2], "refine": 32, "lambda_max": 120.0})
    out = tmp / "out"
    assert cli.main(["laakso", "--spec", spec, "--out", str(out)]) == 0
    return spec, out


class TestLaakso:
    def test_artifacts_exist(self, laakso_run):
        _, out = laakso_run
        for name in ("analytic.csv", "numeric.csv", "compare.json", "nesting.json", "run.json"):
            assert (out / name).exists(), name

    def test_reports_pass(self, laakso_run):
        _, out = laakso_run
        assert json.loads((out / "compare.json").read_text())["pass"] is True
        assert json.loads((out / "nesting.json").read_text())["pass"] is True

    def test_verify_accepts_run(self, laakso_run):
        _, out = laakso_run
        assert cli.main(["verify", "--out", str(out)]) == 0

    def test_verify_with_tol_recheck(self, laakso_run):
        _, out = laakso_run
        # a sane tolerance passes, an absurdly tight one flags FD error
        assert cli.main(["verify", "--out", str(out), "--tol", "0.05"]) == 0
        assert cli.main(["verify", "--out", str(out), "--tol", "1e-14"]) == 1

    def test_deterministic_rerun(self, laakso_run, tmp_path):
        spec, out = laakso_run
        out2 = tmp_path / "again"
        assert cli.main(["laakso", "--spec", spec, "--out", str(out2)]) == 0
        for name in ("analytic.csv", "numeric.csv", "compare.json", "nesting.json"):
            assert filecmp.cmp(out / name, out2 / name, shallow=False), name

    def test_depth_mismatch_rejected(self, tmp_path):
        spec = write_spec(tmp_path, "bad.json", {"j": [2, 2], "depth": 3})
        assert cli.main(["laakso", "--spec", spec, "--out", str(tmp_path / "o")]) == 2

    def test_missing_key_rejected(self, tmp_path):
        spec = write_spec(tmp_path, "bad.json", {"depth": 1})
        assert cli.main(["laakso", "--spec", spec, "--out", str(tmp_path / "o")]) == 2

    def test_unreadable_spec_rejected(self, tmp_path):
        assert cli.main(["laakso", "--spec", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "o")]) == 2

    def test_threads_flag_is_gone(self, laakso_run, tmp_path):
        spec, _ = laakso_run
        with pytest.raises(SystemExit):
            cli.main(["laakso", "--spec", spec, "--out", str(tmp_path / "o"), "--threads", "2"])

    def test_run_json_records_values_in_effect(self, laakso_run):
        _, out = laakso_run
        run = json.loads((out / "run.json").read_text())
        assert run["refine"] == 32 and run["lambda_max"] == 120.0
        assert run["boundary"] == "neumann" and run["tol"] == 1e-9
        assert "seed" not in run  # the seed has no effect, so the run does not record it

    def test_explicit_zero_tol_is_not_replaced(self, laakso_run, tmp_path, monkeypatch):
        spec, _ = laakso_run
        tols = []

        def spy(lower, upper, tol):
            tols.append(tol)
            return eigensolve.verify_nesting(lower, upper, tol=tol)

        monkeypatch.setattr(cli, "verify_nesting", spy)
        cli.main(["laakso", "--spec", spec, "--out", str(tmp_path / "o"), "--tol", "0"])
        assert tols == [0.0]

    def test_nonpositive_lambda_max_in_spec_rejected(self, tmp_path):
        spec = write_spec(tmp_path, "bad.json", {"j": [2], "lambda_max": -5})
        assert cli.main(["laakso", "--spec", spec, "--out", str(tmp_path / "o")]) == 2


class TestChoux:
    def test_run_and_verify(self, tmp_path):
        spec = write_spec(tmp_path, "spec.json", {"fiber_depth": 2, "gasket_level": 3})
        out = tmp_path / "out"
        assert cli.main(["choux", "--spec", spec, "--out", str(out)]) == 0
        for name in ("numeric_depth0.csv", "numeric_depth2.csv",
                     "nesting.json", "decimation.json", "run.json"):
            assert (out / name).exists(), name
        dec = json.loads((out / "decimation.json").read_text())
        assert dec["pass"] is True
        assert dec["hausdorff_dimension"] == pytest.approx(2.584962500721156)
        # every value of a check's upper level is counted once
        chain = gasket.decimation_chain(3)
        assert [(c["from_level"], c["to_level"]) for c in dec["checks"]] == [(1, 2), (2, 3)]
        for c in dec["checks"]:
            assert c["matched"] + c["exceptional"] + len(c["unexplained"]) == \
                len(chain[c["to_level"] - 1].entries)
        assert cli.main(["verify", "--out", str(out)]) == 0

    def test_missing_key_rejected(self, tmp_path):
        spec = write_spec(tmp_path, "bad.json", {"fiber_depth": 1})
        assert cli.main(["choux", "--spec", spec, "--out", str(tmp_path / "o")]) == 2

    def test_seed_is_accepted_and_has_no_effect(self, tmp_path):
        """Every solving subcommand takes --seed and writes the bytes it
        writes without it."""
        for command, doc in (("choux", {"fiber_depth": 1, "gasket_level": 2}),
                             ("laakso", {"j": [2, 3], "refine": 8, "lambda_max": 200.0}),
                             ("string", {"lengths": [0.5, 0.25], "mults": [1, 2],
                                         "zeta_terms": 50})):
            spec = write_spec(tmp_path, f"{command}.json", doc)
            outs = [tmp_path / f"{command}_{seed}" for seed in ("1", "2", "none")]
            for seed, out in zip(("1", "2"), outs):
                assert cli.main([command, "--spec", spec, "--out", str(out), "--seed", seed]) == 0
            assert cli.main([command, "--spec", spec, "--out", str(outs[2])]) == 0
            for f in sorted(outs[0].iterdir()):
                for other in outs[1:]:
                    assert filecmp.cmp(f, other / f.name, shallow=False), (command, f.name)

    def test_unknown_boundary_in_spec_rejected(self, tmp_path):
        """A misspelt mode ran as Neumann and was written into run.json."""
        spec = write_spec(tmp_path, "spec.json",
                          {"fiber_depth": 1, "gasket_level": 2, "boundary": "dirichet"})
        out = tmp_path / "o"
        assert cli.main(["choux", "--spec", spec, "--out", str(out)]) == cli.EXIT_BAD_SPEC
        assert not (out / "run.json").exists()


class TestString:
    def test_run_and_verify(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "spec.json", {
            "lengths": [0.5, 0.25], "mults": [1, 2],
            "refine": 16, "lambda_max": 900.0, "zeta_terms": 200,
        })
        out = tmp_path / "out"
        assert cli.main(["string", "--spec", spec, "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"string: isospectrality pass, nesting pass -> {out}\n"
        iso = json.loads((out / "isospectrality.json").read_text())
        assert iso["pass"] is True
        assert iso["length_perturbation"] == 0.0
        zeta = (out / "zeta.csv").read_text().splitlines()
        assert zeta[0] == "s,partial_sum,lambda_max"
        assert len(zeta) == 1 + len(cli.ZETA_S_GRID)
        assert cli.main(["verify", "--out", str(out)]) == 0

    def test_incommensurable_lengths(self, tmp_path):
        spec = write_spec(tmp_path, "bad.json", {
            "lengths": [0.5, 1 / 3.14159265358979], "mults": [1, 1],
            "denominator_bound": 50,
        })
        assert cli.main(["string", "--spec", spec, "--out", str(tmp_path / "o")]) == 4

    @pytest.mark.parametrize("lengths", [[math.inf, 0.5], [True, 0.5], ["0.5", "0.25"],
                                         [-0.5, 0.25]],
                             ids=["infinity", "true", "strings", "negative"])
    def test_lengths_that_are_not_positive_finite_numbers_are_rejected(self, tmp_path, lengths):
        """Each length is a positive, finite JSON number, checked before the
        output directory is made.  Infinity ended in an uncaught
        OverflowError, true and numeric strings ran as the lengths 1 and
        1/2, and a negative length exited 4, "not representable"."""
        spec = write_spec(tmp_path, "spec.json", {"lengths": lengths, "mults": [1, 1]})
        out = tmp_path / "o"
        assert cli.main(["string", "--spec", spec, "--out", str(out)]) == cli.EXIT_BAD_SPEC
        assert not (out / "run.json").exists()

    def test_increasing_lengths_rejected(self, tmp_path):
        spec = write_spec(tmp_path, "bad.json", {"lengths": [0.25, 0.5], "mults": [1, 1]})
        assert cli.main(["string", "--spec", spec, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command, field, value", [
        *(pytest.param("string", "zeta_terms", terms, id=str(terms))
          for terms in (-100, 0, 2.5, "100", True)),
        pytest.param("string", "zeta_terms", 10**155, id="10**155"),
        pytest.param("string", "zeta_terms", 10**400, id="10**400"),
        pytest.param("string", "mults", [1.7, 1], id="string-mults-1.7"),
        pytest.param("string", "refine", 8.9, id="string-refine-8.9"),
        pytest.param("string", "depth", -1, id="string-depth--1"),
        pytest.param("string", "depth", 0, id="string-depth-0"),
        pytest.param("string", "depth", 7, id="string-depth-7"),
        pytest.param("string", "depth", 2.0, id="string-depth-2.0"),
        pytest.param("string", "denominator_bound", 1e6, id="string-denominator_bound-1e6"),
        pytest.param("laakso", "j", [2.5], id="laakso-j-2.5"),
        pytest.param("laakso", "refine", 8.9, id="laakso-refine-8.9"),
        pytest.param("laakso", "depth", 1.0, id="laakso-depth-1.0"),
        pytest.param("choux", "fiber_depth", 1.9, id="choux-fiber_depth-1.9"),
        pytest.param("choux", "gasket_level", "2", id="choux-gasket_level-2"),
        pytest.param("laakso", "j", 2, id="laakso-j-2"),
        pytest.param("string", "mults", 3, id="string-mults-3"),
        pytest.param("string", "lengths", 0.5, id="string-lengths-0.5"),
        pytest.param("string", "lambda_max", True, id="string-lambda_max-true"),
        pytest.param("string", "lambda_max", "700", id="string-lambda_max-700"),
        pytest.param("laakso", "lambda_max", True, id="laakso-lambda_max-true"),
        *(pytest.param(command, field, value, id=f"{command}-{field}-{value}")
          for command in ("laakso", "string")
          for field, value in (("refine", 0), ("refine", 1), ("lambda_max", 0), ("lambda_max", -5))),
    ])
    def test_zeta_terms_that_are_not_a_positive_integer_are_rejected(self, tmp_path, command,
                                                                     field, value):
        """Every integer field of a spec, zeta_terms among them, takes only a
        JSON integer in its range.  The cut squared zeta_terms, so -100
        acted as 100 and 0 wrote a table of zeros; int() ran mults 1.7 as 1,
        refine 8.9 as 8, j [2.5] as [2] and fiber_depth 1.9 as 1; a string
        depth of -1 dropped the last length and one past the lengths was
        ignored.  List fields take only a JSON list (a number ended in a
        TypeError) and lambda_max only a JSON number (float() ran true as 1
        and the string "700" as 700).  A refinement below 2 and a cut at or
        below 0 are bad specs too: the spec is the only place to set them.
        A zeta_terms whose cut (pi n / l_1)^2 has no float ended in an
        OverflowError traceback, exit 1 and an empty output directory."""
        doc = {"string": {"lengths": [0.5, 0.25], "mults": [1, 1], "zeta_terms": 100},
               "laakso": {"j": [2], "refine": 8},
               "choux": {"fiber_depth": 1, "gasket_level": 2}}[command]
        spec = write_spec(tmp_path, "spec.json", {**doc, field: value})
        out = tmp_path / "o"
        assert cli.main([command, "--spec", spec, "--out", str(out)]) == cli.EXIT_BAD_SPEC
        assert not out.exists()


@pytest.mark.parametrize("command, doc", [
    pytest.param("laakso", {"j": [2], "boundry": "dirichlet", "lamda_max": 30}, id="laakso"),
    pytest.param("choux", {"fiber_depth": 1, "gasket_level": 2, "refine": 8}, id="choux"),
    pytest.param("string", {"lengths": [0.5, 0.25], "mults": [1, 1], "boundary": "dirichlet"},
                 id="string"),
])
def test_spec_key_the_command_does_not_read_is_rejected(tmp_path, capsys, command, doc):
    """A misspelt or foreign key exits 2 and writes nothing: the Laakso spec
    ran Neumann at lambda_max 200 and recorded its two ignored keys in
    run.json as if they were in effect."""
    spec = write_spec(tmp_path, "spec.json", doc)
    out = tmp_path / "o"
    assert cli.main([command, "--spec", spec, "--out", str(out)]) == cli.EXIT_BAD_SPEC
    assert not out.exists()
    assert "are not read" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["laakso", "string"])
def test_infinite_lambda_max_is_rejected(tmp_path, command):
    """An infinite cut never ended the analytic listing of laakso and string."""
    doc = {"laakso": {"j": [2], "refine": 8},
           "string": {"lengths": [0.5, 0.25], "mults": [1, 1], "refine": 8}}[command]
    # written as Infinity, which json reads back
    spec = write_spec(tmp_path, "spec.json", {**doc, "lambda_max": math.inf})
    assert cli.main([command, "--spec", spec, "--out", str(tmp_path / "o")]) == cli.EXIT_BAD_SPEC


@pytest.mark.parametrize("command", ["laakso", "string"])
@pytest.mark.parametrize("refine", [10**160, 10**400], ids=["scale", "pitch"])
def test_refine_whose_mesh_has_no_float_scale_is_rejected(tmp_path, capsys, command, refine):
    """A refine whose pitch h (10**400) or scale 2 / h^2 (10**160) has no
    float exits 2 before the output directory is made: it ended in an
    OverflowError traceback, exit 1 and an empty output directory."""
    doc = {"laakso": {"j": [2]}, "string": {"lengths": [0.5, 0.25], "mults": [1, 1]}}[command]
    spec = write_spec(tmp_path, "spec.json", {**doc, "refine": refine})
    out = tmp_path / "o"
    assert cli.main([command, "--spec", spec, "--out", str(out)]) == cli.EXIT_BAD_SPEC
    assert not out.exists()
    assert "past the floats" in capsys.readouterr().err


def test_refine_of_10_to_the_11_runs(tmp_path):
    """The mesh of each level is its runs refined, so a run costs its
    values below the cut, not its nodes: the count of the edge modes kept a
    list of refine + 1 ints, which ended in a MemoryError at refine 10**11."""
    spec = write_spec(tmp_path, "spec.json", {"j": [2], "refine": 10**11, "lambda_max": 100.0})
    out = tmp_path / "o"
    assert cli.main(["laakso", "--spec", spec, "--out", str(out)]) == cli.EXIT_OK
    numeric = eigensolve.SpectrumList.from_csv((out / "numeric.csv").read_text())
    assert [e.multiplicity for e in numeric.entries] == [1, 3, 1, 3]
    assert numeric.values() == pytest.approx([0.0, *(np.pi**2 * k * k for k in (1, 2, 3))],
                                             rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("refine, order", [(32, pytest.approx(2.0, abs=0.01)), (10**6, None)])
def test_convergence_order_counts_errors_above_roundoff(tmp_path, refine, order):
    """At refine 10**6 every fine error is below 1e-10 relative, roundoff
    of the closed forms rather than a finite-difference error, so no rank
    counts and the order is null, as without a coarse pitch; the order
    had moved with the last bits of the values."""
    spec = write_spec(tmp_path, "spec.json",
                      {"j": [2, 2], "refine": refine, "lambda_max": 400, "boundary": "dirichlet"})
    out = tmp_path / "out"
    assert cli.main(["laakso", "--spec", spec, "--out", str(out)]) == cli.EXIT_OK
    assert json.loads((out / "compare.json").read_text())["convergence_order"] == order


@pytest.mark.parametrize("doc", [
    {"j": [3], "refine": 8, "lambda_max": 300},
    {"j": [3, 3], "refine": 8, "lambda_max": 300},
    {"j": [3, 4], "refine": 8, "lambda_max": 300},
    {"j": [3, 4, 4, 3, 4], "refine": 8, "lambda_max": 300},
    {"j": [3], "refine": 4, "lambda_max": 2000},
    {"j": [2], "refine": 2, "lambda_max": 1e6},
], ids=["3", "33", "34", "34434", "3_refine4", "2_past_pi_over_h"])
def test_neumann_runs_pass_the_rank_compare(tmp_path, doc):
    """The hand-fit families listed no (3 pi / 2)^2 for Neumann j = [3],
    and their nearest-value match at 10 lambda h^2 failed these runs; the
    closed form of the run table pairs every mesh entry by rank, with equal
    multiplicities, up to (pi / h)^2 = 158 on the last."""
    spec = write_spec(tmp_path, "spec.json", doc)
    out = tmp_path / "out"
    assert cli.main(["laakso", "--spec", spec, "--out", str(out)]) == cli.EXIT_OK
    report = json.loads((out / "compare.json").read_text())
    assert sorted(report) == ["convergence_order", "count_mismatch", "matched", "mismatched",
                              "pass"]
    assert report["pass"] and report["matched"] and report["count_mismatch"] == 0
    assert all(m["mult_analytic"] == m["mult_numeric"] for m in report["matched"])
    assert cli.main(["verify", "--out", str(out)]) == cli.EXIT_OK


class TestVerify:
    def test_missing_run_json(self, tmp_path):
        assert cli.main(["verify", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("command, doc, names", [
        pytest.param("laakso", {"j": [2], "refine": 8, "lambda_max": 60.0},
                     ["analytic.csv", "numeric.csv", "compare.json", "nesting.json"], id="laakso"),
        pytest.param("choux", {"fiber_depth": 2, "gasket_level": 3},
                     ["numeric_depth0.csv", "numeric_depth1.csv", "numeric_depth2.csv",
                      "nesting.json", "decimation.json"], id="choux"),
        pytest.param("string", {"lengths": [0.5, 0.25], "mults": [1, 1], "zeta_terms": 50},
                     ["analytic.csv", "numeric.csv", "isospectrality.json", "zeta.csv",
                      "nesting.json"], id="string"),
    ])
    def test_missing_run_file_fails(self, tmp_path, capsys, command, doc, names):
        """Each file the command of run.json writes must be there: a
        directory holding only run.json verified.  Each is deleted in turn
        from a copy of a passing run."""
        out = tmp_path / "out"
        assert cli.main([command, "--spec", write_spec(tmp_path, "spec.json", doc),
                         "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted([*names, "run.json"])
        assert cli.main(["verify", "--out", str(out)]) == 0
        for name in names:
            cut = tmp_path / f"without_{name}"
            cut.mkdir()
            for p in out.iterdir():
                if p.name != name:
                    (cut / p.name).write_bytes(p.read_bytes())
            capsys.readouterr()
            assert cli.main(["verify", "--out", str(cut)]) == cli.EXIT_CHECK_FAILED, name
            assert f"verify: FAIL {name}: missing" in capsys.readouterr().err
        alone = tmp_path / "alone"
        alone.mkdir()
        (alone / "run.json").write_bytes((out / "run.json").read_bytes())
        assert cli.main(["verify", "--out", str(alone)]) == cli.EXIT_CHECK_FAILED

    def test_corrupted_csv_fails(self, tmp_path):
        spec = write_spec(tmp_path, "spec.json", {"j": [2], "refine": 8, "lambda_max": 60.0})
        out = tmp_path / "out"
        assert cli.main(["laakso", "--spec", spec, "--out", str(out)]) == 0
        path = out / "numeric.csv"
        lines = path.read_text().splitlines()
        # a float that is valid but not in shortest-repr form breaks the byte round trip
        lines[1] = "0.10000000000000000555," + lines[1].split(",", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        assert cli.main(["verify", "--out", str(out)]) == 1

    @pytest.mark.parametrize("tol", [None, "1e-3"])
    def test_nan_eigenvalue_fails(self, tmp_path, capsys, tol):
        """NaN compares false both ways, so it passed the check that values
        increase: a numeric.csv with one value edited to nan is reported,
        with and without the --tol re-check."""
        spec = write_spec(tmp_path, "spec.json", {"j": [2, 2, 2], "refine": 32, "lambda_max": 230.0})
        out = tmp_path / "out"
        assert cli.main(["laakso", "--spec", spec, "--out", str(out)]) == 0
        path = out / "numeric.csv"
        lines = path.read_text().splitlines()
        lines[3] = "nan," + lines[3].split(",", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main(["verify", "--out", str(out), *(["--tol", tol] if tol else [])]) == 1
        assert "verify: FAIL numeric.csv: spectrum values must be finite" in capsys.readouterr().err

    def test_stored_failure_flag(self, tmp_path):
        (tmp_path / "run.json").write_text("{}")
        (tmp_path / "report.json").write_text('{"pass": false}')
        assert cli.main(["verify", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("name, key", [("nesting.json", "reports"),
                                           ("decimation.json", "checks")])
    def test_nested_false_flag_fails(self, tmp_path, capsys, name, key):
        """A report whose own flag is true but one of whose checks has a
        false flag fails verify, named by its path in the report."""
        spec = write_spec(tmp_path, "spec.json", {"fiber_depth": 3, "gasket_level": 5})
        out = tmp_path / "out"
        assert cli.main(["choux", "--spec", spec, "--out", str(out)]) == 0
        assert cli.main(["verify", "--out", str(out)]) == 0
        doc = json.loads((out / name).read_text())
        doc[key][0]["pass"] = False
        assert doc["pass"] is True
        (out / name).write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["verify", "--out", str(out)]) == cli.EXIT_CHECK_FAILED
        assert f"verify: FAIL {name}.{key}[0]: stored pass flag is false" in capsys.readouterr().err

    def test_flag_that_is_not_true_fails(self, tmp_path, capsys):
        (tmp_path / "run.json").write_text("{}")
        (tmp_path / "report.json").write_text('{"pass": null}')
        assert cli.main(["verify", "--out", str(tmp_path)]) == cli.EXIT_CHECK_FAILED
        assert "verify: FAIL report.json: stored pass flag is not true" in capsys.readouterr().err

    def test_deeply_nested_reports_fail_without_a_traceback(self, tmp_path, capsys):
        """A flag 600 lists deep is found, deeper than a recursive walk
        of this stack would reach, and a report nested past the JSON
        parser's recursion limit is a failed check, not an uncaught
        RecursionError."""
        (tmp_path / "run.json").write_text("{}")
        (tmp_path / "deep.json").write_text("[" * 600 + '{"pass": false}' + "]" * 600)
        (tmp_path / "deeper.json").write_text("[" * 100_000 + "]" * 100_000)
        assert cli.main(["verify", "--out", str(tmp_path)]) == cli.EXIT_CHECK_FAILED
        err = capsys.readouterr().err
        assert f"verify: FAIL deep.json{'[0]' * 600}: stored pass flag is false" in err
        assert "verify: FAIL deeper.json: maximum recursion depth exceeded" in err

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda rows: rows[:1] + ["0.5,garbage,"] + rows[2:], id="garbage_row"),
        pytest.param(lambda rows: rows[:1] + ["0.5,0.10000000000000000555,1.0"] + rows[2:],
                     id="not_shortest_form"),
        pytest.param(lambda rows: rows[:3] + rows[4:], id="dropped_row"),
        pytest.param(None, id="truncated"),
    ])
    def test_corrupted_zeta_csv_fails(self, tmp_path, capsys, corrupt):
        """verify read only the header of zeta.csv: rows of garbage or a file
        cut inside its first row passed.  The s column must be ZETA_S_GRID
        and every field a finite float as repr writes it."""
        doc = {"lengths": [0.5, 0.25], "mults": [1, 1], "refine": 8, "lambda_max": 400.0,
               "zeta_terms": 100}
        out = tmp_path / "out"
        assert cli.main(["string", "--spec", write_spec(tmp_path, "spec.json", doc),
                         "--out", str(out)]) == 0
        assert cli.main(["verify", "--out", str(out)]) == 0
        path = out / "zeta.csv"
        text = path.read_text()
        path.write_text(text[:40] if corrupt is None else "\n".join(corrupt(text.splitlines())) + "\n")
        capsys.readouterr()
        assert cli.main(["verify", "--out", str(out)]) == cli.EXIT_CHECK_FAILED
        assert "verify: FAIL zeta.csv: " in capsys.readouterr().err

    def test_empty_zeta_csv_fails(self, tmp_path, capsys):
        (tmp_path / "run.json").write_text("{}")
        (tmp_path / "zeta.csv").write_text("")
        assert cli.main(["verify", "--out", str(tmp_path)]) == 1
        assert "verify: FAIL zeta.csv: bad header" in capsys.readouterr().err

    @pytest.mark.parametrize("name, data", [("compare.json", b"\xff\xfe{"), ("zeta.csv", b"\xff")])
    def test_file_that_is_not_utf8_fails(self, tmp_path, capsys, name, data):
        """A report or zeta table that does not decode is a failed check
        (exit 1), not a bad spec (exit 2), and the files after it are
        still checked."""
        (tmp_path / "run.json").write_text("{}")
        (tmp_path / name).write_bytes(data)
        (tmp_path / "report.json").write_text('{"pass": false}')
        assert cli.main(["verify", "--out", str(tmp_path)]) == cli.EXIT_CHECK_FAILED
        err = capsys.readouterr().err
        assert f"verify: FAIL {name}: " in err
        assert "verify: FAIL report.json: stored pass flag is false" in err

    def test_tol_recheck_without_analytic_values_fails(self, tmp_path, capsys):
        """Below pi^2 the Dirichlet interval has no analytic value but its FD
        ground state (9.8379) lies there: --tol reports that value as
        unmatched instead of failing on the empty analytic.csv.  The run
        passes: the value lies above 9.85 (1 - 9.85 h^2 / 12), where the
        mesh value of an analytic value above the cut may lie."""
        spec = write_spec(tmp_path, "spec.json",
                          {"j": [2], "refine": 8, "lambda_max": 9.85, "boundary": "dirichlet"})
        out = tmp_path / "out"
        assert cli.main(["laakso", "--spec", spec, "--out", str(out)]) == cli.EXIT_OK
        assert (out / "analytic.csv").read_text().count("\n") == 1  # header only
        capsys.readouterr()
        assert cli.main(["verify", "--out", str(out), "--tol", "1e-3"]) == 1
        fails = [line for line in capsys.readouterr().err.splitlines() if "off the analytic set" in line]
        assert len(fails) == 1 and fails[0].startswith("verify: FAIL numeric 9.83")

    def test_tol_recheck_checks_multiplicities(self, tmp_path, capsys):
        """A numeric value within tol of its nearest analytic value must also
        carry that value's multiplicity: the criterion-8 run with the
        multiplicity 3 of its value near pi^2 edited to 5 fails --tol 1e-2,
        which the run as written passes."""
        spec = write_spec(tmp_path, "spec.json", {"j": [2], "refine": 16, "lambda_max": 100.0})
        out = tmp_path / "out"
        assert cli.main(["laakso", "--spec", spec, "--out", str(out)]) == cli.EXIT_OK
        assert cli.main(["verify", "--out", str(out), "--tol", "1e-2"]) == cli.EXIT_OK
        path = out / "numeric.csv"
        text = path.read_text()
        assert "\n9.861679775340777,3," in text
        path.write_text(text.replace("\n9.861679775340777,3,", "\n9.861679775340777,5,"))
        capsys.readouterr()
        assert cli.main(["verify", "--out", str(out), "--tol", "1e-2"]) == cli.EXIT_CHECK_FAILED
        assert capsys.readouterr().err.splitlines() == [
            "verify: FAIL numeric 9.861679775340777 has multiplicity 5, its nearest analytic "
            f"value {math.pi ** 2!r} has 3"]


def same_files(a: Path, b: Path) -> bool:
    names = sorted(os.listdir(a))
    return sorted(os.listdir(b)) == names and filecmp.cmpfiles(a, b, names, shallow=False)[0] == names


class TestSharedParser:
    """``main`` parses every call with one parser, built on its first call."""

    def test_flags_do_not_carry_over(self, tmp_path):
        spec = write_spec(tmp_path, "spec.json", {"j": [2], "refine": 8, "lambda_max": 60.0})
        flagged = ["--tol", "1e-6", "--seed", "3"]
        assert cli.main(["laakso", "--spec", spec, "--out", str(tmp_path / "a"), *flagged]) == 0
        assert cli.main(["laakso", "--spec", spec, "--out", str(tmp_path / "b")]) == 0
        cli._parser.cache_clear()
        assert cli.main(["laakso", "--spec", spec, "--out", str(tmp_path / "fresh")]) == 0
        run = json.loads((tmp_path / "b" / "run.json").read_text())
        assert (run["boundary"], run["refine"], run["tol"]) == ("neumann", 8, 1e-9)
        assert same_files(tmp_path / "b", tmp_path / "fresh")

    def test_rejected_call_leaves_the_next_unchanged(self, tmp_path):
        spec = write_spec(tmp_path, "spec.json", {"fiber_depth": 1, "gasket_level": 2})
        assert cli.main(["choux", "--spec", spec, "--out", str(tmp_path / "a")]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["choux", "--spec", spec, "--out", str(tmp_path / "x"),
                      "--tol", "1e-3", "--seed", "3", "--refine", "4"])
        assert exc.value.code == 2
        assert cli.main(["choux", "--spec", spec, "--out", str(tmp_path / "b")]) == 0
        assert same_files(tmp_path / "a", tmp_path / "b")

    def test_main_builds_the_parser_once(self, laakso_run, monkeypatch):
        builds = []

        def counted(_build=cli.build_parser):
            builds.append(1)
            return _build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        for argv in (["verify", "--out", str(laakso_run[1])], ["verify", "--out", str(laakso_run[1])],
                     ["verify", "--out", str(laakso_run[1]), "--tol", "0.05"]):
            assert cli.main(argv) == 0
        assert len(builds) == 1

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()


@pytest.mark.parametrize("command, flag, value", [
    ("laakso", "--refine", "16"),
    ("laakso", "--pitch", "0.015625"),
    ("laakso", "--boundary", "dirichlet"),
    ("laakso", "--lambda-max", "10"),
    ("choux", "--boundary", "dirichlet"),
    ("string", "--refine", "4"),
    ("string", "--lambda-max", "10"),
    ("choux", "--pitch", "0.1"),
    ("choux", "--refine", "4"),
    ("choux", "--lambda-max", "10"),
    ("string", "--pitch", "0.1"),
    ("string", "--boundary", "neumann"),
    ("verify", "--lambda-max", "10"),
    ("verify", "--refine", "4"),
    ("verify", "--pitch", "0.1"),
    ("verify", "--boundary", "neumann"),
    ("verify", "--seed", "1"),
])
def test_flag_without_effect_is_rejected(tmp_path, command, flag, value):
    """A run's settings come from its spec alone: a flag for one of them is
    an unknown flag (exit 2), and nothing is written."""
    argv = [command, "--out", str(tmp_path / "o"), flag, value]
    if command != "verify":
        argv += ["--spec", write_spec(tmp_path, "spec.json", {"j": [2], "fiber_depth": 1,
                                                              "gasket_level": 2, "lengths": [0.5],
                                                              "mults": [1]})]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_each_subcommand_registers_only_its_flags():
    """laakso, choux and string take a spec, an output directory, the
    nesting tolerance and the seed; verify an output directory and a
    tolerance."""
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    flags = {name: sorted(a.option_strings[0] for a in parser._actions if a.dest != "help")
             for name, parser in subparsers.choices.items()}
    run = ["--out", "--seed", "--spec", "--tol"]
    assert flags == {"laakso": run, "choux": run, "string": run, "verify": ["--out", "--tol"]}


@pytest.mark.parametrize("command", ["laakso", "choux", "string", "verify"])
def test_tol_that_is_not_a_finite_nonnegative_number_is_rejected(laakso_run, tmp_path, command):
    """NaN compares false both ways: verify passed every value at --tol nan
    and the nesting check failed every one.  NaN, infinite and negative
    tolerances are bad flags (exit 2) on every subcommand."""
    docs = {"laakso": {"j": [2], "refine": 8, "lambda_max": 60.0},
            "choux": {"fiber_depth": 1, "gasket_level": 2},
            "string": {"lengths": [0.5, 0.25], "mults": [1, 1], "refine": 8,
                       "lambda_max": 400.0, "zeta_terms": 100}}
    for value in ("nan", "inf", "-1e-9"):
        if command == "verify":
            argv = ["verify", "--out", str(laakso_run[1])]
        else:
            argv = [command, "--spec", write_spec(tmp_path, "spec.json", docs[command]),
                    "--out", str(tmp_path / "o")]
        assert cli.main(argv + [f"--tol={value}"]) == cli.EXIT_BAD_SPEC, value


def test_each_run_builds_its_family_once(tmp_path, monkeypatch):
    """Each run hands its family to the pipeline once, as the base graph and
    its pieces, and builds no level graph: the package has no level-graph
    builder (the loop builders of ``tests/family_reference.py`` are the
    only ones) and no gasket graph (the gasket builder of
    ``tests/dense_reference.py`` is the only one)."""
    assert not [name for module, name in ((laakso, "build_laakso"), (strings, "build_stitched"),
                                          (gasket, "build_choux"), (fiber, "binary_graphs"),
                                          (gasket, "gasket_levels"), (gasket, "build_gasket"))
                if hasattr(module, name)]
    calls = collections.Counter()
    for module, name in ((laakso, "laakso_family"), (strings, "stitched_family"),
                         (gasket, "choux_family"), (strings, "string_analytic_spectrum")):
        def counted(*args, _build=getattr(module, name), _name=name):
            calls[_name] += 1
            return _build(*args)

        monkeypatch.setattr(module, name, counted)
    runs = {
        "laakso": {"j": [2, 2], "refine": 8, "lambda_max": 200.0},
        "string": {"lengths": [0.5, 0.25], "mults": [1, 2], "refine": 8,
                   "lambda_max": 700.0, "zeta_terms": 100},
        "choux": {"fiber_depth": 2, "gasket_level": 2},
    }
    for command, doc in runs.items():
        spec = write_spec(tmp_path, f"{command}.json", doc)
        assert cli.main([command, "--spec", spec, "--out", str(tmp_path / command)]) == 0
    # laakso maps one solve of its family to both pitches of its error
    # estimate; string lists the analytic spectrum once, to lambda_max (its
    # zeta table is summed string by string)
    assert dict(calls) == {"laakso_family": 1, "stitched_family": 1, "choux_family": 1,
                           "string_analytic_spectrum": 1}


def nearest_fd_values(values, h, n_max):
    """The value (4/h^2) sin^2(k pi / 2N), k and N <= n_max integers,
    nearest to each of ``values``: the exact finite-difference eigenvalues
    of intervals of N cells of pitch h with two Dirichlet or two free ends,
    and of N / 2 cells with one of each."""
    N = np.arange(1, n_max + 1)
    theta = 2 * np.arcsin(h * np.sqrt(values) / 2)  # k pi / N
    exact = (2 / h * np.sin(np.rint(theta[:, None] * N / np.pi) * np.pi / (2 * N))) ** 2
    return exact[np.arange(len(values)), np.abs(exact - values[:, None]).argmin(axis=1)]


CANTOR = {"lengths": [1 / 3**k for k in range(1, 7)], "mults": [2**k for k in range(6)],
          "refine": 4, "lambda_max": 2000, "zeta_terms": 1000}


@pytest.mark.parametrize("command, doc, h, cells", [
    ("laakso", {"j": [2] * 10, "refine": 8, "lambda_max": 400, "boundary": "dirichlet"},
     laakso.LaaksoSpec([2] * 10, 8).pitch, 2**13),
    ("string", CANTOR, strings.StringSpec([Fraction(1, 3**k) for k in range(1, 7)],
                                          CANTOR["mults"], 4).pitch, 3**5 * 4),
], ids=["laakso_deep", "cantor"])
def test_numeric_values_are_the_exact_finite_difference_values(tmp_path, command, doc, h, cells):
    """Every piece of a Laakso or string level is an interval of the base
    path, of at most ``cells`` cells, with Dirichlet or free ends, so each
    value of numeric.csv is an exact finite-difference eigenvalue
    (``nearest_fd_values``).  On Laakso [2]*10 (a 1023-vertex Dirichlet
    run) and the depth-6 Cantor string the written values lie within
    4e-15 relative of them; LAPACK's QR on the tridiagonal runs was
    1.1e-10 and 4.7e-13 off."""
    out = tmp_path / "out"
    assert cli.main([command, "--spec", write_spec(tmp_path, "spec.json", doc),
                     "--out", str(out)]) == 0
    values = np.asarray(eigensolve.SpectrumList.from_csv((out / "numeric.csv").read_text()).values())
    assert len(values) > 0
    exact = nearest_fd_values(values, h, 2 * cells)
    assert np.all(np.abs(values - exact) <= 4e-15 * exact)


def test_zeta_table_keeps_the_values_on_its_cut(tmp_path):
    """At 1000 terms the cut of lengths (1/2, 1/4) is the 1000th value of the
    first string and the 500th of the second; (pi n / l_1)^2 / pi^2 rounds
    below n^2 / l_1^2 there, and the table must still sum all 1500 terms."""
    doc = {"lengths": [0.5, 0.25], "mults": [1, 1], "refine": 8, "lambda_max": 400.0,
           "zeta_terms": 1000}
    out = tmp_path / "out"
    assert cli.main(["string", "--spec", write_spec(tmp_path, "spec.json", doc),
                     "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "zeta.csv").read_text().splitlines()[1:]]
    assert [float(r[0]) for r in rows] == list(cli.ZETA_S_GRID)
    for s_text, partial, _ in rows:
        s_val = float(s_text)
        explicit = math.fsum((math.pi * k / l) ** (-2 * s_val)
                             for l, n in ((0.5, 1000), (0.25, 500)) for k in range(1, n + 1))
        assert float(partial) == pytest.approx(explicit, rel=1e-13, abs=0.0)


def run_fresh(script: str, *args: str) -> str:
    """The last line that ``script`` prints, run in a fresh interpreter with
    the package's source directory on its path."""
    src = str(Path(fractal_spectra.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script), *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


FAMILY_MODULES = ("fractal_spectra.gasket", "fractal_spectra.laakso", "fractal_spectra.strings")


def test_cli_import_loads_no_dataclasses_and_no_family():
    """Importing the CLI loads neither ``dataclasses`` nor ``inspect``, which
    it pulls in, nor a family module: each command imports its own."""
    loaded = run_fresh(f"""
        import sys
        import fractal_spectra.cli
        print(sorted(set(sys.modules) & {{"dataclasses", "inspect", *{FAMILY_MODULES!r}}}))
    """)
    assert loaded == "[]"


@pytest.mark.parametrize("command, family, doc", [
    ("laakso", "laakso", {"j": [2], "refine": 16, "lambda_max": 100.0}),
    ("choux", "gasket", {"fiber_depth": 1, "gasket_level": 2}),
    ("string", "strings", {"lengths": [0.5, 0.25], "mults": [1, 1], "refine": 8,
                           "lambda_max": 400.0, "zeta_terms": 100}),
])
def test_run_loads_only_its_own_family(tmp_path, command, family, doc):
    """A run through ``cli.main`` in a fresh interpreter loads the module of
    its own family and neither of the other two."""
    spec = write_spec(tmp_path, "spec.json", doc)
    loaded = run_fresh(f"""
        import sys
        from fractal_spectra import cli
        code = cli.main([{command!r}, "--spec", sys.argv[1], "--out", sys.argv[2]])
        print(code, sorted(set(sys.modules) & set({FAMILY_MODULES!r})))
    """, spec, str(tmp_path / "out"))
    assert loaded == f"0 ['fractal_spectra.{family}']"


@pytest.mark.parametrize("make, field", [(lambda: eigensolve.SpectrumEntry(1.5, 2, "base"), "value"),
                                         (lambda: fiber.PathBase(5, 0.25), "length")])
def test_entries_and_path_bases_are_immutable_and_hashable(make, field):
    """Spectrum entries and path bases refuse attribute assignment, and two
    built alike hash alike."""
    frozen = make()
    with pytest.raises(AttributeError):
        setattr(frozen, field, 0)
    assert getattr(frozen, field) != 0
    assert {frozen: 1}[make()] == 1


def test_cli_runs_without_numpy_or_scipy(tmp_path):
    """With NumPy and SciPy unimportable, laakso, choux and string run the
    acceptance criterion-8 specs and verify their outputs with exit 0, and
    no NumPy or SciPy module is loaded afterwards: the package needs the
    standard library alone."""
    last = run_fresh("""
        import json, sys
        from pathlib import Path

        # every import of NumPy, SciPy or a submodule of either fails
        sys.modules["numpy"] = sys.modules["scipy"] = None
        from fractal_spectra import cli

        tmp = Path(sys.argv[1])
        specs = {
            "laakso": {"j": [2], "refine": 16, "lambda_max": 100.0},
            "string": {"lengths": [0.5, 0.25], "mults": [1, 1],
                       "refine": 8, "lambda_max": 400.0, "zeta_terms": 100},
            "choux": {"fiber_depth": 1, "gasket_level": 2},
        }
        codes = []
        for command, doc in specs.items():
            spec = tmp / f"{command}.json"
            spec.write_text(json.dumps(doc))
            out = str(tmp / command)
            codes.append(cli.main([command, "--spec", str(spec), "--out", out]))
            codes.append(cli.main(["verify", "--out", out]))
        loaded = sorted(name for name, module in sys.modules.items()
                        if name.split(".")[0] in ("numpy", "scipy") and module is not None)
        print(json.dumps({"codes": codes, "loaded": loaded}))
    """, str(tmp_path))
    assert json.loads(last) == {"codes": [0] * 6, "loaded": []}
