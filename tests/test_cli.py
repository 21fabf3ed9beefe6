"""End-to-end command-line tests: artifacts, determinism, exit codes."""

import collections
import filecmp
import json

import pytest

from fractal_spectra import cli, eigensolve, gasket, laakso, strings


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

    def test_pitch_flag_matches_refine(self, laakso_run, tmp_path):
        spec, out = laakso_run
        out2 = tmp_path / "pitched"
        # refine 32 at depth 1, cell width 1/2  ->  pitch = 1/64
        code = cli.main(["laakso", "--spec", spec, "--out", str(out2), "--pitch", str(1 / 64)])
        assert code == 0
        assert filecmp.cmp(out / "numeric.csv", out2 / "numeric.csv", shallow=False)

    def test_bad_pitch_rejected(self, laakso_run, tmp_path):
        spec, _ = laakso_run
        code = cli.main(
            ["laakso", "--spec", spec, "--out", str(tmp_path / "x"), "--pitch", "0.013"]
        )
        assert code == 2

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
        assert run["seed"] == eigensolve.DEFAULT_SEED

    def test_explicit_zero_refine_is_not_replaced(self, laakso_run, tmp_path):
        spec, _ = laakso_run
        # refinement 0 is invalid; it must not fall back to the spec's 32
        code = cli.main(["laakso", "--spec", spec, "--out", str(tmp_path / "o"), "--refine", "0"])
        assert code == 2

    def test_explicit_zero_tol_is_not_replaced(self, laakso_run, tmp_path, monkeypatch):
        spec, _ = laakso_run
        tols = []

        def spy(lower, upper, tol):
            tols.append(tol)
            return eigensolve.verify_nesting(lower, upper, tol=tol)

        monkeypatch.setattr(cli, "verify_nesting", spy)
        cli.main(["laakso", "--spec", spec, "--out", str(tmp_path / "o"), "--tol", "0"])
        assert tols == [0.0]

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_nonpositive_lambda_max_flag_rejected(self, laakso_run, tmp_path, value):
        spec, _ = laakso_run
        code = cli.main(["laakso", "--spec", spec, "--out", str(tmp_path / "o"),
                         "--lambda-max", value])
        assert code == 2

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
        assert cli.main(["verify", "--out", str(out)]) == 0

    def test_missing_key_rejected(self, tmp_path):
        spec = write_spec(tmp_path, "bad.json", {"fiber_depth": 1})
        assert cli.main(["choux", "--spec", spec, "--out", str(tmp_path / "o")]) == 2

    def test_seed_is_accepted_and_has_no_effect(self, tmp_path):
        spec = write_spec(tmp_path, "spec.json", {"fiber_depth": 1, "gasket_level": 2})
        outs = [tmp_path / "seed1", tmp_path / "seed2"]
        for seed, out in zip(("1", "2"), outs):
            assert cli.main(["choux", "--spec", spec, "--out", str(out), "--seed", seed]) == 0
        for f in sorted(outs[0].iterdir()):
            assert filecmp.cmp(f, outs[1] / f.name, shallow=False), f.name


class TestString:
    def test_run_and_verify(self, tmp_path):
        spec = write_spec(tmp_path, "spec.json", {
            "lengths": [0.5, 0.25], "mults": [1, 2],
            "refine": 16, "lambda_max": 900.0, "zeta_terms": 200,
        })
        out = tmp_path / "out"
        assert cli.main(["string", "--spec", spec, "--out", str(out)]) == 0
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

    def test_increasing_lengths_rejected(self, tmp_path):
        spec = write_spec(tmp_path, "bad.json", {"lengths": [0.25, 0.5], "mults": [1, 1]})
        assert cli.main(["string", "--spec", spec, "--out", str(tmp_path / "o")]) == 2

    def test_nonpositive_lambda_max_rejected(self, tmp_path):
        spec = write_spec(tmp_path, "spec.json", {"lengths": [0.5], "mults": [1]})
        code = cli.main(["string", "--spec", spec, "--out", str(tmp_path / "o"),
                         "--lambda-max", "-5"])
        assert code == 2


class TestVerify:
    def test_missing_run_json(self, tmp_path):
        assert cli.main(["verify", "--out", str(tmp_path)]) == 1

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

    def test_stored_failure_flag(self, tmp_path):
        (tmp_path / "run.json").write_text("{}")
        (tmp_path / "report.json").write_text('{"pass": false}')
        assert cli.main(["verify", "--out", str(tmp_path)]) == 1

    def test_empty_zeta_csv_fails(self, tmp_path, capsys):
        (tmp_path / "run.json").write_text("{}")
        (tmp_path / "zeta.csv").write_text("")
        assert cli.main(["verify", "--out", str(tmp_path)]) == 1
        assert "verify: FAIL zeta.csv: bad header" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
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
    argv = [command, "--out", str(tmp_path / "o"), flag, value]
    if command != "verify":
        argv += ["--spec", write_spec(tmp_path, "spec.json", {})]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_each_run_builds_its_family_once(tmp_path, monkeypatch):
    calls = collections.Counter()
    for module, name in ((laakso, "build_laakso"), (strings, "build_stitched"),
                         (gasket, "build_choux"), (strings, "string_analytic_spectrum")):
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
    # laakso also builds the family at half the refinement for its error
    # estimate; string lists the analytic spectrum once to lambda_max and
    # once to the depth of the zeta table
    assert dict(calls) == {"build_laakso": 2, "build_stitched": 1, "build_choux": 1,
                           "string_analytic_spectrum": 2}
