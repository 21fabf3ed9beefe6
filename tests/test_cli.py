"""End-to-end command-line tests: artifacts, determinism, exit codes."""

import filecmp
import json

import pytest

from fractal_spectra import cli


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
