"""Benchmark of the fractal-spectra pipeline, end to end and per layer.

    python3 perfbench/run.py --workload laakso_cli --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Run from the repository root.  Each workload runs in a fresh child
interpreter, one at a time, with the BLAS thread count set to the number of
CPUs this process may use.  With ``--trace 0`` the run reports the
end-to-end metrics (``run_s``, ``setup_s``, ``peak_rss_mb``, ``ok_frac``);
with ``--trace 1`` it reports the per-layer metrics from a traced run and
times nothing end to end.  The last line of standard output is one JSON
object; a record with the environment, every sample and (traced) every span
goes to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
from tracer import LAYER_UNITS  # noqa: E402
from worker import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
#: a single-workload invocation must end within this many seconds
TIME_LIMIT_S = 170.0
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
TAIL_PERCENTILES = (99, 95, 90, 75)


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def git_commit() -> str:
    """HEAD of the checkout, without searching directories above it."""
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
    )
    return proc.stdout.strip() or "unknown"


def probe_setup(name: str, spec_path: Path, env: dict) -> float:
    """Seconds from process start until a fresh interpreter has imported the
    CLI and loaded the workload's spec."""
    cmd = [sys.executable, str(WORKER), "--probe", "--workload", name, "--spec", str(spec_path)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe for {name} failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    return elapsed


def bench(name: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    """Run one workload in a fresh child and return its record."""
    started = time.perf_counter()
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        entry = WORKLOADS[name]
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(entry["smoke"] if smoke else entry["spec"]))
        env = child_env()
        setup = [] if trace else [probe_setup(name, spec_path, env) for _ in range(SETUP_PROBES)]
        result_path = workdir / "result.json"
        cmd = [
            sys.executable, str(WORKER), "--workload", name, "--spec", str(spec_path),
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--workdir", str(workdir), "--result", str(result_path),
        ] + (["--smoke"] if smoke else [])
        timeout = max(10.0, TIME_LIMIT_S - (time.perf_counter() - started))
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{name}: worker did not finish within {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"{name}: worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        record = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["environment"]["git_commit"] = git_commit()
    record["setup_probes_s"] = setup
    record["metrics"] = metrics(record)
    (OUT / f"{name}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}.json").write_text(json.dumps(record))
    return record


def metrics(record: dict) -> dict:
    samples = record["samples"]
    attempted = len(samples)
    failed = sum(1 for s in samples if s["problems"])
    if record["trace"]:
        values = record["layers"]
        units = LAYER_UNITS
    else:
        values = {
            "run_s": run_s(record),
            "setup_s": statistics.median(record["setup_probes_s"]),
            "peak_rss_mb": record["peak_rss_mb"],
            "ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_s(record: dict) -> float:
    """Median wall seconds of one operation.  Where the workload brackets its
    operations with a host probe, the median is rescaled to the reference
    host speed: x reference probe time / median probe time of the run."""
    wall = statistics.median(s["wall_s"] for s in record["samples"])
    if "host_probe" in record:
        probe = record["host_probe"]
        return wall * probe["ref_s"] / statistics.median(probe["probes_s"])
    return wall


def tail_percentile(walls: list[float]):
    """Highest tail percentile with at least ten samples beyond it, if any."""
    for p in TAIL_PERCENTILES:
        if len(walls) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(walls, n=100)[p - 1]
    return None


def report(record: dict) -> None:
    """Human-readable lines for one workload."""
    samples = record["samples"]
    failed = [s for s in samples if s["problems"]]
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"commit {record['environment']['git_commit'][:12]}")
    for name, m in record["metrics"].items():
        print(f"  {name:34s} {m['value']:<22.10g} {m['unit']}")
    walls = [s["wall_s"] for s in samples if not s["traced"]]
    tail = tail_percentile(walls)
    print(f"  run_s samples: {len(walls)}; "
          + (f"p{tail[0]} {tail[1]:.4f} s" if tail else "no tail percentile (p75 needs >= 40 samples)"))
    if "host_probe" in record:
        probe = record["host_probe"]
        print(f"  unscaled wall median {statistics.median(walls):.4f} s; {probe['name']} probe median "
              f"{statistics.median(probe['probes_s']):.4f} s (reference {probe['ref_s']} s)")
    print(f"  failed_frac {len(failed) / len(samples):.4g} ({len(failed)}/{len(samples)})")
    for s in failed[:3]:
        print(f"    op {s['op']}: {s['problems'][0]}")
    if record["trace"]:
        print(f"  counters repeat across operations: {record['counts_repeat']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (SRC / "fractal_spectra" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'fractal_spectra'}; run from a checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [bench(name, args.seed, args.seconds, args.trace) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        report(record)
    samples = [s for r in records for s in r["samples"]]
    failed = sum(1 for s in samples if s["problems"])
    if len(records) == 1:
        out_metrics = records[0]["metrics"]
    else:
        out_metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
