"""Benchmark worker: runs one workload's operations in a fresh interpreter.

``run.py`` starts this script once per workload, with the package's ``src``
directory on ``PYTHONPATH`` and the BLAS thread count fixed, so that the
peak RSS it reports belongs to that workload alone.

    worker.py --probe --workload W --spec SPEC
        import fractal_spectra.cli, load the workload's spec, print "ready"
        and exit (``run.py`` times this from process start: set-up time)
    worker.py --workload W --spec SPEC --seed N --seconds S --trace 0|1
              --workdir DIR --result OUT [--smoke]
        run operations for S seconds, check each one, write OUT as JSON
    worker.py --host-probe NAME
        for each line read on stdin, run host probe NAME and print its
        seconds; exit at end of input

With ``--trace 1`` operations alternate between untraced and traced, so
one run gives both the per-layer spans and the tracing overhead.  With
``--trace 0`` on a workload that names a ``host_probe``, a fixed job that
measures the host's speed runs before every operation and after the last.
``--smoke`` swaps in shrunken specs (no stored reference exists for them,
so only exit codes and ``pass`` flags are checked).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
CSV_HEADER = ["eigenvalue", "multiplicity", "tag", "source"]
#: eigenvalues must match the reference to this relative tolerance, floored at 1
VALUE_RTOL = 1e-9

# Specs are fixed, so the work per operation is fixed; the seed only reaches
# the CLI's --seed.  ``csvs`` are the spectra checked against the reference.
# ``host_probe`` names the entry of HOST_PROBES whose job brackets every
# untraced operation of the workload (see there).
WORKLOADS = {
    "laakso_cli": {
        "command": "laakso",
        "spec": {"j": [2, 2, 2], "refine": 32, "lambda_max": 230},
        "smoke": {"j": [2, 2], "refine": 8, "lambda_max": 200},
        "csvs": ["numeric.csv"],
        "host_probe": "lapack",
    },
    "choux_cli": {
        "command": "choux",
        "spec": {"fiber_depth": 3, "gasket_level": 5},
        "smoke": {"fiber_depth": 2, "gasket_level": 3},
        "csvs": [f"numeric_depth{i}.csv" for i in range(4)],
        "host_probe": "lapack",
    },
    "string_cli": {
        "command": "string",
        "spec": {"lengths": [0.5, 0.25, 0.125, 0.0625], "mults": [1, 2, 1, 3], "refine": 16, "lambda_max": 2000},
        "smoke": {"lengths": [0.5, 0.25], "mults": [1, 2], "refine": 8, "lambda_max": 700, "zeta_terms": 100},
        "csvs": ["numeric.csv"],
        "host_probe": "python",
    },
    # n = 7728 > DENSE_THRESHOLD: the only workload on the Krylov route
    "laakso_krylov": {
        "command": None,
        "spec": {"j": [2, 2, 2, 2, 2], "refine": 8, "lambda_max": 400.0},
        "smoke": {"j": [2, 2, 2, 2, 2], "refine": 8, "lambda_max": 40.0},
        "csvs": ["numeric.csv"],
    },
}


# Host probes.  The VM's speed drifts in phases of seconds to minutes: in a
# slow phase pure Python runs up to 1.8x slower and dense ``eigh`` about 1.2x
# slower, so a run's median wall time depends on the phase it fell in.  A
# probe is a fixed job of the same kind as a workload's operations, built from
# the standard library, NumPy and SciPy only and calling nothing in the
# package, so it slows with the host and not with the program.


def probe_python() -> float:
    """Wall seconds of ``Fraction`` arithmetic, a dict keyed by ``Fraction``
    and a sort: the kind of work the string workload does."""
    t0 = time.perf_counter()
    total, table, merged = Fraction(0), {}, {}
    for i in range(1, 6000):
        total += Fraction(1, i * i)
        table[Fraction(i * i, 7)] = i
    for length in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
        for k in range(1, 4000):
            merged.setdefault(Fraction(k * k) / (length * length), []).append(k)
    sorted(merged)
    return time.perf_counter() - t0


def probe_lapack() -> float:
    """Wall seconds of one dense symmetric eigendecomposition at n = 1500,
    the call that dominates the dense workloads."""
    import numpy
    import scipy.linalg

    a = numpy.random.default_rng(0).standard_normal((1500, 1500))
    a += a.T
    t0 = time.perf_counter()
    scipy.linalg.eigh(a)
    return time.perf_counter() - t0


#: probe, and the seconds it takes at the reference host speed (about its
#: median on the reference VM); ``run_s`` is expressed at that speed
HOST_PROBES = {"python": (probe_python, 0.15), "lapack": (probe_lapack, 0.8)}


class HostProbe:
    """Runs a host probe on request in a helper process, one at a time, so
    that the probe's memory does not count in the worker's peak RSS.  The
    helper exits when its input closes, also if the worker is killed."""

    def __init__(self, name: str):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--host-probe", name]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host probe helper exited with {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def serve_probe(name: str) -> None:
    probe = HOST_PROBES[name][0]
    for _ in sys.stdin:
        print(repr(probe()), flush=True)


def load_spec(name: str, doc: dict):
    """The package's spec object for a workload's JSON spec."""
    if name.startswith("laakso"):
        from fractal_spectra.laakso import LaaksoSpec

        return LaaksoSpec(j=doc["j"], refine=doc["refine"])
    if name == "choux_cli":
        from fractal_spectra.gasket import ChouxSpec

        return ChouxSpec(fiber_depth=doc["fiber_depth"], gasket_level=doc["gasket_level"])
    from fractal_spectra.strings import StringSpec, rationalize

    return StringSpec(lengths=rationalize(doc["lengths"])[0], mults=doc["mults"], refine=doc["refine"])


def make_op(name: str, spec_path: Path, seed: int):
    """One operation: a CLI run in-process, or one library call.

    Functions are looked up on their module at call time, so the tracer's
    wrappers take effect while they are installed.
    """
    command = WORKLOADS[name]["command"]
    if command is not None:
        from fractal_spectra import cli

        def op(out: Path):
            argv = [command, "--spec", str(spec_path), "--out", str(out), "--seed", str(seed)]
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        return op

    from fractal_spectra import laakso

    doc = json.loads(spec_path.read_text())
    spec = load_spec(name, doc)

    def op(out: Path):
        return laakso.laakso_numeric_spectrum(spec, doc["lambda_max"])

    return op


def _rows(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError("bad spectrum CSV header")
    return [(float(r[0]), int(r[1]), r[2]) for r in rows[1:]]


def compare_csv(label: str, text: str | None, reference: str) -> list[str]:
    """Values to VALUE_RTOL, multiplicities and origin tags exactly."""
    if text is None:
        return [f"{label}: not written"]
    got, ref = _rows(text), _rows(reference)
    if len(got) != len(ref):
        return [f"{label}: {len(got)} entries, reference has {len(ref)}"]
    for (v, m, t), (rv, rm, rt) in zip(got, ref):
        if m != rm or t != rt or abs(v - rv) > VALUE_RTOL * max(1.0, abs(rv)):
            return [f"{label}: entry {v!r} x{m} {t!r} differs from reference {rv!r} x{rm} {rt!r}"]
    return []


def false_passes(doc, where: str) -> list[str]:
    """Every ``pass`` key anywhere in a stored report must be true."""
    if isinstance(doc, dict):
        found = [where] if "pass" in doc and doc["pass"] is not True else []
        for key, value in doc.items():
            found += false_passes(value, f"{where}.{key}")
        return found
    if isinstance(doc, list):
        return [f for i, v in enumerate(doc) for f in false_passes(v, f"{where}[{i}]")]
    return []


def check(name: str, result, out: Path, references: dict[str, str]) -> list[str]:
    """Problems with one operation's output; empty when it is correct."""
    problems = []
    if WORKLOADS[name]["command"] is not None:
        if result != 0:
            problems.append(f"exit code {result}")
        for path in sorted(out.glob("*.json")):
            problems += [f"{p}: pass is not true" for p in false_passes(json.loads(path.read_text()), path.name)]
        texts = {label: (out / label).read_text() for label in references if (out / label).exists()}
    else:
        texts = {"numeric.csv": result.to_csv()}
    for label, reference in references.items():
        problems += compare_csv(label, texts.get(label), reference)
    return problems


def environment() -> dict:
    """Interpreter, library versions, CPU count and the BLAS actually loaded."""
    import ctypes

    import numpy
    import scipy

    env = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas": {},
    }
    for mod in (numpy, scipy):
        info = {}
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            info = {"name": blas.get("name"), "version": blas.get("version")}
        except (KeyError, TypeError, ValueError):
            pass
        # the wheels bundle OpenBLAS under <site-packages>/<module>.libs
        for lib in sorted(Path(mod.__file__).parent.parent.glob(f"{mod.__name__}.libs/*openblas*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    info["threads"] = getattr(handle, symbol)()
                    break
        env["blas"][mod.__name__] = info
    return env


def run(args) -> dict:
    import fractal_spectra

    entry = WORKLOADS[args.workload]
    references = {} if args.smoke else {
        label: (REFERENCE / args.workload / label).read_text() for label in entry["csvs"]
    }
    op = make_op(args.workload, args.spec, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(fractal_spectra)
    probe = HostProbe(entry["host_probe"]) if "host_probe" in entry and not args.trace else None
    probes = []
    try:
        samples = measure(args, op, references, tracer, probe, probes)
    finally:
        if probe is not None:
            probe.close()

    record = {
        "workload": args.workload,
        "spec": json.loads(args.spec.read_text()),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "samples": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if probe is not None:
        record["host_probe"] = {"name": entry["host_probe"], "ref_s": HOST_PROBES[entry["host_probe"]][1], "probes_s": probes}
    if tracer is not None:
        record.update(layer_record(tracer, samples))
    return record


def measure(args, op, references: dict, tracer, probe, probes: list[float]) -> list[dict]:
    """Run and check operations for ``args.seconds``; one sample each.  With
    a host probe, append to ``probes`` one probe before every operation and
    one after the last."""
    min_ops = 2 if tracer is not None else 1
    if probe is not None:
        probe()  # warm-up
        probes.append(probe())
    samples = []
    t_begin = time.perf_counter()
    while True:
        i = len(samples)
        traced = tracer is not None and i % 2 == 1
        out = args.workdir / f"op{i}"
        t_iter = time.perf_counter()
        gc.collect()
        if traced:
            tracer.install()
            tracer.begin(i)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result, problems = op(out), []
        except Exception as exc:  # a failed operation is counted, not fatal
            result, problems = None, [f"{type(exc).__name__}: {exc}"]
        t1 = time.perf_counter()
        c1 = time.process_time()
        if traced:
            tracer.end()
            tracer.uninstall()
        if not problems:
            try:
                problems = check(args.workload, result, out, references)
            except (OSError, ValueError, IndexError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        shutil.rmtree(out, ignore_errors=True)
        sample = {"op": i, "traced": traced, "wall_s": t1 - t0, "cpu_s": c1 - c0, "problems": problems}
        if probe is not None:
            probes.append(probe())
        sample["iter_s"] = time.perf_counter() - t_iter
        samples.append(sample)
        elapsed = time.perf_counter() - t_begin
        if len(samples) >= min_ops and elapsed + statistics.median(s["iter_s"] for s in samples) > args.seconds:
            return samples


def layer_record(tracer, samples: list[dict]) -> dict:
    from tracer import counts_repeat, summarize

    per_op = tracer.op_metrics()
    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]
    layers = summarize([per_op[s["op"]] for s in traced])
    traced_s = statistics.median(s["wall_s"] for s in traced)
    untraced_s = statistics.median(s["wall_s"] for s in plain)
    layers.update({
        "process.cpu_s": statistics.median(s["cpu_s"] for s in plain),
        "process.cpu_util": statistics.median(s["cpu_s"] / s["wall_s"] for s in plain),
        "trace.run_s": traced_s,
        "trace.untraced_run_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
    })
    return {
        "layers": layers,
        "layers_per_op": {str(op): m for op, m in per_op.items()},
        "counts_repeat": counts_repeat([per_op[s["op"]] for s in traced]),
        "spans": tracer.spans,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--spec", type=Path)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path)
    p.add_argument("--result", type=Path)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--host-probe", choices=sorted(HOST_PROBES))
    args = p.parse_args(argv)
    if args.host_probe:
        serve_probe(args.host_probe)
        return 0
    if args.workload is None or args.spec is None:
        p.error("--workload and --spec are required")
    if args.probe:
        import fractal_spectra.cli  # noqa: F401  (the import being timed)

        load_spec(args.workload, json.loads(args.spec.read_text()))
        print("ready", flush=True)
        return 0
    args.result.write_text(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
