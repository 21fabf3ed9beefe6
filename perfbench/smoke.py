"""Smoke test of the benchmark itself, on shrunken versions of the four specs.

    python3 perfbench/smoke.py

Checks that the metric names and units agree with BENCHMARK.json, that every
operation passes, that a traced run's self times add up to its operations'
wall time, and that every counter repeats exactly across operations and
across two runs.  Exits non-zero on the first failed check.  It is a plain
script rather than a pytest file so that the package's test suite does not
collect it.
"""

from __future__ import annotations

import json
import math
import sys

from run import END_TO_END_UNITS, ROOT, bench
from tracer import COUNT_METRICS, LAYER_UNITS
from worker import WORKLOADS


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END_UNITS,
           "end_to_end metrics in BENCHMARK.json differ from run.py")
    expect({m["name"]: m["unit"] for m in declared["per_layer"]} == LAYER_UNITS,
           "per_layer metrics in BENCHMARK.json differ from tracer.py")
    expect({w["name"] for w in declared["workloads"]} <= set(WORKLOADS),
           "BENCHMARK.json names a workload that worker.py does not define")

    for name in WORKLOADS:
        runs = [bench(name, seed=seed, seconds=0.01, trace=1, smoke=True) for seed in (1, 2)]
        for record in runs:
            expect(all(not s["problems"] for s in record["samples"]), f"{name}: {record['samples']}")
            expect(record["counts_repeat"], f"{name}: counters differ between operations")
            layers = record["layers"]
            expect(set(layers) == set(LAYER_UNITS), f"{name}: per-layer metrics missing")
            for op, m in record["layers_per_op"].items():
                expect(math.isclose(m["trace.self_sum_ratio"], 1.0, rel_tol=1e-9),
                       f"{name}: self times of op {op} do not add up to its duration")
        counts = [{k: r["layers"][k] for k in COUNT_METRICS} for r in runs]
        expect(counts[0] == counts[1], f"{name}: counters differ between runs: {counts}")
        expect(counts[0]["eigensolve.solves"] > 0, f"{name}: no solve was traced")
        if name == "laakso_krylov":
            expect(counts[0]["eigensolve.lanczos_calls"] > 0, "shrunken laakso_krylov left the Krylov route")
        print(f"smoke {name}: ok, counters {counts[0]}")

    for name in ("laakso_cli", "string_cli"):  # one workload per host probe
        record = bench(name, seed=1, seconds=0.01, trace=0, smoke=True)
        expect(set(record["metrics"]) == set(END_TO_END_UNITS), f"{name}: end-to-end metrics missing")
        expect(all(m["value"] > 0 for m in record["metrics"].values()), f"{name}: a metric reads 0: {record['metrics']}")
        probe = record.get("host_probe", {})
        expect(probe.get("name") == WORKLOADS[name].get("host_probe")
               and len(probe.get("probes_s", [])) == len(record["samples"]) + 1,
               f"{name}: host probe not run as WORKLOADS says")
        print(f"smoke end-to-end {name}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
