"""Regenerate the reference spectra the benchmark checks every operation against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Runs each workload's operation once on the current source tree and stores
the spectra it checks (``WORKLOADS[...]["csvs"]``) under
``perfbench/reference/<workload>/``.  Only regenerate them on a commit whose
spectra are known to be right: every later operation must match them.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from worker import REFERENCE, WORKLOADS, check, make_op


def main() -> int:
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        for name, entry in WORKLOADS.items():
            spec_path = Path(tmp) / f"{name}.json"
            spec_path.write_text(json.dumps(entry["spec"]))
            out = Path(tmp) / name
            result = make_op(name, spec_path, seed=0)(out)
            problems = check(name, result, out, references={})
            if problems:
                print(f"{name}: {problems}", file=sys.stderr)
                return 1
            target = REFERENCE / name
            target.mkdir(parents=True, exist_ok=True)
            for label in entry["csvs"]:
                if entry["command"] is None:
                    (target / label).write_text(result.to_csv())
                else:
                    shutil.copyfile(out / label, target / label)
            print(f"{name}: wrote {', '.join(entry['csvs'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
