"""Command-line entry point for reproducible spectrum runs.

Each subcommand reads a JSON spec, writes CSV spectra and JSON reports into
an output directory, and is deterministic: identical spec + flags produce
byte-identical files (floats are serialized via shortest round-trip repr).

Exit codes: 0 ok, 2 bad spec, 3 solver failure, 4 incommensurable lengths.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np
import scipy.linalg

from . import eigensolve, gasket, laakso, strings
from .eigensolve import FDModel, SpectrumList, compare_spectra, verify_nesting
from .errors import (
    FractalSpectraError,
    InvalidSpaceSpec,
    NoCommonPitch,
    NoConvergence,
    NonDividingPitch,
    NotPositiveMass,
)

EXIT_OK = 0
EXIT_BAD_SPEC = 2
EXIT_SOLVER = 3
EXIT_INCOMMENSURABLE = 4

SOLVER_ERRORS = (NoConvergence, NotPositiveMass, scipy.linalg.LinAlgError)

ZETA_S_GRID = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)


def _sanitize(obj):
    """Make report structures JSON-serializable with stable float text."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _dump_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_sanitize(obj), sort_keys=True, indent=2) + "\n")


def _load_spec(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidSpaceSpec(f"cannot read spec {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidSpaceSpec("spec file must contain a JSON object")
    return doc


def _run_meta(args, spec_doc: dict, **in_effect) -> dict:
    """run.json: the command, its spec and the settings the run used."""
    return {"command": args.command, "spec": spec_doc, **in_effect}


def _lambda_max(args, doc: dict, default: float) -> float:
    lam_max = float(doc.get("lambda_max", default)) if args.lambda_max is None else args.lambda_max
    if not lam_max > 0:
        raise InvalidSpaceSpec(f"lambda_max must be positive, got {lam_max}")
    return lam_max


def _nesting(out: Path, per_level: list[SpectrumList], tol: float) -> bool:
    """Check that each level's spectrum nests in the next one's; write
    nesting.json and return whether every check passed."""
    reports = [
        {"lower_level": i, "upper_level": i + 1, **verify_nesting(lo, hi, tol=tol).to_dict()}
        for i, (lo, hi) in enumerate(zip(per_level, per_level[1:]))
    ]
    ok = all(r["pass"] for r in reports)
    _dump_json(out / "nesting.json", {"reports": reports, "pass": ok})
    return ok


# -- laakso ------------------------------------------------------------------


def cmd_laakso(args) -> int:
    doc = _load_spec(args.spec)
    if "j" not in doc:
        raise InvalidSpaceSpec('laakso spec needs a "j" list')
    j = doc["j"]
    if "depth" in doc and int(doc["depth"]) != len(j):
        raise InvalidSpaceSpec(f'depth {doc["depth"]} does not match len(j)={len(j)}')
    refine = int(doc.get("refine", 8)) if args.refine is None else args.refine
    boundary = doc.get("boundary", "neumann") if args.boundary is None else args.boundary
    spec = laakso.LaaksoSpec(j=j, refine=refine, boundary=boundary)
    if args.pitch is not None:
        d_n = spec.d[spec.depth]
        r = 1.0 / (args.pitch * d_n)
        if abs(r - round(r)) > 1e-9 or round(r) < 2:
            raise InvalidSpaceSpec(
                f"pitch {args.pitch} is not 1/(r*{d_n}) for an integer refinement r >= 2"
            )
        spec = laakso.LaaksoSpec(j=j, refine=int(round(r)), boundary=boundary)
    lam_max = _lambda_max(args, doc, 200.0)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    analytic = laakso.laakso_analytic_spectrum(spec, lam_max)
    per_level = laakso.laakso_numeric_spectra(spec, lam_max, seed=args.seed)
    numeric = per_level[-1]
    coarse = None
    if spec.refine % 2 == 0 and spec.refine >= 4:
        coarse_spec = laakso.LaaksoSpec(j=list(spec.j), refine=spec.refine // 2, boundary=boundary)
        coarse = laakso.laakso_numeric_spectrum(coarse_spec, lam_max, seed=args.seed)
    compare = compare_spectra(
        numeric,
        analytic,
        FDModel(pitch=spec.pitch),
        coverage_max=0.75 * lam_max,
        numeric_coarse=coarse,
    )
    nested = _nesting(out, per_level, args.tol)

    (out / "analytic.csv").write_text(analytic.to_csv())
    (out / "numeric.csv").write_text(numeric.to_csv())
    _dump_json(out / "compare.json", compare.to_dict())
    _dump_json(out / "run.json", _run_meta(args, doc, refine=spec.refine, lambda_max=lam_max,
                                           boundary=spec.boundary, seed=args.seed, tol=args.tol))
    print(f"laakso: compare {'pass' if compare.ok else 'FAIL'}, "
          f"nesting {'pass' if nested else 'FAIL'} -> {out}")
    return EXIT_OK if compare.ok and nested else EXIT_SOLVER


# -- choux -------------------------------------------------------------------


def cmd_choux(args) -> int:
    doc = _load_spec(args.spec)
    if "fiber_depth" not in doc or "gasket_level" not in doc:
        raise InvalidSpaceSpec('choux spec needs "fiber_depth" and "gasket_level"')
    spec = gasket.ChouxSpec(
        fiber_depth=int(doc["fiber_depth"]),
        gasket_level=int(doc["gasket_level"]),
        boundary=doc.get("boundary") if args.boundary is None else args.boundary,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    per_level = gasket.choux_numeric_spectra(spec)
    for i, s in enumerate(per_level):
        (out / f"numeric_depth{i}.csv").write_text(s.to_csv())
    nested = _nesting(out, per_level, args.tol)

    # gasket Dirichlet decimation chain up to the requested gasket level
    dirichlet = [
        gasket.gasket_graph_spectrum(gasket.build_gasket(m), boundary="dirichlet")
        for m in range(1, spec.gasket_level + 1)
    ]
    checks = [
        {"from_level": m + 1, "to_level": m + 2,
         **gasket.decimation_check(dirichlet[m], dirichlet[m + 1])}
        for m in range(len(dirichlet) - 1)
    ]
    branch = gasket.decimation_branch(dirichlet, list(range(1, spec.gasket_level + 1)))
    _dump_json(out / "decimation.json", {
        "checks": checks,
        "branch": branch,
        "hausdorff_dimension": gasket.hausdorff_dimension(),
        "pass": all(c["pass"] for c in checks),
    })
    _dump_json(out / "run.json", _run_meta(args, doc, boundary=spec.boundary, tol=args.tol))
    decimated = all(c["pass"] for c in checks)
    print(f"choux: nesting {'pass' if nested else 'FAIL'}, "
          f"decimation {'pass' if decimated else 'FAIL'} -> {out}")
    return EXIT_OK if nested and decimated else EXIT_SOLVER


# -- string ------------------------------------------------------------------


def cmd_string(args) -> int:
    doc = _load_spec(args.spec)
    if "lengths" not in doc or "mults" not in doc:
        raise InvalidSpaceSpec('string spec needs "lengths" and "mults"')
    bound = int(doc.get("denominator_bound", 10**6))
    rational, perturbation = strings.rationalize(doc["lengths"], bound)
    if perturbation > 1e-9:
        raise NoCommonPitch(
            f"lengths have no common pitch at denominator bound {bound} "
            f"(relative perturbation {perturbation:.3e})"
        )
    refine = int(doc.get("refine", 8)) if args.refine is None else args.refine
    spec = strings.StringSpec(lengths=rational, mults=[int(m) for m in doc["mults"]], refine=refine)
    if "depth" in doc:
        spec = spec.truncate(int(doc["depth"]))
    lam_max = _lambda_max(args, doc, 700.0)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    analytic = strings.string_analytic_spectrum(spec, lam_max)
    per_level = strings.stitched_numeric_spectra(spec, lam_max, seed=args.seed)
    numeric = per_level[-1]
    iso = strings.isospectrality_report(numeric, analytic, FDModel(pitch=spec.pitch), lam_max)
    iso["length_perturbation"] = perturbation
    nested = _nesting(out, per_level, args.tol)

    # zeta table over the analytic spectrum, about zeta_terms terms deep
    n_terms = int(doc.get("zeta_terms", 10**4))
    l1 = float(spec.lengths[0])
    zeta_lam = (math.pi * n_terms / l1) ** 2
    zeta_spectrum = strings.string_analytic_spectrum(spec, zeta_lam)
    rows = ["s,partial_sum,lambda_max"]
    for s_val in ZETA_S_GRID:
        z = strings.zeta_partial(zeta_spectrum, s_val, zeta_lam)
        rows.append(f"{repr(float(s_val))},{repr(z)},{repr(zeta_lam)}")

    (out / "analytic.csv").write_text(analytic.to_csv())
    (out / "numeric.csv").write_text(numeric.to_csv())
    _dump_json(out / "isospectrality.json", iso)
    (out / "zeta.csv").write_text("\n".join(rows) + "\n")
    _dump_json(out / "run.json", _run_meta(args, doc, refine=spec.refine, lambda_max=lam_max,
                                           seed=args.seed, tol=args.tol))
    print(f"string: isospectrality {'pass' if iso['pass'] else 'FAIL'} -> {out}")
    return EXIT_OK if iso["pass"] and nested else EXIT_SOLVER


# -- verify ------------------------------------------------------------------


def _reread_csv(path: Path) -> SpectrumList:
    text = path.read_text()
    spectrum = SpectrumList.from_csv(text)
    if spectrum.to_csv() != text:
        raise ValueError(f"{path.name} does not round-trip")
    return spectrum


def cmd_verify(args) -> int:
    out = Path(args.out)
    run_path = out / "run.json"
    if not run_path.exists():
        print(f"verify: no run.json in {out}", file=sys.stderr)
        return 1
    failures = []

    for csv_path in sorted(out.glob("*.csv")):
        if csv_path.name == "zeta.csv":
            lines = csv_path.read_text().strip().splitlines()
            if lines[:1] != ["s,partial_sum,lambda_max"]:
                failures.append(f"{csv_path.name}: bad header")
            continue
        try:
            _reread_csv(csv_path)
        except (ValueError, IndexError) as exc:
            failures.append(f"{csv_path.name}: {exc}")

    for json_path in sorted(out.glob("*.json")):
        if json_path.name == "run.json":
            continue
        try:
            doc = json.loads(json_path.read_text())
        except json.JSONDecodeError as exc:
            failures.append(f"{json_path.name}: {exc}")
            continue
        if isinstance(doc, dict) and doc.get("pass") is False:
            failures.append(f"{json_path.name}: stored pass flag is false")

    # optional re-check of numeric-vs-analytic matching at an overridden tol
    if args.tol is not None and (out / "analytic.csv").exists() and (out / "numeric.csv").exists():
        analytic = SpectrumList.from_csv((out / "analytic.csv").read_text())
        numeric = SpectrumList.from_csv((out / "numeric.csv").read_text())
        avals = analytic.values()
        for e in numeric.entries:
            if abs(e.value) <= 1e-9 and (not len(avals) or avals[0] > 1e-12):
                continue
            dev = float(np.min(np.abs(avals - e.value))) / max(1.0, abs(e.value))
            if dev > args.tol:
                failures.append(
                    f"numeric {e.value!r} off the analytic set by {dev:.3e} > tol {args.tol}"
                )

    if failures:
        for f in failures:
            print(f"verify: FAIL {f}", file=sys.stderr)
        return 1
    print(f"verify: pass ({out})")
    return EXIT_OK


# -- driver ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fractal-spectra",
        description="Finite-level fractal Laplacian spectra: build, solve, verify.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    laakso_p, choux_p, string_p, verify_p = (
        sub.add_parser(name) for name in ("laakso", "choux", "string", "verify")
    )
    for sp, fn in ((laakso_p, cmd_laakso), (choux_p, cmd_choux), (string_p, cmd_string),
                   (verify_p, cmd_verify)):
        sp.set_defaults(func=fn)
        sp.add_argument("--out", required=True, help="output directory")
    verify_p.add_argument("--tol", type=float, default=None,
                          help="re-check numeric against analytic values at this tolerance")
    for sp in (laakso_p, choux_p, string_p):
        sp.add_argument("--spec", required=True, help="path to JSON spec")
        sp.add_argument("--tol", type=float, default=1e-9, help="nesting tolerance")
        # choux asks for whole spectra, which LAPACK returns without a start
        # vector; it keeps the flag so that one command line serves every
        # solving subcommand
        sp.add_argument("--seed", type=int, default=eigensolve.DEFAULT_SEED)
    for sp in (laakso_p, string_p):
        sp.add_argument("--lambda-max", dest="lambda_max", type=float, default=None)
        sp.add_argument("--refine", type=int, default=None)
    for sp in (laakso_p, choux_p):
        sp.add_argument("--boundary", choices=("neumann", "dirichlet"), default=None)
    laakso_p.add_argument("--pitch", type=float, default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NoCommonPitch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMMENSURABLE
    except (InvalidSpaceSpec, NonDividingPitch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    except SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except FractalSpectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
