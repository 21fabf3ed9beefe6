"""Command-line entry point for reproducible spectrum runs.

Each subcommand reads a JSON spec, the only source of its settings, writes
CSV spectra and JSON reports into an output directory, and is deterministic:
an identical spec produces byte-identical files (floats are serialized via
shortest round-trip repr).

Exit codes: 0 ok, 1 a check failed (compare, nesting, decimation,
isospectrality or verify), 2 bad spec, 3 a spectrum could not be completed
(decimation counts that do not add up), 4 incommensurable lengths.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import gasket, laakso, strings
from .eigensolve import FDModel, SpectrumList, _nearest, compare_spectra, verify_nesting
from .errors import FractalSpectraError, InvalidSpaceSpec, NoCommonPitch, NoConvergence

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_SPEC = 2
EXIT_SOLVER = 3
EXIT_INCOMMENSURABLE = 4

ZETA_S_GRID = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)


def _sanitize(obj):
    """Make report structures JSON-serializable with stable float text."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _dump_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_sanitize(obj), sort_keys=True, indent=2) + "\n")


def _load_spec(path: str, keys: tuple[str, ...]) -> dict:
    """The JSON object of a spec file whose keys are among ``keys``, the
    fields its command reads: a misspelt key would run on the default and
    be written into run.json as if it were in effect."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidSpaceSpec(f"cannot read spec {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidSpaceSpec("spec file must contain a JSON object")
    unknown = sorted(doc.keys() - set(keys))
    if unknown:
        raise InvalidSpaceSpec(f"spec keys {unknown} are not read; the keys are {list(keys)}")
    return doc


def _integer(value, name: str, low: float = -math.inf, high: float = math.inf) -> int:
    """A spec field that must be a JSON integer in [low, high]: ``int()``
    would truncate a float and accept a bool or a numeric string."""
    if type(value) is not int or not low <= value <= high:
        raise InvalidSpaceSpec(f"{name} must be an integer in [{low}, {high}], got {value!r}")
    return value


def _list(value, name: str) -> list:
    """A spec field that must be a JSON list: iterating over anything else
    fails with a TypeError, or walks the characters of a string."""
    if type(value) is not list:
        raise InvalidSpaceSpec(f"{name} must be a list, got {value!r}")
    return value


def _run_meta(args, spec_doc: dict, **in_effect) -> dict:
    """run.json: the command, its spec and the settings the run used."""
    return {"command": args.command, "spec": spec_doc, **in_effect}


def _number(value, name: str) -> float:
    """A spec field that must be a positive, finite JSON number: ``float()``
    would take a JSON true as 1.0 and a numeric string, an infinite cut
    never ends the analytic listing and an infinite length has no grid,
    and a JSON integer above the largest float has no float."""
    if type(value) not in (int, float) or not 0 < value <= sys.float_info.max:
        raise InvalidSpaceSpec(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def _check_pitch(spec) -> None:
    """Refuse a refine whose mesh pitch h, or the scale 2 / h^2 of the
    mesh values, is no finite positive float: the run would end in an
    OverflowError after its output directory was made."""
    try:
        fine = 2 / (spec.pitch * spec.pitch) < math.inf
    except (OverflowError, ZeroDivisionError):
        fine = False
    if not fine:
        raise InvalidSpaceSpec(f"refine {spec.refine} puts the mesh pitch h or 2 / h^2 "
                               "past the floats")


def _nesting(out: Path, per_level: list[SpectrumList], tol: float) -> bool:
    """Check that each level's spectrum nests in the next one's; write
    nesting.json and return whether every check passed."""
    reports = [
        {"lower_level": i, "upper_level": i + 1, **verify_nesting(lo, hi, tol=tol)}
        for i, (lo, hi) in enumerate(zip(per_level, per_level[1:]))
    ]
    ok = all(r["pass"] for r in reports)
    _dump_json(out / "nesting.json", {"reports": reports, "pass": ok})
    return ok


# -- laakso ------------------------------------------------------------------


def cmd_laakso(args) -> int:
    doc = _load_spec(args.spec, ("j", "depth", "refine", "boundary", "lambda_max"))
    if "j" not in doc:
        raise InvalidSpaceSpec('laakso spec needs a "j" list')
    j = [_integer(x, "j") for x in _list(doc["j"], "j")]
    if "depth" in doc and _integer(doc["depth"], "depth") != len(j):
        raise InvalidSpaceSpec(f'depth {doc["depth"]} does not match len(j)={len(j)}')
    spec = laakso.LaaksoSpec(j=j, refine=_integer(doc.get("refine", 8), "refine"),
                             boundary=doc.get("boundary", "neumann"))
    _check_pitch(spec)
    lam_max = _number(doc.get("lambda_max", 200.0), "lambda_max")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    analytic = laakso.laakso_analytic_spectrum(spec, lam_max)
    refines = [spec.refine]
    if spec.refine % 2 == 0 and spec.refine >= 4:
        refines.append(spec.refine // 2)  # the coarse pitch gives the convergence order
    # one set of vertex values serves both pitches
    per_level, *coarse = laakso.laakso_refinement_spectra(spec, lam_max, refines)
    numeric = per_level[-1]
    compare = compare_spectra(
        numeric,
        analytic,
        FDModel(pitch=spec.pitch),
        coverage_max=0.75 * lam_max,
        numeric_coarse=coarse[0][-1] if coarse else None,
    )
    nested = _nesting(out, per_level, args.tol)

    (out / "analytic.csv").write_text(analytic.to_csv())
    (out / "numeric.csv").write_text(numeric.to_csv())
    _dump_json(out / "compare.json", compare)
    _dump_json(out / "run.json", _run_meta(args, doc, refine=spec.refine, lambda_max=lam_max,
                                           boundary=spec.boundary, tol=args.tol))
    print(f"laakso: compare {'pass' if compare['pass'] else 'FAIL'}, "
          f"nesting {'pass' if nested else 'FAIL'} -> {out}")
    return EXIT_OK if compare["pass"] and nested else EXIT_CHECK_FAILED


# -- choux -------------------------------------------------------------------


def cmd_choux(args) -> int:
    doc = _load_spec(args.spec, ("fiber_depth", "gasket_level", "boundary"))
    if "fiber_depth" not in doc or "gasket_level" not in doc:
        raise InvalidSpaceSpec('choux spec needs "fiber_depth" and "gasket_level"')
    spec = gasket.ChouxSpec(
        fiber_depth=_integer(doc["fiber_depth"], "fiber_depth"),
        gasket_level=_integer(doc["gasket_level"], "gasket_level"),
        boundary=doc.get("boundary"),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    per_level = gasket.choux_numeric_spectra(spec)
    for i, s in enumerate(per_level):
        (out / f"numeric_depth{i}.csv").write_text(s.to_csv())
    nested = _nesting(out, per_level, args.tol)

    # the Dirichlet decimation chain up to the requested gasket level, in
    # closed form: the checks hold it to the decimation relation
    dirichlet = gasket.decimation_chain(spec.gasket_level)
    checks = [
        {"from_level": m + 1, "to_level": m + 2,
         **gasket.decimation_check(dirichlet[m], dirichlet[m + 1])}
        for m in range(len(dirichlet) - 1)
    ]
    branch = gasket.decimation_branch(dirichlet, list(range(1, spec.gasket_level + 1)))
    decimated = all(c["pass"] for c in checks)
    _dump_json(out / "decimation.json", {
        "checks": checks,
        "branch": branch,
        "hausdorff_dimension": gasket.hausdorff_dimension(),
        "pass": decimated,
    })
    _dump_json(out / "run.json", _run_meta(args, doc, boundary=spec.boundary, tol=args.tol))
    print(f"choux: nesting {'pass' if nested else 'FAIL'}, "
          f"decimation {'pass' if decimated else 'FAIL'} -> {out}")
    return EXIT_OK if nested and decimated else EXIT_CHECK_FAILED


# -- string ------------------------------------------------------------------


def cmd_string(args) -> int:
    doc = _load_spec(args.spec, ("lengths", "mults", "denominator_bound", "refine", "depth",
                                 "lambda_max", "zeta_terms"))
    if "lengths" not in doc or "mults" not in doc:
        raise InvalidSpaceSpec('string spec needs "lengths" and "mults"')
    bound = _integer(doc.get("denominator_bound", 10**6), "denominator_bound")
    lengths = [_number(l, "lengths") for l in _list(doc["lengths"], "lengths")]
    rational, perturbation = strings.rationalize(lengths, bound)
    if perturbation > 1e-9:
        raise NoCommonPitch(
            f"lengths have no common pitch at denominator bound {bound} "
            f"(relative perturbation {perturbation:.3e})"
        )
    refine = _integer(doc.get("refine", 8), "refine")
    mults = [_integer(m, "mults") for m in _list(doc["mults"], "mults")]
    spec = strings.StringSpec(lengths=rational, mults=mults, refine=refine)
    if "depth" in doc:
        spec = spec.truncate(_integer(doc["depth"], "depth", 1, spec.depth))
    _check_pitch(spec)
    lam_max = _number(doc.get("lambda_max", 700.0), "lambda_max")
    # the zeta table sums every value up to the zeta_terms-th value of the
    # longest string
    n_terms = _integer(doc.get("zeta_terms", 10**4), "zeta_terms", 1)
    try:
        zeta_lam = (math.pi * n_terms / float(spec.lengths[0])) ** 2
    except OverflowError:
        raise InvalidSpaceSpec("zeta_terms puts the zeta cut (pi n / l_1)^2 past the largest "
                               "float") from None

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    analytic = strings.string_analytic_spectrum(spec, lam_max)
    per_level = strings.stitched_numeric_spectra(spec, lam_max)
    numeric = per_level[-1]
    iso = strings.isospectrality_report(numeric, analytic, FDModel(pitch=spec.pitch), lam_max)
    iso["length_perturbation"] = perturbation
    nested = _nesting(out, per_level, args.tol)

    # zeta table, summed string by string
    rows = ["s,partial_sum,lambda_max"]
    for s_val in ZETA_S_GRID:
        z = strings.zeta_partial(spec, s_val, zeta_lam)
        rows.append(f"{repr(float(s_val))},{repr(z)},{repr(zeta_lam)}")

    (out / "analytic.csv").write_text(analytic.to_csv())
    (out / "numeric.csv").write_text(numeric.to_csv())
    _dump_json(out / "isospectrality.json", iso)
    (out / "zeta.csv").write_text("\n".join(rows) + "\n")
    _dump_json(out / "run.json", _run_meta(args, doc, refine=spec.refine, lambda_max=lam_max,
                                           tol=args.tol))
    print(f"string: isospectrality {'pass' if iso['pass'] else 'FAIL'}, "
          f"nesting {'pass' if nested else 'FAIL'} -> {out}")
    return EXIT_OK if iso["pass"] and nested else EXIT_CHECK_FAILED


# -- verify ------------------------------------------------------------------


def _reread_csv(path: Path) -> SpectrumList:
    text = path.read_text()
    spectrum = SpectrumList.from_csv(text)
    if spectrum.to_csv() != text:
        raise ValueError(f"{path.name} does not round-trip")
    return spectrum


def _float_text(text: str) -> bool:
    """Whether ``text`` is a finite float in the shortest round-trip form
    the zeta table is written in."""
    try:
        value = float(text)
    except ValueError:
        return False
    return math.isfinite(value) and repr(value) == text


def _false_passes(doc, where: str) -> list[str]:
    """A failure naming the path of every ``pass`` key of a stored report,
    at any depth of its dicts and lists, that is not true, in document
    order.  The walk keeps its own stack: a report may nest as deep as the
    JSON parser goes."""
    found, stack = [], [(where, doc)]
    while stack:
        where, node = stack.pop()
        if isinstance(node, dict):
            if node.get("pass", True) is not True:
                found.append(f"{where}: stored pass flag is "
                             f"{'false' if node['pass'] is False else 'not true'}")
            children = [(f"{where}.{key}", value) for key, value in node.items()]
        elif isinstance(node, list):
            children = [(f"{where}[{i}]", value) for i, value in enumerate(node)]
        else:
            continue
        stack += reversed(children)
    return found


# the files each command writes besides run.json; choux adds numeric_depth0..i.csv
RUN_FILES = {
    "laakso": ("analytic.csv", "numeric.csv", "compare.json", "nesting.json"),
    "choux": ("nesting.json", "decimation.json"),
    "string": ("analytic.csv", "numeric.csv", "isospectrality.json", "zeta.csv", "nesting.json"),
}


def _missing_files(out: Path) -> list[str]:
    """A failure naming each file that the run recorded in run.json writes
    and ``out`` lacks, by its command; of the numeric_depth files of a
    choux run, the first that is missing."""
    try:
        meta = json.loads((out / "run.json").read_text())
        names = RUN_FILES[meta["command"]]
        levels = 0
        if meta["command"] == "choux":
            levels = _integer(meta["spec"]["fiber_depth"], "fiber_depth", 0) + 1
    except (ValueError, RecursionError, KeyError, TypeError, InvalidSpaceSpec) as exc:
        return [f"run.json: does not name the command and spec of a run ({exc!r})"]
    csvs = (f"numeric_depth{i}.csv" for i in range(levels))
    first = next((name for name in csvs if not (out / name).is_file()), None)
    return [f"{name}: missing" for name in (*names, first)
            if name and not (out / name).is_file()]


def cmd_verify(args) -> int:
    out = Path(args.out)
    run_path = out / "run.json"
    if not run_path.exists():
        print(f"verify: no run.json in {out}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    failures, spectra = _missing_files(out), {}

    for csv_path in sorted(out.glob("*.csv")):
        if csv_path.name == "zeta.csv":
            try:
                lines = csv_path.read_text().strip().splitlines()
            except ValueError as exc:  # not UTF-8
                failures.append(f"{csv_path.name}: {exc}")
                continue
            rows = [line.split(",") for line in lines[1:]]
            if lines[:1] != ["s,partial_sum,lambda_max"]:
                failures.append(f"{csv_path.name}: bad header")
            elif [r[0] for r in rows] != [repr(s) for s in ZETA_S_GRID]:
                failures.append(f"{csv_path.name}: s column is not {list(ZETA_S_GRID)}")
            else:
                failures += [f"{csv_path.name}: row {i} is not three floats as written"
                             for i, r in enumerate(rows, 1)
                             if len(r) != 3 or not all(map(_float_text, r))]
            continue
        try:
            spectra[csv_path.name] = _reread_csv(csv_path)
        except (ValueError, IndexError) as exc:
            failures.append(f"{csv_path.name}: {exc}")

    for json_path in sorted(out.glob("*.json")):
        if json_path.name == "run.json":
            continue
        try:
            doc = json.loads(json_path.read_text())
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            failures.append(f"{json_path.name}: {exc}")
            continue
        failures += _false_passes(doc, json_path.name)

    # optional re-check of numeric-vs-analytic matching at an overridden tol,
    # of files that read back
    if args.tol is not None and {"analytic.csv", "numeric.csv"} <= spectra.keys():
        analytic, numeric = spectra["analytic.csv"], spectra["numeric.csv"]
        avals = analytic.values()
        for e in numeric.entries:
            if abs(e.value) <= 1e-9 and (not avals or avals[0] > 1e-12):
                continue
            # a value with no analytic value at all is off the set by inf
            off = abs(avals[_nearest(avals, e.value)] - e.value) if avals else math.inf
            dev = off / max(1.0, abs(e.value))
            if dev > args.tol:
                failures.append(
                    f"numeric {e.value!r} off the analytic set by {dev:.3e} > tol {args.tol}"
                )

    if failures:
        for f in failures:
            print(f"verify: FAIL {f}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"verify: pass ({out})")
    return EXIT_OK


# -- driver ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fractal-spectra",
        description="Finite-level fractal Laplacian spectra in closed form: run, check, verify.",
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
        # no solver draws random numbers, so the seed has no effect; the flag
        # is kept because the benchmark's worker passes it to every run
        sp.add_argument("--seed", type=int, default=None,
                        help="accepted and ignored: no solver draws random numbers")
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on its first call: a run that calls
    ``main`` again reuses it (``parse_args`` keeps no state between calls)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # NaN compares false both ways, so a NaN tolerance would pass or fail
        # every check; only finite values >= 0 are tolerances
        if args.tol is not None and not 0 <= args.tol < math.inf:
            raise InvalidSpaceSpec(f"--tol must be a finite number >= 0, got {args.tol}")
        return args.func(args)
    except NoCommonPitch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMMENSURABLE
    except NoConvergence as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (InvalidSpaceSpec, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    except FractalSpectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
