"""Span recorder that times the package's layers from outside.

The tracer wraps every public module-level function of the package modules
named in ``MODULES``, plus the two LAPACK/ARPACK entry points the solve layer
calls (``scipy.linalg.eigh`` and ``scipy.sparse.linalg.eigsh``).  A function
is replaced in *every* namespace that binds it: ``laakso``, ``strings`` and
``gasket`` import ``solve_below`` / ``solve_dense`` / ``classify_levels`` by
name, so patching only ``eigensolve`` would miss those calls.

Spans (name, start, end, parent span, operation id, size info) are kept in
memory; the worker writes them out once, when the run ends.  A span's self
time is its duration minus the durations of its direct children, so the
self times of one operation add up to the duration of its root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

MODULES = ("cli", "laakso", "gasket", "strings", "metric_graph", "fiber", "eigensolve")
EIGH = "scipy.linalg.eigh"
EIGSH = "scipy.sparse.linalg.eigsh"
ROOT = "bench.op"

#: entry points of the solve layer; a call nested in another one is not a new solve
SOLVERS = {"eigensolve.solve", "eigensolve.solve_below", "eigensolve.solve_dense", "eigensolve.solve_lanczos"}
#: calls that compute eigenpairs, counted at the outermost one
COMPUTES = {EIGH, EIGSH, "eigensolve.solve_lanczos"}
KRYLOV = {"eigensolve.solve_lanczos", EIGSH}
BUILDERS = {
    "laakso.builds": {"laakso.build_laakso"},
    "gasket.builds": {"gasket.build_gasket", "gasket.build_choux"},
    "strings.builds": {"strings.build_stitched"},
}

#: self-time buckets; a function not listed here falls into its module's default
BUCKETS = {
    "eigensolve.solve_s": SOLVERS | {"eigensolve.orth_against", EIGH, EIGSH},
    "eigensolve.cluster_s": {"eigensolve.cluster"},
    "eigensolve.nesting_s": {"eigensolve.verify_nesting"},
    "eigensolve.compare_s": {"eigensolve.compare_spectra", "eigensolve.richardson"},
    "fiber.levels_s": {
        "fiber.discretize_levels",
        "fiber.graph_levels",
        "fiber.mesh_fiber_structure",
        "fiber.vertex_fiber_structure",
    },
    "metric_graph.discretize_s": {"metric_graph.discretize"},
    "metric_graph.assemble_s": {"metric_graph.assemble"},
    "metric_graph.graph_operator_s": {"metric_graph.graph_operator"},
    "laakso.build_s": {"laakso.build_laakso", "laakso.wormhole_table"},
    "laakso.analytic_s": {"laakso.laakso_analytic_spectrum"},
    "gasket.build_s": {"gasket.build_gasket", "gasket.build_choux"},
    "gasket.decimation_s": {"gasket.decimation_check", "gasket.decimation_branch"},
    "strings.build_s": {"strings.build_stitched"},
    "strings.analytic_s": {"strings.string_analytic_spectrum"},
    "strings.zeta_s": {"strings.zeta_partial"},
}
DEFAULT_BUCKET = {"cli": "cli.self_s", "fiber": "fiber.classify_s", "bench": "trace.unattributed_s"}
_BUCKET_OF = {name: bucket for bucket, names in BUCKETS.items() for name in names}

# Per-layer metrics and their units.  Times are self seconds per operation;
# a layer that a workload never calls reads exactly 0 there.
TIME_METRICS = sorted(
    set(BUCKETS)
    | set(DEFAULT_BUCKET.values())
    | {f"{m}.other_s" for m in ("eigensolve", "metric_graph", "laakso", "gasket", "strings")}
)
COUNT_METRICS = [
    "eigensolve.solves",
    "eigensolve.dense_calls",
    "eigensolve.lanczos_calls",
    "eigensolve.max_n",
    "eigensolve.pairs_computed",
    "eigensolve.pairs_kept",
    "fiber.cluster_rotations",
    *BUILDERS,
]
LAYER_UNITS = {
    **{name: "s/op" for name in TIME_METRICS},
    **{name: "count/op" for name in COUNT_METRICS},
    "eigensolve.max_n": "count",
    "eigensolve.pairs_kept_ratio": "ratio",
    "eigensolve.dense_flops": "flop/op",
    "process.cpu_s": "s/op",
    "process.cpu_util": "ratio",
    "trace.run_s": "s/op",
    "trace.untraced_run_s": "s/op",
    "trace.overhead_s": "s/op",
    "trace.self_sum_ratio": "ratio",
}


def _size(name: str, args, result):
    """(problem size n, eigenpairs returned) for a solver span, else None."""
    if name in (EIGH, EIGSH):
        values = result[0] if isinstance(result, tuple) else result
        return [int(args[0].shape[0]), int(len(values))]
    if name in SOLVERS:
        return [int(args[0].n), int(len(result.values))]
    return None


class Tracer:
    """Wraps the package's functions; ``install``/``uninstall`` swap them in and out."""

    def __init__(self, package):
        import scipy.linalg
        import scipy.sparse.linalg

        self.spans: list[list] = []  # [name, start, end, parent, op, size]
        self._stack: list[int] = []
        self._op = None
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        targets = {}  # id(original) -> wrapper
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    targets[id(fn)] = self._wrap(fn, f"{short}.{attr}")
        for fn, name in ((scipy.linalg.eigh, EIGH), (scipy.sparse.linalg.eigsh, EIGSH)):
            targets[id(fn)] = self._wrap(fn, name)
        self._patches = [
            (ns, attr, value, targets[id(value)])
            for ns in (package, *modules, scipy.linalg, scipy.sparse.linalg)
            for attr, value in vars(ns).items()
            if id(value) in targets and targets[id(value)].__wrapped__ is value
        ]

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self._op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[5] = _size(name, args, result)
            return result

        return traced

    def install(self):
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, original, _ in self._patches:
            setattr(ns, attr, original)

    def begin(self, op: int):
        """Open the root span of operation ``op``."""
        self._op = op
        self._stack.append(len(self.spans))
        self.spans.append([ROOT, time.perf_counter(), 0.0, -1, op, None])

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()
        self._op = None

    def op_metrics(self) -> dict[int, dict]:
        """Per-layer metrics of every traced operation, keyed by operation id."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        per_op: dict[int, list[int]] = {}
        for i, s in enumerate(spans):
            per_op.setdefault(s[4], []).append(i)
        return {op: self._metrics(idxs, child) for op, idxs in per_op.items()}

    def _metrics(self, idxs: list[int], child: list[float]) -> dict:
        spans = self.spans
        out = {name: 0.0 for name in TIME_METRICS}
        out.update({name: 0 for name in COUNT_METRICS})
        root = spans[idxs[0]]
        self_sum = 0.0
        flops = 0.0
        computed = kept = 0

        def outermost(i, names):
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] in names:
                    return False
                p = spans[p][3]
            return True

        for i in idxs:
            name, start, end, _, _, size = spans[i]
            self_s = (end - start) - child[i]
            self_sum += self_s
            module = name.split(".", 1)[0]
            bucket = _BUCKET_OF.get(name) or DEFAULT_BUCKET.get(module, f"{module}.other_s")
            out[bucket] += self_s
            n, pairs = size or (0, 0)  # no size when the call raised
            out["eigensolve.max_n"] = max(out["eigensolve.max_n"], n)
            if name in SOLVERS and outermost(i, SOLVERS):
                out["eigensolve.solves"] += 1
                kept += pairs
            if name in COMPUTES and outermost(i, COMPUTES):
                computed += pairs
            if name == EIGH:
                out["eigensolve.dense_calls"] += 1
                flops += 4.0 / 3.0 * n**3
            if name in KRYLOV and outermost(i, KRYLOV):
                out["eigensolve.lanczos_calls"] += 1
            if name == "fiber.split_projector_eigenspaces":
                out["fiber.cluster_rotations"] += 1
            for metric, names in BUILDERS.items():
                if name in names and outermost(i, names):
                    out[metric] += 1
        out["eigensolve.pairs_computed"] = computed
        out["eigensolve.pairs_kept"] = kept
        out["eigensolve.pairs_kept_ratio"] = kept / computed if computed else 0.0
        out["eigensolve.dense_flops"] = flops
        out["trace.self_sum_ratio"] = self_sum / (root[2] - root[1])
        return out


def summarize(per_op: list[dict]) -> dict:
    """Median over operations; counts must repeat exactly, so they are taken as is."""
    out = {}
    for name in per_op[0]:
        values = [m[name] for m in per_op]
        out[name] = values[0] if name in COUNT_METRICS else statistics.median(values)
    return out


def counts_repeat(per_op: list[dict]) -> bool:
    return all(m[name] == per_op[0][name] for m in per_op for name in COUNT_METRICS)
