"""Spans around the public functions of the specblock layers, from outside.

The package imports functions by name (``from .linalg import hermitian_eig``),
so a wrapper only takes effect once it is bound again in every specblock
module that holds the original.  ``Tracer.install`` does that and
``Tracer.uninstall`` puts the originals back; the untraced runs never see a
wrapper.  Spans stay in memory and are folded into per-job totals.
"""

from __future__ import annotations

import sys
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("linalg", "blocks", "enclosures", "subspaces", "basis", "mhd",
          "problems", "report", "cli", "selftest")

# The job itself enters through these; the benchmark's root span covers them.
ENTRY_POINTS = {"cli.main", "cli.entrypoint"}

SUITES = ("fixture", "numeric_core", "schur", "resolvent", "relative_bound",
          "dist_bound", "window", "variational", "dim_check", "soq",
          "subspace", "basis", "mhd")

# Size of the work a call did, read from its result.
SIZES = {
    "linalg.hermitian_eig": lambda result: int(result.eigenvalues.size),
    "problems.load_problem": lambda result: len(result.raw),
    "report.emit_json": lambda result: len(result.encode("utf-8")),
}

# Functions whose calls and self time are metrics of their own, besides
# linalg.hermitian_eig, which is also split by size.
COUNTED = {
    "linalg": ("require_hermitian", "operator_norm", "pseudo_inverse",
               "general_eig"),
    "blocks": ("schur_complement", "best_relative_bound", "minimal_b_for_a",
               "landmarks", "resolvent_block"),
    "enclosures": ("dist_bound", "inclusion_reference", "exclusion_reference",
                   "soq_enclosure", "subspace_dim_check"),
    "subspaces": ("spectral_subspace", "graph_test", "angular_operator"),
    "basis": ("riesz_check", "projection_decay", "bari_sum"),
    "mhd": ("discretize", "run_report"),
    "problems": ("load_problem",),
    "report": ("emit_json",),
}

SMALL_DIM = 16
MID_DIM = 128


def layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    eig = "linalg.hermitian_eig"
    out += [(f"{eig}.calls", "count", "lower"), (f"{eig}.self_s", "s", "lower"),
            (f"{eig}.dim3", "count", "lower")]
    out += [(f"{eig}.calls.{size}", "count", "lower")
            for size in ("small", "mid", "large")]
    for layer, functions in COUNTED.items():
        for function in functions:
            out += [(f"{layer}.{function}.calls", "count", "lower"),
                    (f"{layer}.{function}.self_s", "s", "lower")]
    out += [("problems.load_problem.bytes", "bytes", "lower"),
            ("report.emit_json.bytes", "bytes", "lower"),
            ("report.checks", "count", "higher")]
    out += [(f"cli.cmd_{cmd}.self_s", "s", "lower")
            for cmd in ("enclose", "angular", "basis", "soq", "mhd")]
    out += [(f"selftest.{suite}_suite.self_s", "s", "lower")
            for suite in SUITES]
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [("trace.coverage", "frac", "higher"),
            ("trace.overhead", "frac", "lower"),
            ("trace.spans", "count", "lower")]
    return out


class Tracer:
    """Records one span per call of a wrapped function: name, start, end,
    parent and, for some functions, the size of the work."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        size_of = SIZES.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if size_of is not None:
                span[4] = size_of(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Bind a wrapper in place of every public layer function, in every
        specblock module that holds it."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"specblock.{layer}"]
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (isinstance(value, types.FunctionType)
                        and value.__module__ == module.__name__
                        and not attr.startswith("_")
                        and name not in ENTRY_POINTS):
                    wrappers[id(value)] = (value, self._wrap(name, value))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "specblock" and not mod_name.startswith("specblock."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def open_root(self) -> None:
        """Start the span of one job; every wrapped call nests under it."""
        self.spans.clear()
        self._stack.append(0)
        self.spans.append(["job", perf_counter(), 0.0, -1, 0])

    def close_root(self) -> dict:
        """End the job's span and fold its spans into per-job totals."""
        self.spans[0][2] = perf_counter()
        self._stack.pop()
        totals = fold(self.spans)
        self.spans.clear()
        return totals


def fold(spans: list[list]) -> dict:
    """Per-job totals from one job's spans (span 0 is the job's root).

    Self time is a span's duration minus the time its child spans cover;
    calls of one thread nest, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, parent, size) in enumerate(spans):
        if index == 0:
            continue
        self_s = (end - start) - child_time[index]
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_s"] += self_s
        totals[f"{name.split('.', 1)[0]}.self_s"] += self_s
        if name == "linalg.hermitian_eig":
            totals[f"{name}.dim3"] += size ** 3
            bucket = ("small" if size <= SMALL_DIM
                      else "mid" if size <= MID_DIM else "large")
            totals[f"{name}.calls.{bucket}"] += 1
        elif size:
            totals[f"{name}.bytes"] += size
    root = spans[0][2] - spans[0][1]
    totals["trace.coverage"] = child_time[0] / root if root > 0 else 0.0
    totals["trace.spans"] = len(spans) - 1
    totals["job_s"] = root
    return dict(totals)
