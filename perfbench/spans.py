"""Spans around the calls into each layer, wrapped from outside the program.

The traced run replaces module attributes of ``laplace_series`` (for example
``solver.design_matrix``, the name ``_boundary_rows`` looks up when it runs)
with wrappers that record a span per call.  No source file changes, and the
untraced run patches nothing.  A name that a later version of the program no
longer has is skipped, so its metrics read 0.

Spans record name, start, end, parent span and operation id.  They are kept in
memory in compact arrays and written out when the run ends.  A span's self time
is its duration minus the durations of its children; calls are sequential, so
the children never overlap.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    """In-memory span store; records only while an operation is running."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.active = False
        self.counts: dict[str, float] = defaultdict(float)

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds) over all spans."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, name in enumerate(self.names):
            dur = self.end[i] - self.start[i]
            agg = out[name]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path) -> None:
        """One CSV row per span: id, name, start, end, parent, op (seconds)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start_s,end_s,parent,op\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.start[i]:.9f},{self.end[i]:.9f},"
                         f"{self.parent[i]},{self.op[i]}\n")


# ------------------------------------------------------------ counters
# Each takes (counts, span name, args, kwargs, result) and adds to counts.


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_points(pos, name):
    def count(counts, span, args, kwargs, result):
        counts[span + ".points"] += np.size(_arg(args, kwargs, pos, name))
    return count


def _count_entries(counts, span, args, kwargs, result):
    counts[span + ".entries"] += np.size(result)


def _count_system(counts, span, args, kwargs, result):
    rows, cols = result[0].shape
    counts[span + ".rows"] += rows
    counts[span + ".cols"] += cols


def _count_flops(counts, span, args, kwargs, result):
    m, n = np.shape(_arg(args, kwargs, 0, "A"))
    counts[span + ".flops"] += 2.0 * m * n * n - 2.0 * n ** 3 / 3.0


def _count_residual_points(counts, span, args, kwargs, result):
    nfine = _arg(args, kwargs, 1, "nfine")
    ncomp = len(_arg(args, kwargs, 0, "solution").problem.components)
    counts[span + ".points"] += ncomp * int(nfine) if np.isscalar(nfine) else sum(nfine)


def _count_fan(counts, span, args, kwargs, result):
    counts[span + ".lines"] += len(result)
    counts[span + ".steps"] += sum(len(line.points) - 1 for line in result)
    counts[span + ".hits"] += sum(line.termination == "hit_boundary" for line in result)


def _count_contours(counts, span, args, kwargs, result):
    counts[span + ".grid_points"] += int(_arg(args, kwargs, 3, "grid_n")) ** 2
    counts[span + ".polylines"] += len(result)


def _count_bytes(counts, span, args, kwargs, result):
    counts["cli.output_bytes"] += len(result.encode("utf-8"))


def _cantor_span(args, kwargs):
    return "cantor.symmetric" if kwargs.get("use_symmetry", False) else "cantor.general"


# (span name or function of the call's arguments, counter or None,
#  the "module:attribute" places callers look the function up).  The empty
#  module is the package itself, which the benchmark calls through.
PATCHES = [
    ("geometry.joukowski_inverse", _count_points(2, "z"),
     ["basis:joukowski_inverse", "field:joukowski_inverse", "cantor:joukowski_inverse"]),
    ("geometry.boundary_nodes", None, ["solver:boundary_nodes"]),
    ("basis.design_matrix", _count_entries, ["solver:design_matrix"]),
    ("basis.eval", _count_points(1, "z"),
     [":eval_expansion", ":eval_gradient", "field:eval_expansion",
      "field:complex_derivative", "cli:eval_expansion", "solver:eval_gradient"]),
    ("solver.assemble_system", _count_system, ["solver:assemble_system"]),
    ("solver.solve_least_squares", _count_flops,
     ["solver:solve_least_squares", "cantor:solve_least_squares"]),
    ("solver.boundary_residual", _count_residual_points, ["solver:boundary_residual"]),
    ("solver.solve_problem", None,
     [":solve_problem", "cantor:solve_problem", "cli:solve_problem"]),
    ("field.streamline_fan", _count_fan, [":streamline_fan", "cli:streamline_fan"]),
    ("field.extract_contours", _count_contours, [":extract_contours", "cli:extract_contours"]),
    (_cantor_span, None, [":cantor_measures", "cli:cantor_measures"]),
    ("cli.parse_problem_config", None, ["cli:parse_problem_config"]),
    ("cli.build_report", None, ["cli:build_report"]),
    ("cli.writers", _count_bytes, ["cli:polylines_csv", "cli:emit_svg"]),
]


def _wrap(tracer: Tracer, fn, span, count):
    def wrapped(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        name = span(args, kwargs) if callable(span) else span
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(idx)
        if count is not None:
            count(tracer.counts, name, args, kwargs, result)
        return result

    return wrapped


def install(tracer: Tracer):
    """Wrap every listed attribute that exists; return a function that undoes it."""
    undo = []
    for span, count, places in PATCHES:
        for place in places:
            modname, attr = place.split(":")
            try:
                module = importlib.import_module("laplace_series" + ("." + modname if modname else ""))
            except ModuleNotFoundError:
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            setattr(module, attr, _wrap(tracer, fn, span, count))
            undo.append((module, attr, fn))

    def uninstall():
        for module, attr, fn in reversed(undo):
            setattr(module, attr, fn)

    return uninstall


# ------------------------------------------------------------ per-layer metrics

# (metric, unit), in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("geometry.joukowski_inverse.calls", "count/op"),
    ("geometry.joukowski_inverse.points", "count/op"),
    ("geometry.joukowski_inverse.self_s", "s/op"),
    ("geometry.boundary_nodes.calls", "count/op"),
    ("geometry.boundary_nodes.self_s", "s/op"),
    ("basis.design_matrix.calls", "count/op"),
    ("basis.design_matrix.entries", "count/op"),
    ("basis.design_matrix.self_s", "s/op"),
    ("basis.eval.calls", "count/op"),
    ("basis.eval.points", "count/op"),
    ("basis.eval.self_s", "s/op"),
    ("solver.assemble_system.self_s", "s/op"),
    ("solver.assemble_system.rows", "count/op"),
    ("solver.assemble_system.cols", "count/op"),
    ("solver.solve_least_squares.self_s", "s/op"),
    ("solver.solve_least_squares.flops", "flop/op"),
    ("solver.solve_least_squares.gflops_per_s", "GFLOP/s"),
    ("solver.boundary_residual.self_s", "s/op"),
    ("solver.boundary_residual.points", "count/op"),
    ("solver.solve_problem.s", "s/op"),
    ("field.streamline_fan.s", "s/op"),
    ("field.streamline_fan.lines", "count/op"),
    ("field.streamline_fan.steps", "count/op"),
    ("field.streamline_fan.steps_per_s", "1/s"),
    ("field.streamline_fan.hit_frac", "frac"),
    ("field.extract_contours.s", "s/op"),
    ("field.extract_contours.grid_points", "count/op"),
    ("field.extract_contours.polylines", "count/op"),
    ("cantor.general.s", "s/op"),
    ("cantor.symmetric.s", "s/op"),
    ("cantor.agreement", "abs"),
    ("cli.parse_problem_config.s", "s/op"),
    ("cli.build_report.s", "s/op"),
    ("cli.writers.s", "s/op"),
    ("cli.output_bytes", "B/op"),
    ("failed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
]


def layer_metrics(tracer: Tracer, nops: int, extra: dict[str, float]) -> dict[str, dict]:
    """Per-operation averages of calls, counters and times, plus ``extra``.

    Counts and times are divided by the number of traced operations, so runs
    of different lengths compare directly.
    """
    totals = tracer.totals()
    values: dict[str, float] = {}
    for name, (calls, incl, self_s) in totals.items():
        values[name + ".calls"] = calls / nops
        values[name + ".s"] = incl / nops
        values[name + ".self_s"] = self_s / nops
    for key, total in tracer.counts.items():
        values[key] = total / nops
    lsq = totals.get("solver.solve_least_squares")
    if lsq and lsq[2] > 0:
        values["solver.solve_least_squares.gflops_per_s"] = (
            tracer.counts["solver.solve_least_squares.flops"] / lsq[2] / 1e9
        )
    fan = totals.get("field.streamline_fan")
    if fan and fan[1] > 0:
        values["field.streamline_fan.steps_per_s"] = tracer.counts["field.streamline_fan.steps"] / fan[1]
    lines = tracer.counts.get("field.streamline_fan.lines", 0)
    if lines:
        values["field.streamline_fan.hit_frac"] = tracer.counts["field.streamline_fan.hits"] / lines
    values.update(extra)
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER
    }
