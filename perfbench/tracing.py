"""Span tracing of qfrelay's public functions, applied from outside the package.

Each traced function is replaced, in every qfrelay namespace that binds it, by
a wrapper that records one span: name, start, end and the span that was open
when it was called (its parent).  Spans live in flat arrays in memory and are
written out once, at exit.  A span's self time is its duration minus the time
its children cover; the program is single threaded, so children never overlap
and that is their summed duration.
"""

from __future__ import annotations

import functools
import gzip
import math
import statistics
import sys
import time
from array import array

# Layer -> functions traced in it.  "Class.method" names are patched on the
# class; plain names are rebound in every qfrelay module that imports them, so
# each caller resolves the wrapper.
TRACED = {
    "channel": ("build_bpsk_mac",),
    "infotheory": ("rate_report", "lagrangian"),
    "optimizer": ("optimize_restarts", "optimize", "induced_posteriors",
                  "delta_matrix", "update_q"),
    "sweep": ("sweep_grid", "query_lower_envelope", "surface_to_csv",
              "surface_from_csv"),
    "sumrate": ("optimize_alpha", "sum_rate_at", "unimodality_report"),
    "oracle": ("RateTable.__init__", "RateTable.best_constrained",
               "RateTable.best_penalized", "check_boundary_optimality"),
    "cli": ("run_repro", "main"),
}

PASS_SPAN = "bench.pass"

# Percentiles tried for a "_tail" statistic, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def qfrelay_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qfrelay" or name.startswith("qfrelay."))]


def rebind(original, replacement) -> int:
    """Point every qfrelay module attribute bound to `original` at `replacement`."""
    count = 0
    for mod in qfrelay_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                count += 1
    return count


def wrap_public(layer: str, name: str, make_wrapper) -> None:
    """Replace qfrelay.<layer>.<name> wherever it is resolved.

    make_wrapper(fn) returns the replacement for the currently bound fn.
    """
    mod = sys.modules[f"qfrelay.{layer}"]
    if "." in name:
        cls_name, meth = name.split(".")
        cls = getattr(mod, cls_name)
        setattr(cls, meth, make_wrapper(getattr(cls, meth)))
        return
    fn = getattr(mod, name)
    if rebind(fn, make_wrapper(fn)) == 0:
        raise RuntimeError(f"qfrelay.{layer}.{name} is not bound anywhere")


def percentile(sorted_vals, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, math.ceil(p / 100.0 * len(sorted_vals)) - 1)
    return sorted_vals[k]


def tail(values):
    """(value, percentile) at the highest ladder percentile that leaves at
    least ten samples beyond it; the maximum (p100) below twenty samples."""
    vals = sorted(values)
    n = len(vals)
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= 10:
            return percentile(vals, p), p
    return (vals[-1] if vals else 0.0), 100.0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


class Tracer:
    """Records spans for every function in TRACED once installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        # span index -> value taken from the call (iterations, table size)
        self.values: dict[int, object] = {}
        self._stack: list[int] = []

    def reset(self) -> None:
        """Drop every span recorded so far."""
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self.values.clear()

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, fn, name: str, extract=None):
        nid = self._intern(name)
        stack, values = self._stack, self.values
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if extract is not None:
                values[idx] = extract(args, out)
            return out

        return traced

    def install(self) -> None:
        extractors = {
            "optimizer.optimize": lambda a, r: (r.iterations, r.converged),
            "optimizer.optimize_restarts": lambda a, r: r.iterations,
            "oracle.RateTable.__init__": lambda a, r: a[0].num_candidates,
        }
        for layer, names in TRACED.items():
            for name in names:
                full = f"{layer}.{name}"
                wrap_public(layer, name,
                            lambda fn, full=full: self.span(fn, full, extractors.get(full)))

    def run_pass(self, fn):
        """Call fn() under a root span that marks one benchmark pass."""
        return self.span(fn, PASS_SPAN)()

    def write(self, path: str) -> None:
        """Spans as gzip TSV: index, name, parent index, start, end (seconds)."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("index\tname\tparent\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.name_id)):
                f.write(f"{i}\t{names[self.name_id[i]]}\t{self.parent[i]}\t"
                        f"{self.start[i]!r}\t{self.end[i]!r}\n")


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: a no-op timed wrapped and bare, best
    of several repeats."""
    def noop():
        return None

    wrapped = Tracer().span(noop, "noop")
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return best


class SpanSummary:
    """Per-pass statistics derived from the recorded spans."""

    def __init__(self, tr: Tracer):
        n = len(tr.name_id)
        names = [tr.names[k] for k in tr.name_id]
        dur = [tr.end[i] - tr.start[i] for i in range(n)]
        child = [0.0] * n
        pass_of = [-1] * n
        passes = []
        for i in range(n):  # a parent is always recorded before its children
            p = tr.parent[i]
            if p >= 0:
                child[p] += dur[i]
                pass_of[i] = pass_of[p]
            if names[i] == PASS_SPAN:
                pass_of[i] = len(passes)
                passes.append(i)
        self.names, self.dur, self.parent = names, dur, tr.parent
        self.self_time = [dur[i] - child[i] for i in range(n)]
        self.pass_of, self.passes = pass_of, passes
        self.values = tr.values
        self.num_spans = n
        self.by_name: dict[str, list[int]] = {}
        for i, name in enumerate(names):
            self.by_name.setdefault(name, []).append(i)

    @property
    def num_passes(self) -> int:
        return max(1, len(self.passes))

    def spans(self, name: str, parent: str | None = None, in_pass: int | None = None):
        idx = self.by_name.get(name, [])
        if parent is not None:
            idx = [i for i in idx
                   if self.parent[i] >= 0 and self.names[self.parent[i]] == parent]
        if in_pass is not None:
            idx = [i for i in idx if self.pass_of[i] == in_pass]
        return idx

    def calls(self, name: str, parent: str | None = None) -> float:
        return len(self.spans(name, parent)) / self.num_passes

    def self_s(self, name: str) -> float:
        return sum(self.self_time[i] for i in self.spans(name)) / self.num_passes

    def durations(self, name: str, parent: str | None = None) -> list:
        return [self.dur[i] for i in self.spans(name, parent)]

    def p50(self, name: str, scale: float, parent: str | None = None) -> float:
        return median(self.durations(name, parent)) * scale

    def tail(self, name: str, scale: float, parent: str | None = None):
        value, pct = tail(self.durations(name, parent))
        return value * scale, pct


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("channel.build_bpsk_mac.ms", "ms", "lower"),
    ("infotheory.rate_report.calls", "count", "lower"),
    ("infotheory.rate_report.us_p50", "us", "lower"),
    ("infotheory.lagrangian.calls", "count", "lower"),
    ("infotheory.lagrangian.self_s", "s", "lower"),
    ("optimizer.solves", "count", "lower"),
    ("optimizer.iterations", "count", "lower"),
    ("optimizer.iterations_max", "count", "lower"),
    ("optimizer.iteration_us", "us", "lower"),
    ("optimizer.solve_ms_p50", "ms", "lower"),
    ("optimizer.solve_ms_tail", "ms", "lower"),
    ("optimizer.optimize.self_s", "s", "lower"),
    ("optimizer.induced_posteriors.self_s", "s", "lower"),
    ("optimizer.delta_matrix.self_s", "s", "lower"),
    ("optimizer.update_q.self_s", "s", "lower"),
    ("optimizer.nonconverged", "count", "lower"),
    ("optimizer.winning_iter_share", "ratio", "higher"),
    ("sweep.points", "count", "higher"),
    ("sweep.point_s_p50", "s", "lower"),
    ("sweep.point_s_tail", "s", "lower"),
    ("sweep.sweep_grid.self_s", "s", "lower"),
    ("sweep.query_lower_envelope.calls", "count", "lower"),
    ("sweep.query_lower_envelope.us_p50", "us", "lower"),
    ("sweep.surface_to_csv.ms", "ms", "lower"),
    ("sweep.surface_from_csv.ms", "ms", "lower"),
    ("sumrate.optimize_alpha.calls", "count", "lower"),
    ("sumrate.optimize_alpha.ms_p50", "ms", "lower"),
    ("sumrate.optimize_alpha.ms_tail", "ms", "lower"),
    ("sumrate.optimize_alpha.self_s", "s", "lower"),
    ("sumrate.evaluations_per_call", "count", "lower"),
    ("sumrate.unimodality_report.ms_p50", "ms", "lower"),
    ("oracle.cells", "count", "higher"),
    ("oracle.rate_table.build_s", "s", "lower"),
    ("oracle.cells_per_s", "1/s", "higher"),
    ("oracle.best_constrained.us_p50", "us", "lower"),
    ("oracle.best_penalized.us_p50", "us", "lower"),
    ("cli.run_repro.self_s", "s", "lower"),
    ("cli.main.ms_p50", "ms", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.span_cost_us", "us", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)

# Counts that must repeat exactly between passes (and runs) of one seed.
EXACT_COUNTS = ("optimizer.solves", "optimizer.iterations", "sweep.points",
                "sumrate.evaluations_per_call", "oracle.cells")


def pass_counts(s: SpanSummary, k: int) -> dict:
    """The EXACT_COUNTS of pass k alone."""
    solves = s.spans("optimizer.optimize", in_pass=k)
    alphas = s.spans("sumrate.optimize_alpha", in_pass=k)
    evals = s.spans("sumrate.sum_rate_at", parent="sumrate.optimize_alpha", in_pass=k)
    return {
        "optimizer.solves": len(solves),
        "optimizer.iterations": sum(s.values[i][0] for i in solves),
        "sweep.points": len(s.spans("optimizer.optimize_restarts",
                                    parent="sweep.sweep_grid", in_pass=k)),
        "sumrate.evaluations_per_call": len(evals) / len(alphas) if alphas else 0,
        "oracle.cells": sum(s.values[i] for i in
                            s.spans("oracle.RateTable.__init__", in_pass=k)),
    }


def layer_metrics(s: SpanSummary) -> tuple[dict, dict]:
    """(values, notes): the PER_LAYER metrics taken from spans, per pass where
    they are totals, and the percentile and sample count behind each "_tail".
    The caller adds the trace.* timings, which need the run's pass times."""
    npass = s.num_passes
    solves = s.spans("optimizer.optimize")
    iters = [s.values[i][0] for i in solves]
    total_iters = sum(iters)
    winning = sum(s.values[i] for i in s.spans("optimizer.optimize_restarts"))
    solve_tail, solve_pct = s.tail("optimizer.optimize", 1e3)
    point = "optimizer.optimize_restarts"
    point_tail, point_pct = s.tail(point, 1.0, parent="sweep.sweep_grid")
    alpha_tail, alpha_pct = s.tail("sumrate.optimize_alpha", 1e3)
    alphas = len(s.spans("sumrate.optimize_alpha"))
    evals = len(s.spans("sumrate.sum_rate_at", parent="sumrate.optimize_alpha"))
    cells = sum(s.values[i] for i in s.spans("oracle.RateTable.__init__"))
    build_s = sum(s.durations("oracle.RateTable.__init__"))
    v = {
        "channel.build_bpsk_mac.ms": s.p50("channel.build_bpsk_mac", 1e3),
        "infotheory.rate_report.calls": s.calls("infotheory.rate_report"),
        "infotheory.rate_report.us_p50": s.p50("infotheory.rate_report", 1e6),
        "infotheory.lagrangian.calls": s.calls("infotheory.lagrangian"),
        "infotheory.lagrangian.self_s": s.self_s("infotheory.lagrangian"),
        "optimizer.solves": len(solves) / npass,
        "optimizer.iterations": total_iters / npass,
        "optimizer.iterations_max": max(iters, default=0),
        "optimizer.iteration_us": (sum(s.durations("optimizer.optimize")) / total_iters * 1e6
                                   if total_iters else 0.0),
        "optimizer.solve_ms_p50": s.p50("optimizer.optimize", 1e3),
        "optimizer.solve_ms_tail": solve_tail,
        "optimizer.optimize.self_s": s.self_s("optimizer.optimize"),
        "optimizer.induced_posteriors.self_s": s.self_s("optimizer.induced_posteriors"),
        "optimizer.delta_matrix.self_s": s.self_s("optimizer.delta_matrix"),
        "optimizer.update_q.self_s": s.self_s("optimizer.update_q"),
        "optimizer.nonconverged": sum(1 for i in solves if not s.values[i][1]) / npass,
        "optimizer.winning_iter_share": winning / total_iters if total_iters else 0.0,
        "sweep.points": s.calls(point, parent="sweep.sweep_grid"),
        "sweep.point_s_p50": s.p50(point, 1.0, parent="sweep.sweep_grid"),
        "sweep.point_s_tail": point_tail,
        "sweep.sweep_grid.self_s": s.self_s("sweep.sweep_grid"),
        "sweep.query_lower_envelope.calls": s.calls("sweep.query_lower_envelope"),
        "sweep.query_lower_envelope.us_p50": s.p50("sweep.query_lower_envelope", 1e6),
        "sweep.surface_to_csv.ms": s.p50("sweep.surface_to_csv", 1e3),
        "sweep.surface_from_csv.ms": s.p50("sweep.surface_from_csv", 1e3),
        "sumrate.optimize_alpha.calls": alphas / npass,
        "sumrate.optimize_alpha.ms_p50": s.p50("sumrate.optimize_alpha", 1e3),
        "sumrate.optimize_alpha.ms_tail": alpha_tail,
        "sumrate.optimize_alpha.self_s": s.self_s("sumrate.optimize_alpha"),
        "sumrate.evaluations_per_call": evals / alphas if alphas else 0.0,
        "sumrate.unimodality_report.ms_p50": s.p50("sumrate.unimodality_report", 1e3),
        "oracle.cells": cells / npass,
        "oracle.rate_table.build_s": build_s / npass,
        "oracle.cells_per_s": cells / build_s if build_s else 0.0,
        "oracle.best_constrained.us_p50": s.p50("oracle.RateTable.best_constrained", 1e6),
        "oracle.best_penalized.us_p50": s.p50("oracle.RateTable.best_penalized", 1e6),
        "cli.run_repro.self_s": s.self_s("cli.run_repro"),
        "cli.main.ms_p50": s.p50("cli.main", 1e3),
        "cli.main.self_s": s.self_s("cli.main"),
        "trace.spans": s.num_spans / npass,
    }
    notes = {
        "optimizer.solve_ms_tail": f"p{solve_pct:g} of {len(solves)}",
        "sweep.point_s_tail": f"p{point_pct:g} of {len(s.spans(point, 'sweep.sweep_grid'))}",
        "sumrate.optimize_alpha.ms_tail": f"p{alpha_pct:g} of {alphas}",
    }
    return v, notes
