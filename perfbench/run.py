"""qfrelay benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload fig4_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root; the package is imported from ./src, nothing is
installed.  A run sets the workload up, makes one warm-up pass, then repeats
passes of it (closed loop, one client) until --seconds would be exceeded by one
more pass; it always makes at least one after the warm-up.  It prints every
metric by name with its unit and the environment, then, as its last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones, measured without tracing, with each
operation's time scaled by a reference probe timed beside it (probe.py); with
--trace 1 they are the per-layer ones, derived from spans recorded around
qfrelay's public functions.
"all" runs every workload untraced and traced in child processes, prints the
tracing overhead, and can save the whole report with --out.

Passes and set-ups write only under ./.perfbench (temporary outputs, span
files, per-run reports, and surface digests kept per seed and source
version).  Sweeps run serially; BLAS thread counts default to 1.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("fig4_sweep", "fixture_timeshare", "oracle_tables")
# Set-ups timed per run, half before the passes and half after, so that
# setup_s, their median, samples the host at both ends of the run.
SETUPS = 8
CHILD_TIMEOUT_S = 175

# Every end-to-end metric and its unit.  Timings are medians: setup_s over
# set-ups, the others over the passes after the warm-up.  setup_s and run_s
# are scaled by the probe (probe.py); run_wall_s and the rates are as measured.
UNITS = {
    "setup_s": "s",                  # process start to the first timed call, scaled
    "run_s": "s",                    # time in the operations of one pass, scaled
    "run_wall_s": "s",               # time in the operations of one pass
    "points_per_s": "1/s",           # grid points solved per second of solver time
    "queries_per_s": "1/s",          # sumrate requests per second of Phase B
    "cells_per_s": "1/s",            # oracle candidates per second of table build
    "peak_rss_mb": "MB",             # peak resident memory of the run
    "lagrangian_mean_bits": "bits",  # mean winning J - l1*C1 - l2*C2 over solved points
    "sum_rate_mean_bits": "bits",    # mean sum_rate_bits over the sumrate requests
    "oracle_gap_max_bits": "bits",   # largest |solver - best_penalized| in the spot check
    "failed_frac": "ratio",          # failed operations over attempted operations
}
# The --trace 0 result: the metrics every workload reports.  The rates apply
# to one workload each, and like run_wall_s they move with the host's load;
# run_s carries their changes.
GATED = ("setup_s", "run_s", "peak_rss_mb", "lagrangian_mean_bits")


# The CPUs this process may use when it starts, before pin_to_one_cpu().
CPUS = sorted(os.sched_getaffinity(0))


def pin_to_one_cpu() -> None:
    """Keep this process, and the set-up processes it starts, on one CPU, so
    that each probe runs on the CPU whose load it is to measure."""
    try:
        os.sched_setaffinity(0, {CPUS[0]})
    except OSError:
        pass


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def bootstrap():
    """Import qfrelay from ./src, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "qfrelay", "__init__.py")):
        fail(f"no qfrelay sources under {SRC}; run from a checkout of the repository")
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import qfrelay
    if os.path.dirname(os.path.dirname(os.path.abspath(qfrelay.__file__))) != SRC:
        fail(f"imported qfrelay from {qfrelay.__file__}, expected {SRC}")
    import workloads
    return workloads


def environment(seed: int) -> dict:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        describe = out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        describe = "unknown"
    return {
        "git_describe": describe,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(CPUS),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "seed": seed,
    }


def time_setups(args, count: int) -> list:
    """Time `count` fresh processes from start to the end of set-up, each
    scaled by the reference probe run just before it and just after it."""
    from probe import normalised, probe
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload",
           args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(count):
        before = probe(9)
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as p:
            line = p.stdout.readline()
            t1 = time.perf_counter()
            p.stdout.read()
            if p.wait(timeout=60) != 0 or line.strip() != "ready":
                fail("set-up run failed")
        times.append(normalised([t1 - t0], [before, probe(9)]))
    return times


def end_to_end(wl, setups: list) -> tuple[dict, dict]:
    """(values, notes) of every END_TO_END metric; None where it does not apply."""
    passes = wl.passes
    med = statistics.median

    def rate(num, den):
        vals = [p[num] / p[den] for p in passes if num in p and p[den] > 0]
        return med(vals) if vals else None

    def pick(key, agg):
        vals = [p[key] for p in passes if key in p]
        return agg(vals) if vals else None

    v = {
        "setup_s": med(setups) if setups else None,
        "run_s": pick("norm_s", med),
        "run_wall_s": pick("op_s", med),
        "points_per_s": rate("points", "solve_s"),
        "queries_per_s": rate("requests", "phase_b_s"),
        "cells_per_s": rate("cells", "build_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "lagrangian_mean_bits": pick("lagrangian_mean", med),
        "sum_rate_mean_bits": pick("sum_rate_mean", med),
        "oracle_gap_max_bits": pick("gap_max", max),
        "failed_frac": wl.failed / wl.attempted if wl.attempted else 1.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "run_s": f"median of {len(passes)} passes",
        "run_wall_s": f"median of {len(passes)} passes",
        "failed_frac": f"{wl.failed} of {wl.attempted}",
    }
    return v, notes


def print_metrics(values: dict, notes: dict, units: dict) -> None:
    for name, unit in units.items():
        val = values.get(name)
        shown = "n/a" if val is None else f"{val:.6g}"
        print(f"  {name:<38} {shown:>14} {unit:<6} {notes.get(name, '')}".rstrip())


def run_one(args) -> int:
    pin_to_one_cpu()
    workloads = bootstrap()
    from probe import probe
    from tracing import (EXACT_COUNTS, PER_LAYER, SpanSummary, Tracer, layer_metrics,
                         pass_counts, span_cost_s)

    src_digest = workloads.source_digest(SRC, BLAS_VARS)
    os.makedirs(WORKDIR, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        cls(args.seed, WORKDIR, src_digest).close()
        print("ready", flush=True)
        return 0

    setups = [] if args.trace else time_setups(args, SETUPS // 2)
    wl = cls(args.seed, WORKDIR, src_digest, probe=None if args.trace else probe)
    tracer = Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
        # The warm-up pass fills caches and finishes lazy imports; its checks
        # count, its timings and spans do not.
        ok = bool(wl.run_pass())
        wl.passes.clear()
        if tracer:
            tracer.reset()
        start = time.perf_counter()
        while ok:
            t0 = time.perf_counter()
            out = tracer.run_pass(wl.run_pass) if tracer else wl.run_pass()
            now = time.perf_counter()
            if not out or (now - start) + (now - t0) > args.seconds:
                break
    finally:
        wl.close()
    if not args.trace:
        setups += time_setups(args, SETUPS - len(setups))

    env = environment(args.seed)
    e2e, notes = end_to_end(wl, setups)
    report = {"workload": wl.name, "why": wl.why, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "end_to_end": e2e, "notes": notes}
    print(f"== {wl.name}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}")
    print("  environment " + json.dumps(env, sort_keys=True))
    if args.trace:
        summary = SpanSummary(tracer)
        first = pass_counts(summary, 0)
        for k in range(1, len(summary.passes)):
            counts = pass_counts(summary, k)
            for name in EXACT_COUNTS:
                wl.check(counts[name] == first[name],
                         f"{name} was {counts[name]} in pass {k}, {first[name]} in pass 0")
        layers, lnotes = layer_metrics(summary)
        layers["trace.pass_s"] = e2e["run_wall_s"] or 0.0
        lnotes["trace.pass_s"] = notes["run_wall_s"]
        # Span bookkeeping per pass, against the pass time without it.
        cost = span_cost_s()
        spent = layers["trace.spans"] * cost
        layers["trace.span_cost_us"] = cost * 1e6
        layers["trace.overhead_share"] = spent / (layers["trace.pass_s"] - spent)
        lnotes["trace.overhead_share"] = "spans x span cost, over the rest of the pass"
        report["per_layer"], report["per_layer_notes"] = layers, lnotes
        report["exact_counts"] = first
        print_metrics(layers, lnotes, {n: u for n, u, _ in PER_LAYER})
        tracer.write(os.path.join(WORKDIR, f"spans-{wl.name}.tsv.gz"))
        metrics = {n: {"value": layers[n], "unit": u} for n, u, _ in PER_LAYER}
    else:
        print_metrics(e2e, notes, UNITS)
        metrics = {n: {"value": e2e[n], "unit": UNITS[n]} for n in GATED}
    for msg in wl.failures:
        print(f"  FAILED: {msg}")
    report.update(pass_s=[p["op_s"] for p in wl.passes],
                  attempted=wl.attempted, failed=wl.failed, failures=wl.failures,
                  surface_digest=wl.passes[0].get("digest") if wl.passes else None)
    with open(os.path.join(WORKDIR, f"report-{wl.name}-trace{args.trace}.json"), "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps({"correct": wl.failed == 0 and wl.attempted > 0,
                      "attempted": wl.attempted, "failed": wl.failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    reports = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S + 60)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                fail(f"{name} (trace {trace}) exited {done.returncode}")
            with open(os.path.join(WORKDIR, f"report-{name}-trace{trace}.json")) as f:
                reports[(name, trace)] = json.load(f)
    summary = {"environment": reports[(WORKLOAD_NAMES[0], 0)]["environment"],
               "seconds": args.seconds, "workloads": {}}
    print("== tracing overhead: traced pass time over untraced run_wall_s (measured in "
          "two runs, so host noise included); span bookkeeping alone (estimated)")
    for name in WORKLOAD_NAMES:
        plain, traced = reports[(name, 0)], reports[(name, 1)]
        base = plain["end_to_end"]["run_wall_s"]
        overhead = traced["per_layer"]["trace.pass_s"] / base - 1.0
        estimate = traced["per_layer"]["trace.overhead_share"]
        print(f"  {name:<20} {100 * overhead:+.1f}% of {base:.4g} s; "
              f"estimated {100 * estimate:+.1f}%")
        summary["workloads"][name] = {
            "why": plain["why"],
            "end_to_end": plain["end_to_end"], "end_to_end_notes": plain["notes"],
            "per_layer": traced["per_layer"], "per_layer_notes": traced["per_layer_notes"],
            "exact_counts": traced["exact_counts"],
            "tracing_overhead": overhead,
            "tracing_overhead_estimate": estimate,
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
        }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")
    failed = sum(w["failed"] for w in summary["workloads"].values())
    print(json.dumps({"correct": failed == 0, "failed": failed}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="with --workload all: write the combined report here")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
