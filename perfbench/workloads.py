"""The three benchmark workloads.

Each is a closed loop with one client: the benchmark repeats one pass of the
workload, the next pass starting when the previous one returns.  A pass is a
fixed sequence of operations, each a call into qfrelay of at most a few
hundred milliseconds, timed one by one.  A pass always uses the same inputs,
generated from the seed at set-up, so passes of one run do identical work.
Solver seeds are fixed constants, so every seed does the same solver work: the
seed draws the order of the operations and the query inputs.  Every pass checks
its outputs, outside the timed operations; each operation and each check counts
as attempted, and each exception, non-converged solve, nonzero CLI exit or
failed check counts as failed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
import shutil
import time
import traceback

import qfrelay
from qfrelay import channel, cli, optimizer, oracle, sweep
from qfrelay.infotheory import uplink_sum_rate_bound

from probe import normalised
from tracing import wrap_public

clock = time.perf_counter

# Relative slack of the criterion-1 monotonicity check on Lagrangian traces.
TRACE_SLACK = 1e-10
# Slack on i_rd against the uplink sum-rate bound, as in criterion 2.
BOUND_SLACK = 1e-9
# Criterion 3: solver within this many bits of the brute-force maximum.
ORACLE_GAP_LIMIT = 1e-2
# Criterion 3's solver-vs-oracle spot check: its multiplier pairs.
SPOT_PAIRS = ((0.05, 0.05), (0.1, 0.2), (0.2, 0.1), (0.3, 0.3), (0.15, 0.4))
# Seed of every solve the benchmark asks for, so that every run does the same
# solver work whatever its --seed.
SOLVER_SEED = 0


def source_digest(src_dir: str, blas_vars=()) -> str:
    """Digest of the qfrelay sources and BLAS thread settings, so a stored
    surface digest is only compared against runs of the same program in the
    same numeric environment."""
    h = hashlib.sha256(repr([os.environ.get(v) for v in blas_vars]).encode())
    pkg = os.path.join(src_dir, "qfrelay")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


def file_digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def monotone(trace) -> bool:
    return all(b - a + TRACE_SLACK * max(1.0, abs(a)) >= 0
               for a, b in zip(trace, trace[1:]))


class SolveLog:
    """Wraps qfrelay's optimize() to keep (converged, monotone) of each solve.

    It checks the trace as the call returns, so no quantizer or trace is kept
    alive past the call.
    """

    def __init__(self):
        self.solves: list[tuple[bool, bool]] = []
        wrap_public("optimizer", "optimize", self._wrap)

    def _wrap(self, fn):
        solves = self.solves

        @functools.wraps(fn)
        def logged(*args, **kwargs):
            res = fn(*args, **kwargs)
            solves.append((res.converged, monotone(res.lagrangian_trace)))
            return res

        return logged

    def drain(self):
        out = list(self.solves)
        self.solves.clear()
        return out


def cli_exit_code(argv) -> int:
    """qfrelay.cli.main's exit code, including argparse's usage errors, which
    raise SystemExit instead of returning."""
    try:
        return cli.main(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2


def surface_rows(path: str):
    """(lam1, lam2, c1, c2, i_rd) of every row of a surface CSV."""
    with open(path) as f:
        next(f)
        return [tuple(float(x) for x in line.split(",")[:5]) for line in f if line.strip()]


def merged_surface(points, ch, num_levels: int):
    """One Surface holding the points of several sweep_grid calls."""
    return sweep.Surface(points=tuple(points), channel_fingerprint=ch.fingerprint(),
                         num_levels=num_levels)


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, workdir: str, src_digest: str, probe=None):
        self.seed = seed
        self.workdir = workdir
        self.tmp = os.path.join(workdir, f"tmp-{os.getpid()}")
        os.makedirs(self.tmp, exist_ok=True)
        self.src_digest = src_digest
        # Called before the first operation of a pass and after each one;
        # None in traced runs.
        self.probe = probe
        self.solve_log = SolveLog()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.passes: list[dict] = []
        self._digest = None
        self._op_s: list[float] = []
        self._probe_s: list[float] = []

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def op(self, fn, *args, **kwargs):
        """Call one timed operation of the pass."""
        t0 = clock()
        out = fn(*args, **kwargs)
        self._op_s.append(clock() - t0)
        if self.probe is not None:
            self._probe_s.append(self.probe())
        return out

    def op_s(self, since: int = 0) -> float:
        """Time spent in this pass's operations from the `since`-th on."""
        return math.fsum(self._op_s[since:])

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def check_solves(self) -> None:
        for k, (converged, mono) in enumerate(self.solve_log.drain()):
            self.check(converged, f"solve {k} did not converge")
            self.check(mono, f"solve {k}: Lagrangian trace decreased")

    def check_digest(self, csv_path: str) -> str:
        """The surface CSV must be byte-identical across passes of this run and
        across runs of this seed on the same sources."""
        digest = file_digest(csv_path)
        if self._digest is None:
            self._digest = digest
        self.check(digest == self._digest, f"{os.path.basename(csv_path)} digest changed "
                                           f"between passes")
        store = os.path.join(self.workdir, "digests")
        os.makedirs(store, exist_ok=True)
        ref = os.path.join(store, f"{self.name}-{self.seed}-{self.src_digest}.sha256")
        if os.path.exists(ref):
            with open(ref) as f:
                self.check(f.read().strip() == digest,
                           f"{os.path.basename(csv_path)} digest differs from an earlier "
                           f"run of seed {self.seed}")
        else:
            with open(ref, "w") as f:
                f.write(digest + "\n")
        return digest

    def check_surface(self, csv_path: str, bound: float) -> float:
        """Bound check on every point; returns the mean winning Lagrangian."""
        rows = surface_rows(csv_path)
        for lam1, lam2, c1, c2, i_rd in rows:
            self.check(i_rd <= bound + BOUND_SLACK,
                       f"i_rd {i_rd!r} above the uplink bound {bound!r} at ({lam1}, {lam2})")
        return math.fsum(i - l1 * c1 - l2 * c2 for l1, l2, c1, c2, i in rows) / len(rows)

    def run_pass(self) -> dict:
        """One pass.  Its "op_s" is the time in its operations, and with a
        probe its "norm_s" is that time scaled by the probes around each
        operation (see probe.py)."""
        self._op_s, self._probe_s = [], []
        if self.probe is not None:
            self._probe_s.append(self.probe())
        try:
            out = self._pass()
        except Exception as e:  # a raising pass is a failed operation, not a crash
            traceback.print_exc()
            self.check(False, f"pass raised {type(e).__name__}: {e}")
            self.solve_log.drain()
            return {}
        out["op_s"] = self.op_s()
        out["ops"] = len(self._op_s)
        if self.probe is not None:
            out["norm_s"] = normalised(self._op_s, self._probe_s)
        self.passes.append(out)
        return out

    def _pass(self) -> dict:
        raise NotImplementedError


class Fig4Sweep(Workload):
    name = "fig4_sweep"
    why = ("the fig4 setting (BPSK, 32x128 arrays, L=32) on its grid's 12 diagonal "
           "points, then repro fig3: optimizer and infotheory time, no sumrate or oracle")

    def __init__(self, seed, workdir, src_digest, probe=None):
        super().__init__(seed, workdir, src_digest, probe)
        d = cli.DEFAULTS
        self.channel_args = (d["snr1_db"], d["snr2_db"], d["num_bins"], d["span_sigmas"])
        self.bound = uplink_sum_rate_bound(channel.build_bpsk_mac(*self.channel_args))
        self.axis = [float(x) for x in sweep.LambdaGrid.log_spaced(
            d["lambda_min"], d["lambda_max"], d["lambda_count"]).axis1]
        self.order = list(range(len(self.axis)))
        random.Random(seed).shuffle(self.order)

    def _pass(self):
        d = cli.DEFAULTS
        ch = self.op(channel.build_bpsk_mac, *self.channel_args)
        points = {}
        for k in self.order:
            lam = self.axis[k]
            surface = self.op(sweep.sweep_grid, ch, d["levels"],
                              grid=sweep.LambdaGrid([lam], [lam]), restarts=1,
                              eps=d["eps"], max_iter=d["max_iter"], seed=SOLVER_SEED + k)
            points[k] = surface.points[0]
        solve_s = self.op_s()
        csv_path = os.path.join(self.tmp, "fig4_diagonal.csv")
        self.op(sweep.surface_to_csv,
                merged_surface((points[k] for k in sorted(points)), ch, d["levels"]),
                csv_path)
        outdir = os.path.join(self.tmp, "fig3")
        self.op(cli.run_repro, "fig3", outdir=outdir, seed=SOLVER_SEED)
        self.check(True, "run_repro fig3")
        self.check_solves()
        with open(os.path.join(outdir, "fig3_trace.csv")) as f:
            next(f)
            trace = [float(line.split(",")[1]) for line in f if line.strip()]
        self.check(monotone(trace), "fig3 Lagrangian trace decreased")
        return {
            "points": len(points),
            "solve_s": solve_s,
            "lagrangian_mean": self.check_surface(csv_path, self.bound),
            "digest": self.check_digest(csv_path),
        }


class FixtureTimeshare(Workload):
    name = "fixture_timeshare"
    why = ("256 solves on 2x3 arrays, so per-call overhead dominates, then 16 "
           "in-process sumrate CLI requests led by the envelope query and CSV reader")

    LEVELS = 2
    RESTARTS = 1
    GRID = (1e-3, 10.0, 16)  # the range of the dense grid of demo 04, 16 per axis
    REQUESTS = 16
    DL_SNR_DB = (-5.0, 15.0)

    def __init__(self, seed, workdir, src_digest, probe=None):
        super().__init__(seed, workdir, src_digest, probe)
        self.ch = oracle.fixture_channel()
        self.bound = uplink_sum_rate_bound(self.ch)
        self.axis = sweep.LambdaGrid.log_spaced(*self.GRID).axis1
        rng = random.Random(seed)
        self.order = list(range(len(self.axis)))
        rng.shuffle(self.order)
        self.requests = [(rng.uniform(*self.DL_SNR_DB), rng.uniform(*self.DL_SNR_DB))
                         for _ in range(self.REQUESTS)]

    def _pass(self):
        csv_path = os.path.join(self.tmp, "surface.csv")
        outs = [os.path.join(self.tmp, f"sumrate-{k}.json") for k in range(len(self.requests))]
        rows = {}
        for i in self.order:  # one sweep_grid call per row of the grid
            rows[i] = self.op(sweep.sweep_grid, self.ch, self.LEVELS,
                              grid=sweep.LambdaGrid([self.axis[i]], self.axis),
                              restarts=self.RESTARTS, seed=SOLVER_SEED + i).points
        solve_s = self.op_s()
        points = [p for i in sorted(rows) for p in rows[i]]
        self.op(sweep.surface_to_csv, merged_surface(points, self.ch, self.LEVELS), csv_path)
        start_b = len(self._op_s)
        codes = [self.op(cli_exit_code, ["sumrate", "--surface", csv_path,
                                         f"--dl-snr1-db={a!r}", f"--dl-snr2-db={b!r}",
                                         "--out", out])
                 for (a, b), out in zip(self.requests, outs)]
        phase_b_s = self.op_s(start_b)
        self.check(True, "sweep_grid")
        self.check_solves()
        rates = []
        for (a, b), code, out in zip(self.requests, codes, outs):
            if not self.check(code == 0, f"sumrate at ({a!r}, {b!r}) dB exited {code}"):
                continue
            with open(out) as f:
                rate = json.load(f)["sum_rate_bits"]
            self.check(math.isfinite(rate) and 0.0 <= rate <= self.bound + BOUND_SLACK,
                       f"sum rate {rate!r} outside [0, {self.bound!r}]")
            rates.append(rate)
        return {
            "points": len(points),
            "solve_s": solve_s,
            "requests": len(codes),
            "phase_b_s": phase_b_s,
            "lagrangian_mean": self.check_surface(csv_path, self.bound),
            "sum_rate_mean": math.fsum(rates) / len(rates) if rates else 0.0,
            "digest": self.check_digest(csv_path),
        }


class OracleTables(Workload):
    name = "oracle_tables"
    why = ("brute-force RateTable builds (420k cells, the memory peak), seeded "
           "queries and the criterion-3 spot check; almost no solver work")

    TABLES = ((2, 0.02), (3, 0.1))
    QUERIES = 8  # of each kind, per table
    SPOT_RESTARTS = 8

    def __init__(self, seed, workdir, src_digest, probe=None):
        super().__init__(seed, workdir, src_digest, probe)
        self.ch = oracle.fixture_channel()
        self.bound = uplink_sum_rate_bound(self.ch)
        ents = qfrelay.yr_conditional_entropies(self.ch)
        c_max = 0.9 * min(ents["h_yr_given_x1"], ents["h_yr_given_x2"])
        rng = random.Random(seed)
        self.targets = [(rng.uniform(0.05, c_max), rng.uniform(0.05, c_max))
                        for _ in range(self.QUERIES)]
        self.multipliers = [(10 ** rng.uniform(-2, 0), 10 ** rng.uniform(-2, 0))
                            for _ in range(self.QUERIES)]

    def _constrained(self, table, levels, step):
        values = []
        for c1, c2 in self.targets:
            values.append(table.best_constrained(c1, c2)[0])
            oracle.check_boundary_optimality(self.ch, levels, step, c1, c2, table=table)
        return values

    def _penalized(self, table):
        return [table.best_penalized(lam1, lam2)[0] for lam1, lam2 in self.multipliers]

    def _pass(self):
        tables = [self.op(oracle.RateTable, self.ch, levels, step)
                  for levels, step in self.TABLES]
        build_s = self.op_s()
        values = []  # best_constrained and best_penalized answers
        for (levels, step), table in zip(self.TABLES, tables):
            values += self.op(self._constrained, table, levels, step)
            values += self.op(self._penalized, table)
        start_spot = len(self._op_s)
        solver = [self.op(optimizer.optimize_restarts, self.ch, lam1, lam2, 2,
                          restarts=self.SPOT_RESTARTS, seed=SOLVER_SEED).lagrangian_trace[-1]
                  for lam1, lam2 in SPOT_PAIRS]
        spot_s = self.op_s(start_spot)
        want = [tables[0].best_penalized(lam1, lam2)[0] for lam1, lam2 in SPOT_PAIRS]
        cells = sum(len(t) for t in tables)
        del tables
        self.check_solves()
        for v in values:
            self.check(math.isfinite(v) and -BOUND_SLACK <= v <= self.bound + BOUND_SLACK,
                       f"oracle value {v!r} out of range")
        gaps = [abs(g - w) for g, w in zip(solver, want)]
        for (lam1, lam2), gap in zip(SPOT_PAIRS, gaps):
            self.check(gap <= ORACLE_GAP_LIMIT,
                       f"solver {gap:.3e} bits from oracle at ({lam1}, {lam2})")
        return {
            "cells": cells,
            "build_s": build_s,
            "points": len(SPOT_PAIRS),
            "solve_s": spot_s,
            "lagrangian_mean": math.fsum(solver) / len(solver),
            "gap_max": max(gaps),
        }


WORKLOADS = {w.name: w for w in (Fig4Sweep, FixtureTimeshare, OracleTables)}
