"""Parity record of the default reproduction sweep.

Runs the default 12x12 multiplier grid (BPSK 1.5/4.5 dB, 128 bins, 32
levels, 4 restarts, seed 0) twice, serially, and writes a JSON record:

- every point's winning Lagrangian (i_rd - lambda1 c1 - lambda2 c2, bits);
- the map evaluations and the count of unconverged solves over every solve
  (all restarts of all points), the winners' map evaluations and the wall
  time of each run;
- whether the two runs wrote byte-identical surface CSVs.

With --against OLD.json it then reports, per grid point, how far each winning
Lagrangian fell or rose against OLD, and exits 1 if any fell by more than TOL
bits.  --load NEW.json compares an existing record instead of running.

Usage (from the repository root; pin one CPU for comparable wall times):

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 taskset -c 0 \
        python3 scripts/sweep_parity.py --out BENCH.json [--against OLD.json]

Only the standard library and qfrelay are imported, so the same script
records any revision of the package: put that revision's src/ on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import sys
import tempfile
import time
from importlib import metadata

from qfrelay import LambdaGrid, build_bpsk_mac, optimizer, surface_to_csv, sweep_grid
from qfrelay.cli import DEFAULTS

SETTINGS = ("snr1_db", "snr2_db", "num_bins", "span_sigmas", "levels", "restarts",
            "lambda_min", "lambda_max", "lambda_count", "eps", "max_iter")
RUNS = 2
# The parity bar: no winning Lagrangian may fall by more than this (bits).
TOL = 1e-9


def installed_version(package: str) -> str | None:
    """The installed version of `package`, or None where it is not installed
    (scipy is a test dependency only)."""
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def counted_sweep(*args, **kwargs):
    """sweep_grid(*args, **kwargs) and the (iterations, converged) of every
    solve it ran.  optimize_restarts calls optimizer.optimize by name, so
    rebinding it for the sweep sees each restart, not only the winners."""
    solve, solves = optimizer.optimize, []

    def counted(*a, **kw):
        res = solve(*a, **kw)
        solves.append((res.iterations, res.converged))
        return res

    optimizer.optimize = counted
    try:
        return sweep_grid(*args, **kwargs), solves
    finally:
        optimizer.optimize = solve


def record(seed: int) -> dict:
    """Run the default sweep RUNS times and collect the parity record."""
    d = DEFAULTS
    ch = build_bpsk_mac(d["snr1_db"], d["snr2_db"], d["num_bins"], d["span_sigmas"])
    grid = LambdaGrid.log_spaced(d["lambda_min"], d["lambda_max"], d["lambda_count"])
    wall, csvs = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(RUNS):
            t0 = time.perf_counter()
            surface, solves = counted_sweep(ch, d["levels"], grid=grid,
                                            restarts=d["restarts"], eps=d["eps"],
                                            max_iter=d["max_iter"], seed=seed)
            wall.append(time.perf_counter() - t0)
            csvs.append(os.path.join(tmp, f"surface-{k}.csv"))
            surface_to_csv(surface, csvs[-1])
        identical = all(filecmp.cmp(csvs[0], c, shallow=False) for c in csvs[1:])
    points = [{"lambda1": p.lam1, "lambda2": p.lam2,
               "lagrangian_bits": p.i_rd - p.lam1 * p.c1 - p.lam2 * p.c2,
               "iterations": p.iterations, "converged": p.converged}
              for p in surface.points]
    return {
        "settings": {**{k: d[k] for k in SETTINGS}, "seed": seed},
        "environment": {
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": installed_version("scipy"),
            "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "solves": len(solves),
        "map_evaluations": sum(n for n, _ in solves),
        "nonconverged": sum(1 for _, ok in solves if not ok),
        "winner_map_evaluations": sum(p["iterations"] for p in points),
        "wall_s": wall,
        "csv_identical": identical,
        "points": points,
    }


def compare(new: dict, old: dict) -> int:
    """Print each point whose winner moved by more than TOL and a summary
    that also counts the winners that moved at all; the number of points
    that fell by more than TOL."""
    if len(new["points"]) != len(old["points"]):
        raise SystemExit("the two records cover different grids")
    falls, rises, moved = [], [], 0
    for a, b in zip(new["points"], old["points"]):
        if (a["lambda1"], a["lambda2"]) != (b["lambda1"], b["lambda2"]):
            raise SystemExit("the two records cover different grids")
        diff = a["lagrangian_bits"] - b["lagrangian_bits"]
        moved += diff != 0.0
        if abs(diff) > TOL:
            (falls if diff < 0 else rises).append(diff)
            print(f"{'fell' if diff < 0 else 'rose'} {abs(diff):.3e} bits at "
                  f"({a['lambda1']:.4g}, {a['lambda2']:.4g})")
    print(f"{moved} of {len(new['points'])} winners moved at all; "
          f"{len(falls)} points fell by more than {TOL:g} (largest "
          f"{max((-f for f in falls), default=0.0):.3e}), {len(rises)} rose (largest "
          f"{max(rises, default=0.0):.3e}); map evaluations "
          f"{old['map_evaluations']} -> {new['map_evaluations']} (winners "
          f"{old['winner_map_evaluations']} -> {new['winner_map_evaluations']}), "
          f"unconverged solves {old['nonconverged']} -> {new['nonconverged']} of "
          f"{new['solves']}, wall {min(old['wall_s']):.2f} -> {min(new['wall_s']):.2f} s")
    return len(falls)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--out", help="run the sweep and write its record here")
    src.add_argument("--load", help="compare this existing record instead of running")
    ap.add_argument("--against", help="an earlier record to compare with")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.load:
        with open(args.load) as f:
            new = json.load(f)
    else:
        new = record(args.seed)
        with open(args.out, "w") as f:
            json.dump(new, f, indent=1)
            f.write("\n")
        print(f"wrote {args.out}: {new['map_evaluations']} map evaluations over "
              f"{new['solves']} solves, {new['nonconverged']} unconverged, wall "
              f"{min(new['wall_s']):.2f} s, CSVs identical: {new['csv_identical']}")
    if not args.against:
        return 0
    with open(args.against) as f:
        old = json.load(f)
    return 1 if compare(new, old) else 0


if __name__ == "__main__":
    sys.exit(main())
