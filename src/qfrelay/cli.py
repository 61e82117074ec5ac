"""Command-line front end.

Subcommands: channel, optimize, sweep, sumrate, oracle, repro.  Parameters
come from a JSON config file, command-line flags, or built-in defaults, with
flags taking precedence over the file.  Exit codes: 0 success, 2 configuration
error, 3 numeric failure, 4 enumeration budget refusal.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from qfrelay.channel import ChannelModel, build_bpsk_mac, from_pmfs
from qfrelay.infotheory import uplink_sum_rate_bound, yr_conditional_entropies
from qfrelay.optimizer import INIT_STRATEGIES, optimize, optimize_restarts
from qfrelay.oracle import (DEFAULT_MAX_CELLS, OracleBudgetError, RateTable,
                            check_boundary_optimality, fixture_channel)
from qfrelay.sumrate import (alpha_objective_curve, downlink_rate,
                             optimize_alpha, unimodality_report)
from qfrelay.sweep import (LambdaGrid, surface_from_csv, surface_from_json,
                           surface_to_csv, surface_to_json, scalar_diagnostic,
                           sweep_grid)

DEFAULTS = {
    "snr1_db": 1.5,
    "snr2_db": 4.5,
    "num_bins": 128,
    "span_sigmas": 4.0,
    "levels": 32,
    "init": "perturbed-uniform",
    "restarts": 4,
    "seed": 0,
    "eps": 1e-8,
    "max_iter": 5000,
    "lambda_min": 1e-3,
    "lambda_max": 10.0,
    "lambda_count": 12,
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_BUDGET = 4


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters: file values overridden by flags,
    remaining gaps filled with documented defaults."""

    # channel: parametric source
    snr1_db: float
    snr2_db: float
    num_bins: int
    span_sigmas: float
    # channel: inline source (all three set, or all three None)
    p_x1: list | None
    p_x2: list | None
    p_yr_given_x1x2: list | None
    # quantizer
    levels: int
    init: str
    restarts: int
    seed: int
    # solver
    lam1: float | None
    lam2: float | None
    lambda_min: float
    lambda_max: float
    lambda_count: int
    eps: float
    max_iter: int
    # sumrate
    i1_bits: float | None
    i2_bits: float | None
    dl_snr1_db: float | None
    dl_snr2_db: float | None
    # output
    out: str | None
    json_out: str | None
    trace: str | None
    dump_q: object
    outdir: str
    workers: int | None

    def build_channel(self) -> ChannelModel:
        if self.p_yr_given_x1x2 is not None:
            return from_pmfs(self.p_x1, self.p_x2, self.p_yr_given_x1x2)
        return build_bpsk_mac(self.snr1_db, self.snr2_db,
                              num_bins=self.num_bins, span_sigmas=self.span_sigmas)

    def lambda_grid(self) -> LambdaGrid:
        return LambdaGrid.log_spaced(self.lambda_min, self.lambda_max, self.lambda_count)


_SCHEMA = {
    "channel": {
        "snr1_db": "number",
        "snr2_db": "number",
        "num_bins": "integer",
        "span_sigmas": "number",
        "p_x1": "list",
        "p_x2": "list",
        "p_yr_given_x1x2": "list",
    },
    "quantizer": {
        "levels": "integer",
        "init": "string",
        "restarts": "integer",
        "seed": "integer",
    },
    "solver": {
        "lambda1": "number",
        "lambda2": "number",
        "lambda_grid": "object",
        "eps": "number",
        "max_iter": "integer",
    },
    "sumrate": {
        "i1_bits": "number",
        "i2_bits": "number",
        "dl_snr1_db": "number",
        "dl_snr2_db": "number",
    },
    "output": {
        "out": "string",
        "json_out": "string",
        "trace": "string",
        "dump_q": "string",
        "outdir": "string",
        "workers": "integer",
    },
}
_GRID_SCHEMA = {"min": "number", "max": "number", "count": "integer"}


def _check_type(value, kind: str, key: str):
    ok = {
        "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
        "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
        "string": lambda v: isinstance(v, str),
        "list": lambda v: isinstance(v, list),
        "object": lambda v: isinstance(v, dict),
    }[kind]
    if not ok(value):
        raise ConfigError(f"config key {key!r} must be a {kind}, got {value!r}")
    if kind == "number" and not math.isfinite(value):
        raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
    return value


def _load_config_file(path: str) -> dict:
    """Validated nested config dict; unknown keys are hard errors."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: not valid JSON ({e})")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    for section, body in raw.items():
        if section not in _SCHEMA:
            raise ConfigError(
                f"unknown config section {section!r}; expected one of {sorted(_SCHEMA)}"
            )
        if not isinstance(body, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        for key, value in body.items():
            if key not in _SCHEMA[section]:
                raise ConfigError(
                    f"unknown config key {section + '.' + key!r}; "
                    f"expected one of {sorted(_SCHEMA[section])}"
                )
            _check_type(value, _SCHEMA[section][key], f"{section}.{key}")
    grid = raw.get("solver", {}).get("lambda_grid")
    if grid is not None:
        for key, value in grid.items():
            if key not in _GRID_SCHEMA:
                raise ConfigError(
                    f"unknown config key 'solver.lambda_grid.{key}'; "
                    f"expected one of {sorted(_GRID_SCHEMA)}"
                )
            _check_type(value, _GRID_SCHEMA[key], f"solver.lambda_grid.{key}")
    return raw


def _resolve(cfg: dict, overrides: dict) -> RunConfig:
    """Merge config file values and flag overrides into a RunConfig.

    Exactly one channel source (parametric or inline) and at most one lambda
    source (point or grid) may be specified explicitly.
    """
    def pick(section, key, default=None):
        flat = f"{section}.{key}"
        if overrides.get(flat) is not None:
            return overrides[flat]
        return cfg.get(section, {}).get(key, default)

    grid_cfg = cfg.get("solver", {}).get("lambda_grid") or {}
    grid_explicit = bool(grid_cfg) or any(
        overrides.get(k) is not None
        for k in ("grid.min", "grid.max", "grid.count")
    )
    lam1 = pick("solver", "lambda1")
    lam2 = pick("solver", "lambda2")
    if (lam1 is not None or lam2 is not None) and grid_explicit:
        raise ConfigError(
            "exactly one lambda source allowed: lambda1/lambda2 or lambda_grid, not both"
        )

    inline_keys = ("p_x1", "p_x2", "p_yr_given_x1x2")
    inline = {k: pick("channel", k) for k in inline_keys}
    inline_given = any(v is not None for v in inline.values())
    parametric_given = any(
        pick("channel", k) is not None
        for k in ("snr1_db", "snr2_db", "num_bins", "span_sigmas")
    )
    if inline_given and parametric_given:
        raise ConfigError(
            "exactly one channel source allowed: SNR parameters or inline pmfs, not both"
        )
    if inline_given and any(v is None for v in inline.values()):
        missing = [k for k, v in inline.items() if v is None]
        raise ConfigError(f"inline channel needs all of {inline_keys}, missing {missing}")

    lambda_min = overrides.get("grid.min")
    if lambda_min is None:
        lambda_min = grid_cfg.get("min", DEFAULTS["lambda_min"])
    lambda_max = overrides.get("grid.max")
    if lambda_max is None:
        lambda_max = grid_cfg.get("max", DEFAULTS["lambda_max"])
    lambda_count = overrides.get("grid.count")
    if lambda_count is None:
        lambda_count = grid_cfg.get("count", DEFAULTS["lambda_count"])
    if lambda_min <= 0:
        raise ConfigError(
            "lambda grid min must be > 0 (the quantizer update divides by lam1 + lam2)"
        )

    init = pick("quantizer", "init", DEFAULTS["init"])
    if init not in INIT_STRATEGIES:
        raise ConfigError(
            f"config key 'quantizer.init' must be one of {INIT_STRATEGIES}, got {init!r}"
        )

    return RunConfig(
        snr1_db=float(pick("channel", "snr1_db", DEFAULTS["snr1_db"])),
        snr2_db=float(pick("channel", "snr2_db", DEFAULTS["snr2_db"])),
        num_bins=int(pick("channel", "num_bins", DEFAULTS["num_bins"])),
        span_sigmas=float(pick("channel", "span_sigmas", DEFAULTS["span_sigmas"])),
        p_x1=inline["p_x1"],
        p_x2=inline["p_x2"],
        p_yr_given_x1x2=inline["p_yr_given_x1x2"],
        levels=int(pick("quantizer", "levels", DEFAULTS["levels"])),
        init=init,
        restarts=int(pick("quantizer", "restarts", DEFAULTS["restarts"])),
        seed=int(pick("quantizer", "seed", DEFAULTS["seed"])),
        lam1=None if lam1 is None else float(lam1),
        lam2=None if lam2 is None else float(lam2),
        lambda_min=float(lambda_min),
        lambda_max=float(lambda_max),
        lambda_count=int(lambda_count),
        eps=float(pick("solver", "eps", DEFAULTS["eps"])),
        max_iter=int(pick("solver", "max_iter", DEFAULTS["max_iter"])),
        i1_bits=pick("sumrate", "i1_bits"),
        i2_bits=pick("sumrate", "i2_bits"),
        dl_snr1_db=pick("sumrate", "dl_snr1_db"),
        dl_snr2_db=pick("sumrate", "dl_snr2_db"),
        out=pick("output", "out"),
        json_out=pick("output", "json_out"),
        trace=pick("output", "trace"),
        dump_q=pick("output", "dump_q"),
        outdir=pick("output", "outdir", "."),
        workers=pick("output", "workers"),
    )


def parse_config(path: str) -> RunConfig:
    """Load and validate a JSON config file, filling documented defaults."""
    return _resolve(_load_config_file(path), {})


def _config_from_args(args) -> RunConfig:
    cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}
    overrides = {
        "channel.snr1_db": getattr(args, "snr1_db", None),
        "channel.snr2_db": getattr(args, "snr2_db", None),
        "channel.num_bins": getattr(args, "bins", None),
        "channel.span_sigmas": getattr(args, "span_sigmas", None),
        "quantizer.levels": getattr(args, "levels", None),
        "quantizer.init": getattr(args, "init", None),
        "quantizer.restarts": getattr(args, "restarts", None),
        "quantizer.seed": getattr(args, "seed", None),
        "solver.lambda1": getattr(args, "lambda1", None),
        "solver.lambda2": getattr(args, "lambda2", None),
        "grid.min": getattr(args, "lambda_min", None),
        "grid.max": getattr(args, "lambda_max", None),
        "grid.count": getattr(args, "lambda_count", None),
        "solver.eps": getattr(args, "eps", None),
        "solver.max_iter": getattr(args, "max_iter", None),
        "sumrate.i1_bits": getattr(args, "i1_bits", None),
        "sumrate.i2_bits": getattr(args, "i2_bits", None),
        "sumrate.dl_snr1_db": getattr(args, "dl_snr1_db", None),
        "sumrate.dl_snr2_db": getattr(args, "dl_snr2_db", None),
        "output.out": getattr(args, "out", None),
        "output.json_out": getattr(args, "json_out", None),
        "output.trace": getattr(args, "trace", None),
        "output.dump_q": getattr(args, "dump_q", None),
        "output.outdir": getattr(args, "outdir", None),
        "output.workers": getattr(args, "workers", None),
    }
    return _resolve(cfg, overrides)


def _assert_finite(obj, context: str):
    """Refuse to emit NaN or infinity anywhere in a result payload."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise FloatingPointError(f"non-finite value in {context}: {obj!r}")
    elif isinstance(obj, dict):
        for v in obj.values():
            _assert_finite(v, context)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _assert_finite(v, context)


def _emit_json(payload: dict, path: str | None, context: str):
    _assert_finite(payload, context)
    text = json.dumps(payload, indent=2) + "\n"
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _write_trace_csv(trace, path: str):
    _assert_finite(list(trace), f"trace file {path}")
    lines = ["iteration,lagrangian_bits"]
    lines.extend(f"{k},{repr(float(v))}" for k, v in enumerate(trace))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _cmd_channel(args) -> int:
    cfg = _config_from_args(args)
    ch = cfg.build_channel()
    payload = {
        "fingerprint": ch.fingerprint(),
        "num_x1": ch.num_x1,
        "num_x2": ch.num_x2,
        "num_bins": ch.num_bins,
        "entropies_bits": yr_conditional_entropies(ch),
        "uplink_sum_rate_bound_bits": uplink_sum_rate_bound(ch),
        "model": ch.to_dict(),
    }
    _emit_json(payload, cfg.out, "channel description")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    cfg = _config_from_args(args)
    if cfg.lam1 is None or cfg.lam2 is None:
        raise ConfigError("optimize needs both --lambda1 and --lambda2 (or solver.lambda1/lambda2)")
    ch = cfg.build_channel()
    res = optimize_restarts(ch, cfg.lam1, cfg.lam2, cfg.levels,
                            restarts=cfg.restarts, init=cfg.init, eps=cfg.eps,
                            max_iter=cfg.max_iter, seed=cfg.seed)
    rep = res.report
    payload = {
        "lambda1": cfg.lam1,
        "lambda2": cfg.lam2,
        "levels": cfg.levels,
        "restarts": cfg.restarts,
        "seed": res.seed,
        "iterations": res.iterations,
        "converged": res.converged,
        "lagrangian_bits": res.lagrangian_trace[-1],
        "i_rd_bits": rep.j_value,
        "r1_bits": rep.r1,
        "r2_bits": rep.r2,
        "c1_bits": rep.c1_achieved,
        "c2_bits": rep.c2_achieved,
        "h_scalar_bits": rep.h_yhat_given_y,
        "channel_fingerprint": ch.fingerprint(),
    }
    if cfg.trace:
        _write_trace_csv(res.lagrangian_trace, cfg.trace)
    if cfg.dump_q:
        qdump = {
            "levels": res.q_final.num_levels,
            "num_bins": res.q_final.num_bins,
            "channel_fingerprint": ch.fingerprint(),
            "q": res.q_final.q.tolist(),
        }
        _emit_json(qdump, str(cfg.dump_q), "quantizer dump")
    _emit_json(payload, cfg.out, "optimize result")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    ch = cfg.build_channel()
    surface = sweep_grid(ch, cfg.levels, grid=cfg.lambda_grid(),
                         restarts=cfg.restarts, init=cfg.init, eps=cfg.eps,
                         max_iter=cfg.max_iter, seed=cfg.seed, workers=cfg.workers)
    for w in surface.warnings:
        print(f"warning: {w}", file=sys.stderr)
    out = cfg.out or "surface.csv"
    for p in surface.points:
        _assert_finite([p.lam1, p.lam2, p.c1, p.c2, p.i_rd, p.h_scalar],
                       f"surface file {out}")
    surface_to_csv(surface, out)
    if cfg.json_out:
        surface_to_json(surface, cfg.json_out, include_q=bool(cfg.dump_q))
    return EXIT_OK


def _load_surface(path: str):
    if path.endswith(".json"):
        return surface_from_json(path)
    return surface_from_csv(path)


def _cmd_sumrate(args) -> int:
    cfg = _config_from_args(args)
    if not args.surface:
        raise ConfigError("sumrate needs --surface pointing at a sweep output file")
    direct = cfg.i1_bits is not None or cfg.i2_bits is not None
    from_snr = cfg.dl_snr1_db is not None or cfg.dl_snr2_db is not None
    if direct and from_snr:
        raise ConfigError("give downlink capacities as --i1-bits/--i2-bits or "
                          "--dl-snr1-db/--dl-snr2-db, not both")
    if direct:
        if cfg.i1_bits is None or cfg.i2_bits is None:
            raise ConfigError("both --i1-bits and --i2-bits are required")
        i1, i2 = float(cfg.i1_bits), float(cfg.i2_bits)
    elif from_snr:
        if cfg.dl_snr1_db is None or cfg.dl_snr2_db is None:
            raise ConfigError("both --dl-snr1-db and --dl-snr2-db are required")
        i1, i2 = downlink_rate(cfg.dl_snr1_db), downlink_rate(cfg.dl_snr2_db)
    else:
        raise ConfigError("sumrate needs downlink capacities "
                          "(--i1-bits/--i2-bits or --dl-snr1-db/--dl-snr2-db)")

    surface = _load_surface(args.surface)
    res = optimize_alpha(surface, i1, i2)
    payload = {
        "i1_bits": i1,
        "i2_bits": i2,
        "alpha_star": res.alpha_star,
        "sum_rate_bits": res.sum_rate,
        "c1_at_star_bits": res.c1_at_star,
        "c2_at_star_bits": res.c2_at_star,
        "i_rd_at_star_bits": res.i_rd_at_star,
        "unimodality": unimodality_report(surface, i1, i2),
    }
    if args.alpha_curve:
        curve = alpha_objective_curve(surface, i1, i2)
        _assert_finite(curve, f"alpha curve file {args.alpha_curve}")
        lines = ["alpha,sum_rate_bits"]
        lines.extend(f"{repr(a)},{repr(v)}" for a, v in curve)
        with open(args.alpha_curve, "w") as f:
            f.write("\n".join(lines) + "\n")
    _emit_json(payload, cfg.out, "sumrate result")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    cfg = _config_from_args(args)
    if args.fixture:
        ch = fixture_channel()
    elif cfg.p_yr_given_x1x2 is not None:
        ch = cfg.build_channel()
    else:
        raise ConfigError("oracle needs --fixture or an inline-pmf channel config "
                          "(full-size parametric channels exceed the enumeration budget)")
    levels = args.levels if args.levels is not None else 2
    step = args.step if args.step is not None else 0.05
    table = RateTable(ch, levels, step, max_cells=args.max_cells)

    payload = {
        "channel_fingerprint": ch.fingerprint(),
        "levels": levels,
        "grid_step": step,
        "num_candidates": table.num_candidates,
        "unconstrained_max_j_bits": float(table.j_bits.max()),
        "uplink_sum_rate_bound_bits": uplink_sum_rate_bound(ch),
    }
    if args.c1_max is not None or args.c2_max is not None:
        if args.c1_max is None or args.c2_max is None:
            raise ConfigError("give both --c1-max and --c2-max or neither")
        value, k = table.best_constrained(args.c1_max, args.c2_max)
        payload["constrained"] = {
            "c1_max_bits": args.c1_max,
            "c2_max_bits": args.c2_max,
            "i_rd_bits": value,
            "argmax_c1_bits": float(table.c1_bits[k]),
            "argmax_c2_bits": float(table.c2_bits[k]),
            "boundary_optimal": bool(check_boundary_optimality(
                ch, levels, step, args.c1_max, args.c2_max, table=table)),
        }
    if args.lambda1 is not None or args.lambda2 is not None:
        if args.lambda1 is None or args.lambda2 is None:
            raise ConfigError("give both --lambda1 and --lambda2 or neither")
        value, k = table.best_penalized(args.lambda1, args.lambda2)
        payload["penalized"] = {
            "lambda1": args.lambda1,
            "lambda2": args.lambda2,
            "value_bits": value,
            "argmax_j_bits": float(table.j_bits[k]),
            "argmax_c1_bits": float(table.c1_bits[k]),
            "argmax_c2_bits": float(table.c2_bits[k]),
        }
    _emit_json(payload, cfg.out, "oracle values")
    return EXIT_OK


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def run_repro(figure_id: str, outdir: str = ".", seed: int = 0,
              workers: int | None = None) -> list:
    """Emit the CSV backing one of the three reference figures plus a manifest.

    fig3: Lagrangian trace of a single run (iteration, value).
    fig4: multiplier-sweep surface CSV over the 12x12 default grid.
    fig5: scalar-quantizer diagnostic pairs, reusing an existing fig4 surface
    in outdir when present.

    All figures use the BPSK setup with uplink SNRs 1.5 and 4.5 dB, unit
    noise, 128 output bins, and 32 quantizer levels.  Returns the list of
    files written.
    """
    if figure_id not in ("fig3", "fig4", "fig5"):
        raise ConfigError(f"unknown figure {figure_id!r}; choose fig3, fig4 or fig5")
    os.makedirs(outdir, exist_ok=True)
    start = time.perf_counter()
    params = {
        "snr1_db": DEFAULTS["snr1_db"],
        "snr2_db": DEFAULTS["snr2_db"],
        "num_bins": DEFAULTS["num_bins"],
        "span_sigmas": DEFAULTS["span_sigmas"],
        "levels": DEFAULTS["levels"],
        "eps": DEFAULTS["eps"],
        "max_iter": DEFAULTS["max_iter"],
        "seed": seed,
    }
    written = []

    def path(name):
        return os.path.join(outdir, name)

    if figure_id == "fig3":
        # moderate multipliers keep the limit point interior, so the trace
        # shows a nontrivial convergence curve instead of a collapse to zero
        params.update({"lambda1": 0.1, "lambda2": 0.1})
        ch = build_bpsk_mac(params["snr1_db"], params["snr2_db"],
                            params["num_bins"], params["span_sigmas"])
        res = optimize(ch, 0.1, 0.1, params["levels"], eps=params["eps"],
                       max_iter=params["max_iter"], seed=seed)
        _write_trace_csv(res.lagrangian_trace, path("fig3_trace.csv"))
        written.append(path("fig3_trace.csv"))
        extra = {"iterations": res.iterations, "converged": res.converged}
    else:
        params.update({
            "lambda_min": DEFAULTS["lambda_min"],
            "lambda_max": DEFAULTS["lambda_max"],
            "lambda_count": DEFAULTS["lambda_count"],
            "restarts": DEFAULTS["restarts"],
        })
        surface_csv = path("fig4_surface.csv")
        if figure_id == "fig5" and os.path.exists(surface_csv):
            surface = surface_from_csv(surface_csv)
            extra = {"surface_source": surface_csv}
        else:
            ch = build_bpsk_mac(params["snr1_db"], params["snr2_db"],
                                params["num_bins"], params["span_sigmas"])
            surface = sweep_grid(
                ch, params["levels"], grid=LambdaGrid.log_spaced(
                    params["lambda_min"], params["lambda_max"], params["lambda_count"]),
                restarts=params["restarts"], eps=params["eps"],
                max_iter=params["max_iter"], seed=seed, workers=workers)
            surface_to_csv(surface, surface_csv)
            written.append(surface_csv)
            extra = {"surface_source": "computed",
                     "sweep_warnings": list(surface.warnings)}
        if figure_id == "fig5":
            pairs = scalar_diagnostic(surface)
            _assert_finite(pairs, "fig5 diagnostic")
            lines = ["h_scalar_bits,i_rd_bits"]
            lines.extend(f"{repr(h)},{repr(i)}" for h, i in pairs)
            with open(path("fig5_scalar.csv"), "w") as f:
                f.write("\n".join(lines) + "\n")
            written.append(path("fig5_scalar.csv"))

    manifest = {
        "figure": figure_id,
        "parameters": params,
        "extra": extra,
        "files": [os.path.basename(w) for w in written],
        "git_describe": _git_describe(),
        "wall_time_s": time.perf_counter() - start,
        "created_unix": time.time(),
    }
    manifest_path = path(f"{figure_id}_manifest.json")
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")
    written.append(manifest_path)
    return written


def _cmd_repro(args) -> int:
    written = run_repro(args.figure, outdir=args.outdir or ".",
                        seed=args.seed if args.seed is not None else 0,
                        workers=args.workers)
    for w in written:
        print(w)
    return EXIT_OK


def _add_channel_flags(p):
    p.add_argument("--config", help="JSON run-config file; flags override it")
    p.add_argument("--snr1-db", type=float, dest="snr1_db")
    p.add_argument("--snr2-db", type=float, dest="snr2_db")
    p.add_argument("--bins", type=int)
    p.add_argument("--span-sigmas", type=float, dest="span_sigmas")


def _add_solver_flags(p):
    p.add_argument("--levels", type=int)
    p.add_argument("--init", choices=INIT_STRATEGIES)
    p.add_argument("--restarts", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--max-iter", type=int, dest="max_iter")


class _Parser(argparse.ArgumentParser):
    """Takes '-6.6e-05' as a negative number, not an option string.

    argparse's own matcher accepts only plain decimals such as '-0.5'.
    Subparsers inherit this class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qfrelay",
        description="Quantizer design and sum-rate evaluation for "
                    "Quantize-and-Forward two-way relaying",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("channel", help="build a channel and dump its description")
    _add_channel_flags(p)
    p.add_argument("--out")

    p = sub.add_parser("optimize", help="solve one multiplier pair")
    _add_channel_flags(p)
    _add_solver_flags(p)
    p.add_argument("--lambda1", type=float)
    p.add_argument("--lambda2", type=float)
    p.add_argument("--trace", help="write per-iteration Lagrangian CSV here")
    p.add_argument("--dump-q", dest="dump_q", help="write the final quantizer as JSON here")
    p.add_argument("--out")

    p = sub.add_parser("sweep", help="sweep a multiplier grid into a surface CSV")
    _add_channel_flags(p)
    _add_solver_flags(p)
    p.add_argument("--lambda-min", type=float, dest="lambda_min")
    p.add_argument("--lambda-max", type=float, dest="lambda_max")
    p.add_argument("--lambda-count", type=int, dest="lambda_count")
    p.add_argument("--workers", type=int,
                   help="parallel grid workers (default: serial)")
    p.add_argument("--out", help="surface CSV path (default surface.csv)")
    p.add_argument("--json-out", dest="json_out", help="also write a JSON surface")
    p.add_argument("--dump-q", dest="dump_q", action="store_true",
                   help="embed per-point quantizers in the JSON surface")

    p = sub.add_parser("sumrate", help="optimize time sharing over a swept surface")
    p.add_argument("--config", help="JSON run-config file; flags override it")
    p.add_argument("--surface", help="sweep output to query (.csv or .json)")
    p.add_argument("--i1-bits", type=float, dest="i1_bits")
    p.add_argument("--i2-bits", type=float, dest="i2_bits")
    p.add_argument("--dl-snr1-db", type=float, dest="dl_snr1_db")
    p.add_argument("--dl-snr2-db", type=float, dest="dl_snr2_db")
    p.add_argument("--alpha-curve", dest="alpha_curve",
                   help="write the alpha-grid objective CSV here")
    p.add_argument("--out")

    p = sub.add_parser("oracle", help="brute-force reference values as JSON")
    p.add_argument("--config", help="JSON run-config file (inline-pmf channel)")
    p.add_argument("--fixture", action="store_true",
                   help="use the built-in 2x2x3 fixture channel")
    p.add_argument("--step", type=float, help="simplex grid step (default 0.05)")
    p.add_argument("--levels", type=int, help="quantizer levels (default 2)")
    p.add_argument("--c1-max", type=float, dest="c1_max")
    p.add_argument("--c2-max", type=float, dest="c2_max")
    p.add_argument("--lambda1", type=float)
    p.add_argument("--lambda2", type=float)
    p.add_argument("--max-cells", type=int, dest="max_cells",
                   default=DEFAULT_MAX_CELLS)
    p.add_argument("--out")

    p = sub.add_parser("repro", help="reproduce a reference figure's data")
    p.add_argument("figure", choices=("fig3", "fig4", "fig5"))
    p.add_argument("--outdir")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)

    return parser


_HANDLERS = {
    "channel": _cmd_channel,
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
    "sumrate": _cmd_sumrate,
    "oracle": _cmd_oracle,
    "repro": _cmd_repro,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OracleBudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except FloatingPointError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
