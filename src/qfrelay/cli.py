"""Command-line front end.

Subcommands: channel, optimize, sweep, sumrate, oracle, repro.  Parameters
come from a JSON config file, command-line flags, or built-in defaults, with
flags taking precedence over the file.  PARAMS is the one list of run
parameters: each row names the RunConfig field, the dotted config-file key,
the value kind, the default and the flag, and the config validator, RunConfig,
DEFAULTS and the flags are all derived from it.  Subcommands read every PARAMS
field from the resolved RunConfig, never from the flags.  Exit codes: 0
success, 2 configuration error, 3 non-finite result, 4 enumeration budget
refusal.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass, make_dataclass

from qfrelay.channel import ChannelModel, build_bpsk_mac, from_pmfs
from qfrelay.infotheory import uplink_sum_rate_bound, yr_conditional_entropies
from qfrelay.optimizer import INIT_STRATEGIES, optimize, optimize_restarts
from qfrelay.oracle import (DEFAULT_MAX_CELLS, OracleBudgetError, RateTable,
                            check_boundary_optimality, fixture_channel)
from qfrelay.sumrate import alpha_objective_curve, downlink_rate, optimize_alpha
from qfrelay.sweep import (LambdaGrid, _read_json, _write_csv, _write_json, surface_from_csv,
                           surface_from_json, surface_to_csv, surface_to_json,
                           scalar_diagnostic, sweep_grid)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_BUDGET = 4


class ConfigError(Exception):
    pass


LAMBDA_PAIR = "--lambda1 and --lambda2 (or solver.lambda1/lambda2)"


@dataclass(frozen=True)
class Param:
    """One run parameter.  `field` is also the flag's argparse dest; `flag` is
    offered by each subcommand named in `commands`."""

    field: str
    key: str  # dotted config-file key
    kind: str  # "number", "integer", "string", "string or boolean" or "list"
    default: object = None
    flag: str | None = None
    commands: str = ""  # space-separated subcommand names
    choices: tuple | None = None
    help: str | None = None


PARAMS = (
    # channel: parametric source
    Param("snr1_db", "channel.snr1_db", "number", 1.5, "--snr1-db", "channel optimize sweep"),
    Param("snr2_db", "channel.snr2_db", "number", 4.5, "--snr2-db", "channel optimize sweep"),
    Param("num_bins", "channel.num_bins", "integer", 128, "--bins", "channel optimize sweep"),
    Param("span_sigmas", "channel.span_sigmas", "number", 4.0, "--span-sigmas",
          "channel optimize sweep"),
    # channel: inline source (all three set, or all three None)
    Param("p_x1", "channel.p_x1", "list"),
    Param("p_x2", "channel.p_x2", "list"),
    Param("p_yr_given_x1x2", "channel.p_yr_given_x1x2", "list"),
    # quantizer
    Param("levels", "quantizer.levels", "integer", 32, "--levels", "optimize sweep oracle",
          help="quantizer levels (default 32; oracle: 2)"),
    Param("init", "quantizer.init", "string", "perturbed-uniform", "--init", "optimize sweep",
          choices=INIT_STRATEGIES),
    Param("restarts", "quantizer.restarts", "integer", 4, "--restarts", "optimize sweep"),
    Param("seed", "quantizer.seed", "integer", 0, "--seed", "optimize sweep repro"),
    # solver: one multiplier pair, or a log-spaced grid
    Param("lam1", "solver.lambda1", "number", None, "--lambda1", "optimize oracle"),
    Param("lam2", "solver.lambda2", "number", None, "--lambda2", "optimize oracle"),
    Param("lambda_min", "solver.lambda_grid.min", "number", 1e-3, "--lambda-min", "sweep"),
    Param("lambda_max", "solver.lambda_grid.max", "number", 10.0, "--lambda-max", "sweep"),
    Param("lambda_count", "solver.lambda_grid.count", "integer", 12, "--lambda-count", "sweep"),
    Param("eps", "solver.eps", "number", 1e-8, "--eps", "optimize sweep"),
    Param("max_iter", "solver.max_iter", "integer", 5000, "--max-iter", "optimize sweep"),
    # sumrate: downlink capacities, directly or from SNRs
    Param("i1_bits", "sumrate.i1_bits", "number", None, "--i1-bits", "sumrate"),
    Param("i2_bits", "sumrate.i2_bits", "number", None, "--i2-bits", "sumrate"),
    Param("dl_snr1_db", "sumrate.dl_snr1_db", "number", None, "--dl-snr1-db", "sumrate"),
    Param("dl_snr2_db", "sumrate.dl_snr2_db", "number", None, "--dl-snr2-db", "sumrate"),
    # output
    Param("out", "output.out", "string", None, "--out", "channel optimize sweep sumrate oracle",
          help="write the result here (default stdout; sweep: surface.csv)"),
    Param("json_out", "output.json_out", "string", None, "--json-out", "sweep",
          help="also write a JSON surface"),
    Param("trace", "output.trace", "string", None, "--trace", "optimize",
          help="write per-iteration Lagrangian CSV here"),
    # a path for optimize, an on/off switch for sweep
    Param("dump_q", "output.dump_q", "string or boolean", None, "--dump-q", "optimize",
          help="write the final quantizer as JSON here"),
    Param("workers", "output.workers", "integer", None, "--workers", "sweep repro",
          help="parallel grid workers (default: serial)"),
)

DEFAULTS = {p.field: p.default for p in PARAMS if p.default is not None}
_KINDS = {p.key: p.kind for p in PARAMS}
_TYPES = {"number": float, "integer": int}
# Exact JSON types, so a boolean is not taken for a number.
_JSON_TYPES = {"number": (int, float), "integer": (int,), "string": (str,),
               "string or boolean": (str, bool), "list": (list,)}


class _RunConfigMethods:
    """Fully resolved run parameters, one RunConfig field per PARAMS row: file
    values overridden by flags, remaining gaps filled with the table's defaults."""

    def build_channel(self) -> ChannelModel:
        if self.p_yr_given_x1x2 is not None:
            return from_pmfs(self.p_x1, self.p_x2, self.p_yr_given_x1x2)
        return build_bpsk_mac(self.snr1_db, self.snr2_db,
                              num_bins=self.num_bins, span_sigmas=self.span_sigmas)

    def lambda_grid(self) -> LambdaGrid:
        return LambdaGrid.log_spaced(self.lambda_min, self.lambda_max, self.lambda_count)


RunConfig = make_dataclass("RunConfig", [(p.field, object) for p in PARAMS],
                           bases=(_RunConfigMethods,), frozen=True)


def _flatten(body: dict, prefix: str = "") -> dict:
    """The config file's values by dotted key, each checked against its PARAMS
    row; unknown keys are hard errors."""
    what = "key" if prefix else "section"
    names = sorted({k[len(prefix):].split(".")[0] for k in _KINDS if k.startswith(prefix)})
    flat = {}
    for name, value in body.items():
        key, kind = prefix + name, _KINDS.get(prefix + name)
        if name not in names:
            raise ConfigError(f"unknown config {what} {key!r}; expected one of {names}")
        if kind is None:
            if not isinstance(value, dict):
                raise ConfigError(f"config {what} {key!r} must be an object")
            flat.update(_flatten(value, key + "."))
        elif type(value) not in _JSON_TYPES[kind]:
            raise ConfigError(f"config key {key!r} must be a {kind}, got {value!r}")
        else:
            flat[key] = value
    return flat


def _load_config_file(path: str) -> dict:
    """Validated config values by dotted key."""
    try:
        raw = _read_json(path)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return _flatten(raw)


def _resolve(cfg: dict, overrides: dict, defaults: dict | None = None) -> RunConfig:
    """Merge config file values (by dotted key) and flag overrides (by field;
    None when the flag is absent) into a RunConfig, enforcing the cross-key
    rules.  `defaults` replaces the table's default for the fields it names."""
    given, values = {}, {}
    for p in PARAMS:
        flag = overrides.get(p.field)
        given[p.field] = cfg.get(p.key) if flag is None else flag
        value = given[p.field]
        if value is None:
            value = (defaults or {}).get(p.field, p.default)
        convert = _TYPES.get(p.kind)
        if value is not None and convert is not None:
            try:
                value = convert(value)
            except OverflowError:  # a JSON integer beyond the float range
                value = math.inf
        values[p.field] = value
        if p.kind == "number" and value is not None and not math.isfinite(value):
            source = f"flag {p.flag}" if flag is not None else f"config key {p.key!r}"
            raise ConfigError(f"{source} must be finite, got {value!r}")

    def any_given(*fields):
        return any(given[f] is not None for f in fields)

    if any_given("lam1", "lam2") and any_given("lambda_min", "lambda_max", "lambda_count"):
        raise ConfigError("exactly one lambda source allowed: "
                          "lambda1/lambda2 or lambda_grid, not both")
    inline_keys = ("p_x1", "p_x2", "p_yr_given_x1x2")
    if any_given(*inline_keys) and any_given("snr1_db", "snr2_db", "num_bins", "span_sigmas"):
        raise ConfigError("exactly one channel source allowed: "
                          "SNR parameters or inline pmfs, not both")
    missing = [k for k in inline_keys if given[k] is None]
    if any_given(*inline_keys) and missing:
        raise ConfigError(f"inline channel needs all of {inline_keys}, missing {missing}")
    if values["lambda_min"] <= 0:
        raise ConfigError("lambda grid min must be > 0 "
                          "(the quantizer update divides by lam1 + lam2)")
    if values["init"] not in INIT_STRATEGIES:
        raise ConfigError(f"config key 'quantizer.init' must be one of "
                          f"{INIT_STRATEGIES}, got {values['init']!r}")
    return RunConfig(**values)


def parse_config(path: str) -> RunConfig:
    """Load and validate a JSON config file, filling documented defaults."""
    return _resolve(_load_config_file(path), {})


def _config_from_args(args, **defaults) -> RunConfig:
    cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}
    return _resolve(cfg, {p.field: getattr(args, p.field, None) for p in PARAMS}, defaults)


def _pair(a, b, flags: str) -> bool:
    """True when both values of a pair are given, False when neither is; one
    without the other is a ConfigError naming the pair's `flags`."""
    if (a is None) != (b is None):
        raise ConfigError(f"give both {flags} or neither")
    return a is not None


def _write_trace_csv(trace, path: str):
    _write_csv(path, "iteration,lagrangian_bits", enumerate(map(float, trace)),
               f"trace file {path}")


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
    _write_json(payload, cfg.out, "channel description")
    return EXIT_OK


def _solver_telemetry(res) -> dict:
    """How one solve ran: map evaluations, convergence, extrapolation cycles
    tried and kept, and the final remaining-gap estimate (None when the last
    steps were not shrinking)."""
    return {
        "iterations": res.iterations,
        "converged": res.converged,
        "extrapolations_tried": res.extrapolations_tried,
        "extrapolations_accepted": res.extrapolations_accepted,
        "gap_estimate_bits": res.gap_estimate,
    }


def _cmd_optimize(args) -> int:
    cfg = _config_from_args(args)
    if not _pair(cfg.lam1, cfg.lam2, LAMBDA_PAIR):
        raise ConfigError(f"optimize needs {LAMBDA_PAIR}")
    if isinstance(cfg.dump_q, bool):
        raise ConfigError(f"config key 'output.dump_q' must be a path for optimize, "
                          f"got {cfg.dump_q!r}")
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
        **_solver_telemetry(res),
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
        _write_json(qdump, str(cfg.dump_q), "quantizer dump")
    _write_json(payload, cfg.out, "optimize result")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    if cfg.dump_q and not cfg.json_out:
        raise ConfigError("sweep --dump-q needs --json-out (output.json_out): "
                          "the quantizers go only into the JSON surface")
    surface = sweep_grid(cfg.build_channel(), cfg.levels, grid=cfg.lambda_grid(),
                         restarts=cfg.restarts, init=cfg.init, eps=cfg.eps,
                         max_iter=cfg.max_iter, seed=cfg.seed, workers=cfg.workers)
    for w in surface.warnings:
        print(f"warning: {w}", file=sys.stderr)
    surface_to_csv(surface, cfg.out or "surface.csv")
    if cfg.json_out:
        surface_to_json(surface, cfg.json_out, include_q=bool(cfg.dump_q))
    return EXIT_OK


def _cmd_sumrate(args) -> int:
    cfg = _config_from_args(args)
    if not args.surface:
        raise ConfigError("sumrate needs --surface pointing at a sweep output file")
    direct = _pair(cfg.i1_bits, cfg.i2_bits, "--i1-bits and --i2-bits")
    if direct == _pair(cfg.dl_snr1_db, cfg.dl_snr2_db, "--dl-snr1-db and --dl-snr2-db"):
        raise ConfigError("sumrate needs exactly one form of downlink capacities "
                          "(--i1-bits/--i2-bits or --dl-snr1-db/--dl-snr2-db), not both")
    if direct:
        i1, i2 = cfg.i1_bits, cfg.i2_bits
    else:
        i1, i2 = downlink_rate(cfg.dl_snr1_db), downlink_rate(cfg.dl_snr2_db)

    load = surface_from_json if args.surface.lower().endswith(".json") else surface_from_csv
    surface = load(args.surface)
    res = optimize_alpha(surface, i1, i2)
    payload = {
        "i1_bits": i1,
        "i2_bits": i2,
        "alpha_star": res.alpha_star,
        "sum_rate_bits": res.sum_rate,
        "c1_at_star_bits": res.c1_at_star,
        "c2_at_star_bits": res.c2_at_star,
        "i_rd_at_star_bits": res.i_rd_at_star,
    }
    if args.alpha_curve:
        _write_csv(args.alpha_curve, "alpha,sum_rate_bits",
                   alpha_objective_curve(surface, i1, i2),
                   f"alpha curve file {args.alpha_curve}")
    _write_json(payload, cfg.out, "sumrate result")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    cfg = _config_from_args(args, levels=2)
    if args.fixture:
        ch = fixture_channel()
    elif cfg.p_yr_given_x1x2 is not None:
        ch = cfg.build_channel()
    else:
        raise ConfigError("oracle needs --fixture or an inline-pmf channel config "
                          "(full-size parametric channels exceed the enumeration budget)")
    step = args.step if args.step is not None else 0.05
    constrained = _pair(args.c1_max, args.c2_max, "--c1-max and --c2-max")
    penalized = _pair(cfg.lam1, cfg.lam2, LAMBDA_PAIR)
    table = RateTable(ch, cfg.levels, step, max_cells=args.max_cells)

    payload = {
        "channel_fingerprint": ch.fingerprint(),
        "levels": cfg.levels,
        "grid_step": step,
        "num_candidates": table.num_candidates,
        "unconstrained_max_j_bits": float(table.j_bits.max()),
        "uplink_sum_rate_bound_bits": uplink_sum_rate_bound(ch),
    }
    if constrained:
        value, k = table.best_constrained(args.c1_max, args.c2_max)
        ents = yr_conditional_entropies(ch)
        verdict = None  # the boundary diagnostic needs targets that can bind
        if args.c1_max < ents["h_yr_given_x1"] and args.c2_max < ents["h_yr_given_x2"]:
            verdict = bool(check_boundary_optimality(
                ch, cfg.levels, step, args.c1_max, args.c2_max, table=table))
        payload["constrained"] = {
            "c1_max_bits": args.c1_max,
            "c2_max_bits": args.c2_max,
            "i_rd_bits": value,
            "argmax_c1_bits": float(table.c1_bits[k]),
            "argmax_c2_bits": float(table.c2_bits[k]),
            "boundary_optimal": verdict,
        }
    if penalized:
        value, k = table.best_penalized(cfg.lam1, cfg.lam2)
        payload["penalized"] = {
            "lambda1": cfg.lam1,
            "lambda2": cfg.lam2,
            "value_bits": value,
            "argmax_j_bits": float(table.j_bits[k]),
            "argmax_c1_bits": float(table.c1_bits[k]),
            "argmax_c2_bits": float(table.c2_bits[k]),
        }
    _write_json(payload, cfg.out, "oracle values")
    return EXIT_OK


@functools.cache
def _git_describe() -> str:
    """The checkout's `git describe`, or "unknown"; asked once per process.
    Only a work tree that tracks this file is described, not one that merely
    holds an untracked copy of the package (a venv inside a repository)."""
    here, name = os.path.split(os.path.abspath(__file__))
    try:
        for cmd in (["ls-files", "--error-unmatch", name], ["describe", "--always", "--dirty"]):
            out = subprocess.run(["git", *cmd], capture_output=True, text=True, timeout=10,
                                 cwd=here)
            if out.returncode != 0:
                return "unknown"
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_repro(figure_id: str, outdir: str = ".", seed: int = 0,
              workers: int | None = None) -> list:
    """Emit the CSV backing one of the three reference figures plus a manifest.

    fig3: Lagrangian trace of a single run (iteration, value).
    fig4: multiplier-sweep surface CSV over the 12x12 default grid.
    fig5: scalar-quantizer diagnostic pairs of that surface, swept anew.

    All figures use the BPSK setup with uplink SNRs 1.5 and 4.5 dB, unit
    noise, 128 output bins, and 32 quantizer levels.  Returns the list of
    files written.
    """
    if figure_id not in ("fig3", "fig4", "fig5"):
        raise ConfigError(f"unknown figure {figure_id!r}; choose fig3, fig4 or fig5")
    start = time.perf_counter()
    cfg = _resolve({}, {})
    params = {k: DEFAULTS[k] for k in ("snr1_db", "snr2_db", "num_bins", "span_sigmas",
                                      "levels", "eps", "max_iter")}
    params["seed"] = seed
    written = []

    def path(name):
        os.makedirs(outdir, exist_ok=True)
        return os.path.join(outdir, name)

    if figure_id == "fig3":
        # moderate multipliers keep the limit point interior, so the trace
        # shows a nontrivial convergence curve instead of a collapse to zero
        params.update({"lambda1": 0.1, "lambda2": 0.1})
        res = optimize(cfg.build_channel(), 0.1, 0.1, cfg.levels, eps=cfg.eps,
                       max_iter=cfg.max_iter, seed=seed)
        _write_trace_csv(res.lagrangian_trace, path("fig3_trace.csv"))
        written.append(path("fig3_trace.csv"))
        extra = _solver_telemetry(res)
    else:
        params.update({k: DEFAULTS[k] for k in ("lambda_min", "lambda_max",
                                                "lambda_count", "restarts")})
        surface = sweep_grid(cfg.build_channel(), cfg.levels, grid=cfg.lambda_grid(),
                             restarts=cfg.restarts, eps=cfg.eps, max_iter=cfg.max_iter,
                             seed=seed, workers=workers)
        surface_to_csv(surface, path("fig4_surface.csv"))
        written.append(path("fig4_surface.csv"))
        extra = {"surface_source": "computed", "sweep_warnings": list(surface.warnings)}
        if figure_id == "fig5":
            _write_csv(path("fig5_scalar.csv"), "h_scalar_bits,i_rd_bits",
                       scalar_diagnostic(surface), "fig5 diagnostic")
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
    written.append(path(f"{figure_id}_manifest.json"))
    _write_json(manifest, written[-1], "manifest")
    return written


def _cmd_repro(args) -> int:
    cfg = _config_from_args(args)
    written = run_repro(args.figure, outdir=args.outdir or ".", seed=cfg.seed,
                        workers=cfg.workers)
    for w in written:
        print(w)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Takes '-6.6e-05' as a negative number, not an option string (argparse's
    own matcher accepts only plain decimals such as '-0.5').  Subparsers inherit
    this class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


_COMMANDS = {
    "channel": (_cmd_channel, "build a channel and dump its description"),
    "optimize": (_cmd_optimize, "solve one multiplier pair"),
    "sweep": (_cmd_sweep, "sweep a multiplier grid into a surface CSV"),
    "sumrate": (_cmd_sumrate, "optimize time sharing over a swept surface"),
    "oracle": (_cmd_oracle, "brute-force reference values as JSON"),
    "repro": (_cmd_repro, "reproduce a reference figure's data"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qfrelay argument parser, built on the first call and shared by every
    later one; parse_args keeps no state on it between calls."""
    parser = _Parser(
        prog="qfrelay",
        description="Quantizer design and sum-rate evaluation for "
                    "Quantize-and-Forward two-way relaying",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = {name: sub.add_parser(name, help=text) for name, (_, text) in _COMMANDS.items()}
    for name in ("channel", "optimize", "sweep", "sumrate", "oracle"):
        p[name].add_argument("--config", help="JSON run-config file; flags override it")
    for param in PARAMS:
        for name in param.commands.split():
            p[name].add_argument(param.flag, dest=param.field, type=_TYPES.get(param.kind),
                                 choices=param.choices, help=param.help, metavar=None
                                 if param.choices else param.flag[2:].replace("-", "_").upper())

    p["sweep"].add_argument("--dump-q", dest="dump_q", action="store_true", default=None,
                            help="embed per-point quantizers in the JSON surface")
    p["sumrate"].add_argument("--surface", help="sweep output to query (.csv or .json)")
    p["sumrate"].add_argument("--alpha-curve", dest="alpha_curve",
                              help="write the alpha-grid objective CSV here")
    oracle = p["oracle"]
    oracle.add_argument("--fixture", action="store_true",
                        help="use the built-in 2x2x3 fixture channel")
    oracle.add_argument("--step", type=float, help="simplex grid step (default 0.05)")
    oracle.add_argument("--c1-max", type=float, dest="c1_max")
    oracle.add_argument("--c2-max", type=float, dest="c2_max")
    oracle.add_argument("--max-cells", type=int, dest="max_cells", default=DEFAULT_MAX_CELLS)

    repro = p["repro"]
    repro.add_argument("figure", choices=("fig3", "fig4", "fig5"))
    repro.add_argument("--outdir")

    return parser


# Exception type -> exit code.  No type here subclasses another, so at most
# one entry matches.
_EXIT_CODES = {
    ConfigError: EXIT_CONFIG,
    ValueError: EXIT_CONFIG,
    OSError: EXIT_CONFIG,
    OracleBudgetError: EXIT_BUDGET,
    FloatingPointError: EXIT_NUMERIC,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except tuple(_EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(e, kind))


if __name__ == "__main__":
    sys.exit(main())
