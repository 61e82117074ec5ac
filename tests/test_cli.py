import argparse
import ast
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qfrelay import (LambdaGrid, RateTable, cli, downlink_rate, fixture_channel,
                     scalar_diagnostic, surface_from_csv, surface_to_csv, sweep_grid,
                     yr_conditional_entropies)
from qfrelay.cli import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    ConfigError,
    _config_from_args,
    build_parser,
    main,
    parse_config,
    run_repro,
)
from qfrelay.sweep import _write_csv, _write_json

FIXTURE_W = [
    [[0.80, 0.15, 0.05], [0.10, 0.70, 0.20]],
    [[0.15, 0.70, 0.15], [0.05, 0.20, 0.75]],
]


@pytest.fixture()
def inline_cfg(tmp_path):
    """Run config carrying the tiny noisy-sum channel inline."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "channel": {
            "p_x1": [0.5, 0.5],
            "p_x2": [0.65, 0.35],
            "p_yr_given_x1x2": FIXTURE_W,
        },
        "quantizer": {"levels": 2},
    }))
    return str(path)


def test_exit_code_values():
    assert (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_BUDGET) == (0, 2, 3, 4)


def test_parse_config_minimal_fills_defaults(tmp_path):
    path = tmp_path / "min.json"
    path.write_text(json.dumps({"channel": {"snr1_db": 1.5, "snr2_db": 4.5}}))
    cfg = parse_config(str(path))
    assert cfg.num_bins == 128
    assert cfg.eps == 1e-8
    assert cfg.restarts == 4
    assert cfg.span_sigmas == 4.0
    assert cfg.levels == 32
    assert cfg.seed == 0


def test_parse_config_rejects_both_channel_sources(tmp_path):
    path = tmp_path / "both.json"
    path.write_text(json.dumps({"channel": {
        "snr1_db": 1.5, "snr2_db": 4.5,
        "p_x1": [0.5, 0.5], "p_x2": [0.5, 0.5],
        "p_yr_given_x1x2": FIXTURE_W,
    }}))
    with pytest.raises(ConfigError, match="exactly one channel source"):
        parse_config(str(path))


def test_parse_config_rejects_both_lambda_sources(tmp_path):
    path = tmp_path / "lam.json"
    path.write_text(json.dumps({
        "channel": {"snr1_db": 1.5, "snr2_db": 4.5},
        "solver": {"lambda1": 0.5, "lambda2": 0.5,
                   "lambda_grid": {"min": 0.1, "max": 1.0, "count": 3}},
    }))
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(str(path))


def test_parse_config_rejects_nonpositive_grid_min(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({
        "channel": {"snr1_db": 1.5, "snr2_db": 4.5},
        "solver": {"lambda_grid": {"min": 0.0, "max": 1.0, "count": 3}},
    }))
    with pytest.raises(ConfigError, match="> 0"):
        parse_config(str(path))


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({
        "channel": {"snr1_db": 1.5, "snr2_db": 4.5, "nmu_bins": 64},
    }))
    with pytest.raises(ConfigError, match="nmu_bins"):
        parse_config(str(path))


def test_parse_config_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        parse_config(str(path))


def test_parse_config_type_error_names_key(tmp_path):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({
        "channel": {"snr1_db": "loud", "snr2_db": 4.5},
    }))
    with pytest.raises(ConfigError, match="snr1_db"):
        parse_config(str(path))


def test_channel_subcommand_payload(inline_cfg, tmp_path):
    out = tmp_path / "channel.json"
    code = main(["channel", "--config", inline_cfg, "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["fingerprint"] == fixture_channel().fingerprint()
    assert payload["num_bins"] == 3
    assert payload["uplink_sum_rate_bound_bits"] == pytest.approx(
        0.6096975225075831, abs=1e-12)
    assert set(payload["entropies_bits"]) == {
        "h_yr", "h_yr_given_x1", "h_yr_given_x2", "h_yr_given_x1x2"}


def test_channel_defaults_to_bpsk_setup(capsys):
    # bare invocation falls back to the documented parametric defaults
    code = main(["channel"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["num_bins"] == 128


@pytest.mark.parametrize("command", [
    ["channel", "--snr1-db", "4000", "--snr2-db", "0", "--bins", "8"],
    ["sumrate", "--dl-snr1-db", "4000", "--dl-snr2-db", "0"]])
def test_overflowing_snr_is_config_error(tmp_path, capsys, command):
    """An SNR whose power 10**400 overflows a float is refused like a
    non-finite one."""
    if command[0] == "sumrate":
        surface = tmp_path / "surface.csv"
        surface_to_csv(sweep_grid(fixture_channel(), 2, grid=LambdaGrid.log_spaced(0.1, 1.0, 2),
                                  restarts=1), surface)
        command = command + ["--surface", str(surface)]
    code = main(command)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: SNR 4000.0 dB")


def test_channel_flag_conflicts_with_inline_config(inline_cfg, capsys):
    code = main(["channel", "--config", inline_cfg, "--snr1-db", "1.5"])
    assert code == EXIT_CONFIG
    assert "channel source" in capsys.readouterr().err


def test_optimize_subcommand_full_outputs(inline_cfg, tmp_path):
    out = tmp_path / "opt.json"
    trace = tmp_path / "trace.csv"
    qdump = tmp_path / "q.json"
    code = main([
        "optimize", "--config", inline_cfg, "--lambda1", "0.2",
        "--lambda2", "0.2", "--out", str(out), "--trace", str(trace),
        "--dump-q", str(qdump),
    ])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["converged"] is True
    assert payload["i_rd_bits"] == pytest.approx(
        payload["r1_bits"] + payload["r2_bits"], abs=1e-12)
    assert payload["lagrangian_bits"] == pytest.approx(
        payload["i_rd_bits"] - 0.2 * payload["c1_bits"] - 0.2 * payload["c2_bits"],
        abs=1e-12)

    lines = trace.read_text().splitlines()
    assert lines[0] == "iteration,lagrangian_bits"
    vals = [float(r.split(",")[1]) for r in lines[1:]]
    assert len(vals) == payload["iterations"] + 1
    assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))
    assert 0 <= payload["extrapolations_accepted"] <= payload["extrapolations_tried"]
    assert 0 <= payload["gap_estimate_bits"] < 1e-8 * (1 + abs(payload["lagrangian_bits"]))

    q = np.array(json.loads(qdump.read_text())["q"])
    assert q.shape == (2, 3)
    assert np.allclose(q.sum(axis=0), 1.0, atol=1e-12)


def test_optimize_requires_both_lambdas(inline_cfg, capsys):
    code = main(["optimize", "--config", inline_cfg, "--lambda1", "0.2"])
    assert code == EXIT_CONFIG
    assert "lambda" in capsys.readouterr().err


def test_sweep_subcommand_csv_and_json(inline_cfg, tmp_path):
    out = tmp_path / "surface.csv"
    jout = tmp_path / "surface.json"
    code = main([
        "sweep", "--config", inline_cfg, "--lambda-min", "0.1",
        "--lambda-max", "1.0", "--lambda-count", "2", "--restarts", "2",
        "--out", str(out), "--json-out", str(jout),
    ])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == ("lambda1,lambda2,c1_bits,c2_bits,i_rd_bits,"
                        "h_scalar_bits,iterations,converged,seed")
    assert len(lines) == 1 + 4
    meta = json.loads(jout.read_text())
    assert meta["channel_fingerprint"] == fixture_channel().fingerprint()
    assert meta["num_levels"] == 2
    # sumrate reads either file, a .JSON suffix as JSON too
    upper = tmp_path / "S.JSON"
    upper.write_bytes(jout.read_bytes())
    payloads = []
    for surface in (out, jout, upper):
        rate = tmp_path / "sumrate.json"
        assert main(["sumrate", "--surface", str(surface), "--i1-bits", "0.4",
                     "--i2-bits", "0.6", "--out", str(rate)]) == EXIT_OK
        payloads.append(rate.read_text())
    assert payloads[0] == payloads[1] == payloads[2]


def test_sumrate_subcommand_payload(inline_cfg, tmp_path):
    surface = tmp_path / "surface.csv"
    main(["sweep", "--config", inline_cfg, "--lambda-min", "0.05",
          "--lambda-max", "5.0", "--lambda-count", "4", "--restarts", "2",
          "--out", str(surface)])
    out = tmp_path / "sumrate.json"
    curve = tmp_path / "curve.csv"
    code = main(["sumrate", "--surface", str(surface), "--i1-bits", "0.4",
                 "--i2-bits", "0.6", "--out", str(out),
                 "--alpha-curve", str(curve)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert 0 < payload["alpha_star"] < 1
    assert payload["sum_rate_bits"] == pytest.approx(
        payload["alpha_star"] * payload["i_rd_at_star_bits"], abs=1e-12)
    assert "unimodality" not in payload
    lines = curve.read_text().splitlines()
    assert lines[0] == "alpha,sum_rate_bits"
    assert len(lines) == 1 + 1000


def test_sumrate_downlink_snr_form(inline_cfg, tmp_path, capsys):
    surface = tmp_path / "surface.csv"
    main(["sweep", "--config", inline_cfg, "--lambda-min", "0.1",
          "--lambda-max", "1.0", "--lambda-count", "2", "--restarts", "2",
          "--out", str(surface)])
    code = main(["sumrate", "--surface", str(surface),
                 "--dl-snr1-db", "0.0", "--dl-snr2-db", "0.0"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["i1_bits"] == pytest.approx(0.5, abs=1e-12)


def test_sumrate_accepts_negative_scientific_notation(inline_cfg, tmp_path, capsys):
    surface = tmp_path / "surface.csv"
    main(["sweep", "--config", inline_cfg, "--lambda-min", "0.1",
          "--lambda-max", "1.0", "--lambda-count", "2", "--restarts", "2",
          "--out", str(surface)])
    code = main(["sumrate", "--surface", str(surface),
                 "--dl-snr1-db", "-6.6e-05", "--dl-snr2-db", "-1E-3"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["i1_bits"] == downlink_rate(-6.6e-05)
    assert payload["i2_bits"] == downlink_rate(-1e-3)


def test_sumrate_rejects_mixed_capacity_sources(inline_cfg, tmp_path, capsys):
    surface = tmp_path / "surface.csv"
    main(["sweep", "--config", inline_cfg, "--lambda-min", "0.1",
          "--lambda-max", "1.0", "--lambda-count", "2", "--restarts", "2",
          "--out", str(surface)])
    code = main(["sumrate", "--surface", str(surface), "--i1-bits", "0.4",
                 "--i2-bits", "0.6", "--dl-snr1-db", "0.0",
                 "--dl-snr2-db", "0.0"])
    assert code == EXIT_CONFIG
    assert "not both" in capsys.readouterr().err


def test_reused_parser_keeps_no_state_between_calls(inline_cfg, tmp_path):
    """main parses with one parser per process.  Each call sees only its own
    flags and config: a leftover capacity pair, from a flag or from the
    config file, would make the next request's downlink SNRs a second
    capacity source and exit 2."""
    assert build_parser() is build_parser()
    surface = tmp_path / "surface.csv"
    main(["sweep", "--config", inline_cfg, "--lambda-min", "0.1", "--lambda-max", "1.0",
          "--lambda-count", "2", "--restarts", "1", "--out", str(surface)])
    capacities = tmp_path / "capacities.json"
    capacities.write_text(json.dumps({"sumrate": {"i1_bits": 0.4, "i2_bits": 0.6}}))
    out = tmp_path / "sumrate.json"
    snr_request = ["sumrate", "--surface", str(surface), "--dl-snr1-db", "0.0",
                   "--dl-snr2-db", "0.0", "--out", str(out)]
    for first in (["--i1-bits", "0.4", "--i2-bits", "0.6"], ["--config", str(capacities)]):
        assert main(["sumrate", "--surface", str(surface), *first, "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["i1_bits"] == 0.4
        assert main(snr_request) == EXIT_OK
        assert json.loads(out.read_text())["i1_bits"] == downlink_rate(0.0)
    with pytest.raises(SystemExit) as usage_error:
        main(["sumrate", "--surface", str(surface), "--i1-bits"])
    assert usage_error.value.code == EXIT_CONFIG
    assert main(snr_request) == EXIT_OK
    assert json.loads(out.read_text())["i2_bits"] == downlink_rate(0.0)


POINT = {"lambda1": 0.1, "lambda2": 0.1, "c1_bits": 0.1, "c2_bits": 0.1,
         "i_rd_bits": 0.3, "h_scalar_bits": 0.0, "iterations": 1,
         "converged": True, "seed": 0}


@pytest.mark.parametrize("content", [
    {"channel_fingerprint": "x"},
    [1, 2],
    {"points": [{"lambda1": 0.1, "lambda2": 0.1, "c2_bits": 0.2}]},
    {"points": [POINT, dict(POINT, c1_bits=float("nan"))]},
    {"points": [POINT, dict(POINT, c1_bits=-0.5)]},
    {"points": [POINT], "warnings": 5},
    {"points": [POINT], "num_levels": "x"},
])
def test_sumrate_malformed_json_surface_is_config_error(tmp_path, capsys, content):
    surface = tmp_path / "surface.json"
    surface.write_text(json.dumps(content))
    code = main(["sumrate", "--surface", str(surface), "--i1-bits", "0.5",
                 "--i2-bits", "0.5"])
    assert code == EXIT_CONFIG
    assert str(surface) in capsys.readouterr().err


@pytest.mark.parametrize("c1_bits", ["nan", "-0.5"])
def test_sumrate_impossible_csv_row_is_config_error(tmp_path, capsys, c1_bits):
    surface = tmp_path / "surface.csv"
    surface.write_text("lambda1,lambda2,c1_bits,c2_bits,i_rd_bits,h_scalar_bits,"
                       "iterations,converged,seed\n"
                       "0.1,0.1,0.1,0.1,0.3,0.0,1,true,0\n"
                       f"0.2,0.2,{c1_bits},0.1,0.5,0.0,1,true,0\n")
    code = main(["sumrate", "--surface", str(surface), "--i1-bits", "0.5",
                 "--i2-bits", "0.5"])
    assert code == EXIT_CONFIG
    assert f"{surface}: row 1" in capsys.readouterr().err


def test_sumrate_nan_capacity_is_config_error(tmp_path, capsys):
    surface = tmp_path / "surface.json"
    surface.write_text(json.dumps({"points": [{
        "lambda1": 0.1, "lambda2": 0.1, "c1_bits": 0.1, "c2_bits": 0.1,
        "i_rd_bits": 0.3, "h_scalar_bits": 0.0, "iterations": 1,
        "converged": True, "seed": 0}]}))
    code = main(["sumrate", "--surface", str(surface), "--i1-bits", "nan",
                 "--i2-bits", "0.5"])
    assert code == EXIT_CONFIG
    assert "--i1-bits must be finite" in capsys.readouterr().err


def test_oracle_subcommand_fixture(tmp_path):
    out = tmp_path / "oracle.json"
    code = main(["oracle", "--fixture", "--step", "0.1", "--c1-max", "0.5",
                 "--c2-max", "0.5", "--lambda1", "0.3", "--lambda2", "0.3",
                 "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["num_candidates"] == 11 ** 3
    assert payload["unconstrained_max_j_bits"] <= payload["uplink_sum_rate_bound_bits"] + 1e-9
    assert payload["constrained"]["i_rd_bits"] <= payload["unconstrained_max_j_bits"] + 1e-12
    assert payload["constrained"]["boundary_optimal"] is True
    assert payload["penalized"]["value_bits"] == pytest.approx(
        payload["penalized"]["argmax_j_bits"]
        - 0.3 * payload["penalized"]["argmax_c1_bits"]
        - 0.3 * payload["penalized"]["argmax_c2_bits"], abs=1e-12)


@pytest.mark.parametrize("c1_max, c2_max", [
    (5.0, 5.0), (5.0, 0.3), (0.3, yr_conditional_entropies(fixture_channel())["h_yr_given_x2"]),
], ids=["both-slack", "c1-slack", "c2-at-entropy"])
def test_oracle_answers_slack_targets_without_a_boundary_verdict(tmp_path, c1_max, c2_max):
    """A target at or above its H(Yr|X) cannot bind: the constrained answer
    is still given, with boundary_optimal null, and the run exits 0."""
    out = tmp_path / "oracle.json"
    code = main(["oracle", "--fixture", "--step", "0.1", "--levels", "3",
                 "--c1-max", repr(c1_max), "--c2-max", repr(c2_max), "--out", str(out)])
    assert code == EXIT_OK
    constrained = json.loads(out.read_text())["constrained"]
    assert constrained["boundary_optimal"] is None
    table = RateTable(fixture_channel(), 3, 0.1)
    assert constrained["i_rd_bits"] == table.best_constrained(c1_max, c2_max)[0]


def test_oracle_requires_channel(capsys):
    code = main(["oracle", "--step", "0.5"])
    assert code == EXIT_CONFIG
    assert "fixture" in capsys.readouterr().err


def test_oracle_rejects_half_constrained(capsys):
    code = main(["oracle", "--fixture", "--step", "0.5", "--c1-max", "0.5"])
    assert code == EXIT_CONFIG
    assert "--c2-max" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--c1-max", "0.5"], ["--lambda2", "0.5"]])
def test_oracle_checks_pairs_before_building_the_table(flags, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("RateTable built before the flag pairs were checked")

    monkeypatch.setattr(cli, "RateTable", refuse)
    assert main(["oracle", "--fixture", "--step", "0.02", *flags]) == EXIT_CONFIG
    assert "give both" in capsys.readouterr().err


def test_oracle_rejects_negative_target(capsys):
    code = main(["oracle", "--fixture", "--step", "0.5", "--c1-max", "-0.5",
                 "--c2-max", "0.5"])
    assert code == EXIT_CONFIG
    assert "nonnegative" in capsys.readouterr().err


def test_oracle_rejects_step_that_does_not_divide_one(capsys):
    code = main(["oracle", "--fixture", "--step", "0.3", "--levels", "2"])
    assert code == EXIT_CONFIG
    assert "0.3" in capsys.readouterr().err


def test_oracle_budget_exit_code(capsys):
    code = main(["oracle", "--fixture", "--step", "0.01", "--levels", "4",
                 "--max-cells", "1000"])
    assert code == EXIT_BUDGET
    assert "budget" in capsys.readouterr().err


def test_repro_fig3_outputs_and_manifest(tmp_path):
    files = run_repro("fig3", outdir=str(tmp_path), seed=0)
    trace = tmp_path / "fig3_trace.csv"
    manifest = tmp_path / "fig3_manifest.json"
    assert str(trace) in files and str(manifest) in files
    lines = trace.read_text().splitlines()
    assert lines[0] == "iteration,lagrangian_bits"
    vals = [float(r.split(",")[1]) for r in lines[1:]]
    assert len(vals) > 10
    assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))
    meta = json.loads(manifest.read_text())
    assert meta["figure"] == "fig3"
    assert meta["parameters"]["levels"] == 32
    assert meta["parameters"]["snr1_db"] == 1.5
    assert "git_describe" in meta and "wall_time_s" in meta
    assert "fig3_trace.csv" in meta["files"]
    extra = meta["extra"]
    assert extra["converged"] is True
    # the trace holds every evaluation but the rejected extrapolations
    assert len(vals) - 1 == extra["iterations"] - (
        extra["extrapolations_tried"] - extra["extrapolations_accepted"])
    assert extra["extrapolations_accepted"] > 0
    assert 0 <= extra["gap_estimate_bits"] < 1e-8 * (1 + abs(vals[-1]))


def test_repro_fig3_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_repro("fig3", outdir=str(a), seed=0)
    run_repro("fig3", outdir=str(b), seed=0)
    assert (a / "fig3_trace.csv").read_bytes() == (b / "fig3_trace.csv").read_bytes()


def test_repro_rejects_unknown_figure(capsys):
    with pytest.raises(SystemExit):
        main(["repro", "fig9"])
    assert "fig9" in capsys.readouterr().err


def test_oracle_takes_levels_and_multipliers_from_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "channel": {"p_x1": [0.5, 0.5], "p_x2": [0.65, 0.35],
                    "p_yr_given_x1x2": FIXTURE_W},
        "quantizer": {"levels": 3},
        "solver": {"lambda1": 0.3, "lambda2": 0.2},
    }))
    out = tmp_path / "oracle.json"
    code = main(["oracle", "--config", str(path), "--step", "0.25", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["levels"] == 3
    assert payload["num_candidates"] == math.comb(6, 2) ** 3
    penalized = payload["penalized"]
    assert (penalized["lambda1"], penalized["lambda2"]) == (0.3, 0.2)
    assert penalized["value_bits"] == pytest.approx(
        penalized["argmax_j_bits"] - 0.3 * penalized["argmax_c1_bits"]
        - 0.2 * penalized["argmax_c2_bits"], abs=1e-12)


def _dump_q_config(tmp_path, dump_q, solver=None) -> str:
    """A fixture-channel run config, on a 2x2 grid unless `solver` is given,
    with output.dump_q set."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "channel": {"p_x1": [0.5, 0.5], "p_x2": [0.65, 0.35],
                    "p_yr_given_x1x2": FIXTURE_W},
        "quantizer": {"levels": 2, "restarts": 1},
        "solver": solver or {"lambda_grid": {"min": 0.1, "max": 1.0, "count": 2}},
        "output": {"out": str(tmp_path / "surface.csv"),
                   "json_out": str(tmp_path / "surface.json"), "dump_q": dump_q},
    }))
    return str(path)


def test_sweep_takes_dump_q_from_config(tmp_path):
    for dump_q in ("yes", True):
        run_dir = tmp_path / str(dump_q)
        run_dir.mkdir()
        assert main(["sweep", "--config", _dump_q_config(run_dir, dump_q)]) == EXIT_OK
        points = json.loads((run_dir / "surface.json").read_text())["points"]
        assert len(points) == 4
        for point in points:
            q = np.array(point["q"])
            assert q.shape == (2, 3)
            assert np.allclose(q.sum(axis=0), 1.0, atol=1e-12)


def test_sweep_boolean_false_dump_q_embeds_nothing(tmp_path):
    assert main(["sweep", "--config", _dump_q_config(tmp_path, False)]) == EXIT_OK
    points = json.loads((tmp_path / "surface.json").read_text())["points"]
    assert len(points) == 4 and all("q" not in point for point in points)


@pytest.mark.parametrize("dump_q", [True, False])
def test_optimize_boolean_dump_q_is_config_error(tmp_path, capsys, dump_q):
    solver = {"lambda1": 0.2, "lambda2": 0.2}
    code = main(["optimize", "--config", _dump_q_config(tmp_path, dump_q, solver)])
    assert code == EXIT_CONFIG
    assert "'output.dump_q' must be a path" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--eps", "nan"), ("--eps", "inf"), ("--eps", "-inf"), ("--lambda-max", "inf")])
def test_nonfinite_flag_is_config_error(inline_cfg, capsys, flag, value):
    code = main(["sweep", "--config", inline_cfg, f"{flag}={value}"])
    assert code == EXIT_CONFIG
    assert f"{flag} must be finite" in capsys.readouterr().err


def test_nonfinite_config_value_is_config_error(tmp_path):
    path = tmp_path / "run.json"
    path.write_text('{"solver": {"eps": NaN}}')
    with pytest.raises(ConfigError, match="'solver.eps' must be finite"):
        parse_config(str(path))


def test_config_integer_beyond_float_range_is_config_error(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"channel": {"snr1_db": 10 ** 400, "snr2_db": 0.0}}))
    assert main(["channel", "--config", str(path)]) == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: config key 'channel.snr1_db' must be finite")


@pytest.mark.parametrize("content", [b"{not json", b'{"channel": "\xff"}',
                                     b'{"channel": ' + b"9" * 5000 + b"}"],
                         ids=["invalid-json", "not-utf8", "5000-digit-integer"])
@pytest.mark.parametrize("command", [["channel", "--config"],
                                     ["sumrate", "--i1-bits", "1", "--i2-bits", "1", "--surface"]],
                         ids=["config", "surface"])
def test_unreadable_json_file_is_config_error_naming_it(tmp_path, capsys, command, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    assert main(command + [str(path)]) == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {path}: not valid JSON (")


def test_undecodable_csv_surface_is_config_error_naming_it(tmp_path, capsys):
    path = tmp_path / "surface.csv"
    path.write_bytes(b"lambda1,lambda2,c1_bits,c2_bits,i_rd_bits,h_scalar_bits,"
                     b"iterations,converged,seed\n0.1,0.1,0.1,0.1,0.3,0.0,1,true,\xff\n")
    command = ["sumrate", "--i1-bits", "1", "--i2-bits", "1", "--surface", str(path)]
    assert main(command) == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {path}: not valid UTF-8 (")


def test_solver_overflow_is_numeric_error(inline_cfg, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["optimize", "--config", inline_cfg, "--lambda1", "1e-308",
                     "--lambda2", "1e-308", "--levels", "2", "--restarts", "1"])
    assert code == EXIT_NUMERIC
    assert "non-finite entry at (0, 2)" in capsys.readouterr().err
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("command", [
    ["optimize", "--bins", "16", "--levels", "4", "--lambda1", "1e308", "--lambda2", "1e308"],
    ["oracle", "--fixture", "--step", "0.5", "--lambda1", "1e308", "--lambda2", "1e308"],
], ids=["optimize", "oracle"])
def test_huge_multipliers_run_quietly(command, capsys):
    """Multipliers near the largest float overflow the solver's lam1 + lam2
    and the oracle's penalties to inf, which the answers allow: both runs
    succeed with no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(command) == EXIT_OK
    assert [str(w.message) for w in caught] == []


def test_writers_refuse_nonfinite_output(tmp_path):
    out = tmp_path / "out.json"
    with pytest.raises(FloatingPointError, match="non-finite value in payload"):
        _write_json({"ok": [1.0], "bad": {"x": math.nan}}, str(out), "payload")
    with pytest.raises(FloatingPointError, match="non-finite value in rows"):
        _write_csv(str(tmp_path / "out.csv"), "a,b", [(0, 1.0), (1, math.nan)], "rows")
    assert list(tmp_path.iterdir()) == []


def test_repro_writes_manifest_when_git_hangs(tmp_path, monkeypatch):
    def hang(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

    cli._git_describe.cache_clear()
    monkeypatch.setattr(subprocess, "run", hang)
    try:
        run_repro("fig3", outdir=str(tmp_path), seed=0)
    finally:
        cli._git_describe.cache_clear()
    meta = json.loads((tmp_path / "fig3_manifest.json").read_text())
    assert meta["git_describe"] == "unknown"


def test_repro_fig5_sweeps_despite_existing_surface(fx, tmp_path, monkeypatch):
    """A surface CSV records no channel, level count or seed, so fig5 sweeps
    anew even where one lies in outdir, and its pairs come from that sweep."""
    surface_csv = tmp_path / "fig4_surface.csv"
    foreign = sweep_grid(fx, 2, grid=LambdaGrid.log_spaced(0.05, 2.0, 3), restarts=1, seed=0)
    surface_to_csv(foreign, surface_csv)
    swept = []

    def small_sweep(ch, levels, grid=None, **kwargs):
        kwargs.update(restarts=1, workers=None)
        swept.append(sweep_grid(fx, 2, grid=LambdaGrid.log_spaced(0.1, 1.0, 2), **kwargs))
        return swept[-1]

    monkeypatch.setattr(cli, "sweep_grid", small_sweep)
    files = run_repro("fig5", outdir=str(tmp_path), seed=0)
    assert len(swept) == 1
    assert files == [str(surface_csv), str(tmp_path / "fig5_scalar.csv"),
                     str(tmp_path / "fig5_manifest.json")]
    assert len(surface_from_csv(surface_csv).points) == len(swept[0].points) == 4
    meta = json.loads((tmp_path / "fig5_manifest.json").read_text())
    assert meta["extra"]["surface_source"] == "computed"
    rows = (tmp_path / "fig5_scalar.csv").read_text().splitlines()
    assert rows[0] == "h_scalar_bits,i_rd_bits"
    pairs = [tuple(map(float, r.split(","))) for r in rows[1:]]
    assert pairs == scalar_diagnostic(swept[0])
    assert pairs != scalar_diagnostic(foreign)


def test_repro_subcommand_prints_written_paths(tmp_path, capsys):
    code = main(["repro", "fig3", "--outdir", str(tmp_path), "--seed", "0"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        str(tmp_path / "fig3_trace.csv"), str(tmp_path / "fig3_manifest.json")]


# Every subcommand's options: (type, default, choices, nargs) per option
# string, or per dest for a positional.
CLI_SURFACE = {
    "channel": {
        "--config": (None, None, None, None),
        "--snr1-db": ("float", None, None, None),
        "--snr2-db": ("float", None, None, None),
        "--bins": ("int", None, None, None),
        "--span-sigmas": ("float", None, None, None),
        "--out": (None, None, None, None),
    },
    "optimize": {
        "--config": (None, None, None, None),
        "--snr1-db": ("float", None, None, None),
        "--snr2-db": ("float", None, None, None),
        "--bins": ("int", None, None, None),
        "--span-sigmas": ("float", None, None, None),
        "--levels": ("int", None, None, None),
        "--init": (None, None, ("perturbed-uniform", "random", "identity"), None),
        "--restarts": ("int", None, None, None),
        "--seed": ("int", None, None, None),
        "--eps": ("float", None, None, None),
        "--max-iter": ("int", None, None, None),
        "--lambda1": ("float", None, None, None),
        "--lambda2": ("float", None, None, None),
        "--trace": (None, None, None, None),
        "--dump-q": (None, None, None, None),
        "--out": (None, None, None, None),
    },
    "sweep": {
        "--config": (None, None, None, None),
        "--snr1-db": ("float", None, None, None),
        "--snr2-db": ("float", None, None, None),
        "--bins": ("int", None, None, None),
        "--span-sigmas": ("float", None, None, None),
        "--levels": ("int", None, None, None),
        "--init": (None, None, ("perturbed-uniform", "random", "identity"), None),
        "--restarts": ("int", None, None, None),
        "--seed": ("int", None, None, None),
        "--eps": ("float", None, None, None),
        "--max-iter": ("int", None, None, None),
        "--lambda-min": ("float", None, None, None),
        "--lambda-max": ("float", None, None, None),
        "--lambda-count": ("int", None, None, None),
        "--workers": ("int", None, None, None),
        "--out": (None, None, None, None),
        "--json-out": (None, None, None, None),
        "--dump-q": (None, None, None, 0),
    },
    "sumrate": {
        "--config": (None, None, None, None),
        "--surface": (None, None, None, None),
        "--i1-bits": ("float", None, None, None),
        "--i2-bits": ("float", None, None, None),
        "--dl-snr1-db": ("float", None, None, None),
        "--dl-snr2-db": ("float", None, None, None),
        "--alpha-curve": (None, None, None, None),
        "--out": (None, None, None, None),
    },
    "oracle": {
        "--config": (None, None, None, None),
        "--fixture": (None, False, None, 0),
        "--step": ("float", None, None, None),
        "--levels": ("int", None, None, None),
        "--c1-max": ("float", None, None, None),
        "--c2-max": ("float", None, None, None),
        "--lambda1": ("float", None, None, None),
        "--lambda2": ("float", None, None, None),
        "--max-cells": ("int", 2_000_000, None, None),
        "--out": (None, None, None, None),
    },
    "repro": {
        "figure": (None, None, ("fig3", "fig4", "fig5"), None),
        "--outdir": (None, None, None, None),
        "--seed": ("int", None, None, None),
        "--workers": ("int", None, None, None),
    },
}

CONFIG_KEYS = {
    "channel.snr1_db", "channel.snr2_db", "channel.num_bins",
    "channel.span_sigmas", "channel.p_x1", "channel.p_x2",
    "channel.p_yr_given_x1x2",
    "quantizer.levels", "quantizer.init", "quantizer.restarts", "quantizer.seed",
    "solver.lambda1", "solver.lambda2", "solver.lambda_grid",
    "solver.lambda_grid.min", "solver.lambda_grid.max", "solver.lambda_grid.count",
    "solver.eps", "solver.max_iter",
    "sumrate.i1_bits", "sumrate.i2_bits", "sumrate.dl_snr1_db", "sumrate.dl_snr2_db",
    "output.out", "output.json_out", "output.trace", "output.dump_q",
    "output.workers",
}


def test_cli_surface_is_pinned():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {}
    for name, p in sub.choices.items():
        surface[name] = {
            "/".join(a.option_strings) or a.dest: (
                getattr(a.type, "__name__", None), a.default,
                None if a.choices is None else tuple(a.choices), a.nargs)
            for a in p._actions if not isinstance(a, argparse._HelpAction)
        }
    assert surface == CLI_SURFACE


def _listed_keys(tmp_path, content) -> list:
    """The keys a config error lists as expected, for a probe with one unknown key."""
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(content))
    with pytest.raises(ConfigError, match="expected one of") as e:
        parse_config(str(path))
    return ast.literal_eval(str(e.value).split("expected one of ", 1)[1])


def test_config_keys_are_pinned(tmp_path):
    keys = set()
    for section in _listed_keys(tmp_path, {"zz_unknown": {}}):
        keys.update(f"{section}.{key}"
                    for key in _listed_keys(tmp_path, {section: {"zz_unknown": 0}}))
    grid = _listed_keys(tmp_path, {"solver": {"lambda_grid": {"zz_unknown": 0}}})
    keys.update(f"solver.lambda_grid.{key}" for key in grid)
    assert keys == CONFIG_KEYS


# (subcommand, flag argv, config key, RunConfig field, file value, flag value)
FLAG_OVERRIDES = [
    (cmd, flag, "channel." + key, field, file_v, flag_v)
    for cmd in ("channel", "optimize", "sweep")
    for flag, key, field, file_v, flag_v in [
        (["--snr1-db", "2.5"], "snr1_db", "snr1_db", 0.5, 2.5),
        (["--snr2-db", "2.5"], "snr2_db", "snr2_db", 0.5, 2.5),
        (["--bins", "16"], "num_bins", "num_bins", 8, 16),
        (["--span-sigmas", "3.5"], "span_sigmas", "span_sigmas", 2.5, 3.5),
    ]
] + [
    (cmd, flag, key, field, file_v, flag_v)
    for cmd in ("optimize", "sweep")
    for flag, key, field, file_v, flag_v in [
        (["--levels", "5"], "quantizer.levels", "levels", 3, 5),
        (["--init", "identity"], "quantizer.init", "init", "random", "identity"),
        (["--restarts", "7"], "quantizer.restarts", "restarts", 2, 7),
        (["--seed", "11"], "quantizer.seed", "seed", 3, 11),
        (["--eps", "1e-06"], "solver.eps", "eps", 1e-4, 1e-6),
        (["--max-iter", "77"], "solver.max_iter", "max_iter", 55, 77),
    ]
] + [
    (cmd, flag, key, field, file_v, flag_v)
    for cmd in ("optimize", "oracle")
    for flag, key, field, file_v, flag_v in [
        (["--lambda1", "0.25"], "solver.lambda1", "lam1", 0.5, 0.25),
        (["--lambda2", "0.25"], "solver.lambda2", "lam2", 0.5, 0.25),
    ]
] + [
    ("oracle", ["--levels", "3"], "quantizer.levels", "levels", 4, 3),
    ("sweep", ["--lambda-min", "0.25"], "solver.lambda_grid.min", "lambda_min", 0.5, 0.25),
    ("sweep", ["--lambda-max", "4.5"], "solver.lambda_grid.max", "lambda_max", 2.5, 4.5),
    ("sweep", ["--lambda-count", "5"], "solver.lambda_grid.count", "lambda_count", 3, 5),
    ("sweep", ["--workers", "3"], "output.workers", "workers", 2, 3),
    ("sweep", ["--json-out", "b.json"], "output.json_out", "json_out", "a.json", "b.json"),
    ("sweep", ["--dump-q"], "output.dump_q", "dump_q", "a.json", True),
    ("optimize", ["--dump-q", "b.json"], "output.dump_q", "dump_q", "a.json", "b.json"),
    ("optimize", ["--trace", "b.csv"], "output.trace", "trace", "a.csv", "b.csv"),
    ("sumrate", ["--i1-bits", "0.75"], "sumrate.i1_bits", "i1_bits", 0.25, 0.75),
    ("sumrate", ["--i2-bits", "0.75"], "sumrate.i2_bits", "i2_bits", 0.25, 0.75),
    ("sumrate", ["--dl-snr1-db", "3.5"], "sumrate.dl_snr1_db", "dl_snr1_db", 1.5, 3.5),
    ("sumrate", ["--dl-snr2-db", "3.5"], "sumrate.dl_snr2_db", "dl_snr2_db", 1.5, 3.5),
] + [
    (cmd, ["--out", "b.json"], "output.out", "out", "a.json", "b.json")
    for cmd in ("channel", "optimize", "sweep", "sumrate", "oracle")
]


@pytest.mark.parametrize("cmd, flag, key, field, file_value, flag_value", FLAG_OVERRIDES)
def test_flag_and_file_set_the_same_field_and_the_flag_wins(
        tmp_path, cmd, flag, key, field, file_value, flag_value):
    config = file_value
    for part in reversed(key.split(".")):
        config = {part: config}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert getattr(parse_config(str(path)), field) == file_value
    args = build_parser().parse_args([cmd, "--config", str(path), *flag])
    assert getattr(_config_from_args(args), field) == flag_value


def test_import_loads_neither_scipy_nor_multiprocessing():
    # scipy is a test dependency only, and a serial run never starts a pool.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = ("import sys, qfrelay, qfrelay.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('scipy', 'concurrent', 'multiprocessing')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
