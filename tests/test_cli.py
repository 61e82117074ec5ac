import json

import numpy as np
import pytest

from qfrelay import downlink_rate, fixture_channel
from qfrelay.cli import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    ConfigError,
    main,
    parse_config,
    run_repro,
)

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
    assert payload["unimodality"]["num_alphas"] == 100
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


@pytest.mark.parametrize("content", [
    {"channel_fingerprint": "x"},
    [1, 2],
    {"points": [{"lambda1": 0.1, "lambda2": 0.1, "c2_bits": 0.2}]},
])
def test_sumrate_malformed_json_surface_is_config_error(tmp_path, capsys, content):
    surface = tmp_path / "surface.json"
    surface.write_text(json.dumps(content))
    code = main(["sumrate", "--surface", str(surface), "--i1-bits", "0.5",
                 "--i2-bits", "0.5"])
    assert code == EXIT_CONFIG
    assert str(surface) in capsys.readouterr().err


def test_sumrate_nan_capacity_is_config_error(tmp_path, capsys):
    surface = tmp_path / "surface.json"
    surface.write_text(json.dumps({"points": [{
        "lambda1": 0.1, "lambda2": 0.1, "c1_bits": 0.1, "c2_bits": 0.1,
        "i_rd_bits": 0.3, "h_scalar_bits": 0.0, "iterations": 1,
        "converged": True, "seed": 0}]}))
    code = main(["sumrate", "--surface", str(surface), "--i1-bits", "nan",
                 "--i2-bits", "0.5"])
    assert code == EXIT_CONFIG
    assert "finite and nonnegative" in capsys.readouterr().err


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


def test_oracle_requires_channel(capsys):
    code = main(["oracle", "--step", "0.5"])
    assert code == EXIT_CONFIG
    assert "fixture" in capsys.readouterr().err


def test_oracle_rejects_half_constrained(capsys):
    code = main(["oracle", "--fixture", "--step", "0.5", "--c1-max", "0.5"])
    assert code == EXIT_CONFIG
    assert "--c2-max" in capsys.readouterr().err


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
