"""Input checks that no other test reaches: each bad input is refused with
its own exception type and message, and each CLI case exits 2 naming it."""
import json
import re

import numpy as np
import pytest

from qfrelay import (ChannelModel, LambdaGrid, QuantizerPmf, RateTable, Surface,
                     from_pmfs, induced_posteriors, lagrangian, optimize, optimize_alpha,
                     optimize_restarts, sweep_grid)
from qfrelay.cli import EXIT_CONFIG, ConfigError, main, run_repro
from qfrelay.sweep import CSV_HEADER

W = np.full((2, 2, 3), 1 / 3)
GOOD_CHANNEL = dict(x1_alphabet=[0.0, 1.0], x2_alphabet=[0.0, 1.0], p_x1=[0.5, 0.5],
                    p_x2=[0.5, 0.5], p_yr_given_x1x2=W, bin_centers=[0.0, 1.0, 2.0])


def _channel(**changes):
    return ChannelModel(**dict(GOOD_CHANNEL, **changes))


LIBRARY_REFUSALS = [
    ("channel-alphabet-2d", lambda fx: _channel(x1_alphabet=[[0.0, 1.0]]),
     "alphabets must be 1-D"),
    ("channel-prior-shape", lambda fx: _channel(p_x1=[0.25, 0.25, 0.5]),
     "prior shapes must match alphabet shapes"),
    ("channel-law-shape", lambda fx: _channel(p_yr_given_x1x2=W[:, :1]),
     "conditional pmf must have shape (2, 2, |Yr|), got (2, 1, 3)"),
    ("channel-bin-centers", lambda fx: _channel(bin_centers=[0.0, 1.0]),
     "bin_centers length must equal |Yr|"),
    ("channel-nonfinite", lambda fx: _channel(p_x2=[np.nan, 1.0]),
     "p_x2 contains non-finite entries"),
    ("from-pmfs-2d-law", lambda fx: from_pmfs([0.5, 0.5], [0.5, 0.5], W[0]),
     "p_yr_given_x1x2 must be a 3-D array"),
    ("quantizer-1d", lambda fx: QuantizerPmf(np.ones(3)),
     "q must be a 2-D matrix"),
    ("posteriors-bin-count", lambda fx: induced_posteriors(fx, QuantizerPmf(np.ones((1, 4)))),
     "quantizer has 4 columns, channel has 3 bins"),
    ("optimize-max-iter", lambda fx: optimize(fx, 0.5, 0.5, 2, max_iter=0),
     "max_iter must be at least 1, got 0"),
    ("optimize-restarts", lambda fx: optimize_restarts(fx, 0.5, 0.5, 2, restarts=0),
     "restarts must be at least 1, got 0"),
    ("optimize-negative-seed", lambda fx: optimize(fx, 0.5, 0.5, 2, seed=-1),
     "seed must be an integer >= 0, got -1"),
    ("restarts-negative-seed", lambda fx: optimize_restarts(fx, 0.5, 0.5, 2, seed=-1),
     "seed must be an integer >= 0, got -1"),
    ("sweep-negative-seed", lambda fx: sweep_grid(fx, 2, seed=-1),
     "seed must be an integer >= 0, got -1"),
    ("rate-table-levels", lambda fx: RateTable(fx, 0, grid_step=0.5),
     "num_levels must be at least 1"),
    ("rate-table-budget-zero", lambda fx: RateTable(fx, 2, 0.5, max_cells=0),
     "max_cells must be at least 1, got 0"),
    ("penalized-negative", lambda fx: RateTable(fx, 2, grid_step=0.5).best_penalized(-0.1, 0.5),
     "multipliers must be finite and nonnegative"),
    ("penalized-nan", lambda fx: RateTable(fx, 2, grid_step=0.5).best_penalized(np.nan, 0.1),
     "multipliers must be finite and nonnegative"),
    ("lagrangian-nan", lambda fx: lagrangian(fx, QuantizerPmf.uniform(2, 3), np.nan, 0.1),
     "multipliers must be finite and nonnegative, got (nan, 0.1)"),
    ("optimize-infinite-multiplier", lambda fx: optimize(fx, np.inf, 0.5, 2),
     "multipliers must be finite and strictly positive, got (inf, 0.5)"),
    ("restarts-nan-multiplier", lambda fx: optimize_restarts(fx, 0.5, np.nan, 2),
     "multipliers must be finite and strictly positive, got (0.5, nan)"),
    ("sweep-workers-zero", lambda fx: sweep_grid(fx, 2, workers=0),
     "workers must be at least 1, got 0"),
    ("grid-empty-axis", lambda fx: LambdaGrid(axis1=[], axis2=[1.0]),
     "lambda axes must be non-empty 1-D arrays"),
    ("grid-count-zero", lambda fx: LambdaGrid.log_spaced(count=0),
     "lambda grid count must be at least 1"),
    ("alpha-empty-surface",
     lambda fx: optimize_alpha(Surface(points=(), channel_fingerprint="", num_levels=0), 0.5, 0.5),
     "surface has no points"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in LIBRARY_REFUSALS],
                         ids=[case[0] for case in LIBRARY_REFUSALS])
def test_library_refuses_bad_input(fx, call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(fx)


# (id, config file content or None, argv before the config path, message)
CLI_REFUSALS = [
    ("section-not-object", {"channel": 5}, ["channel"],
     "config section 'channel' must be an object"),
    ("top-level-not-object", [1, 2], ["channel"],
     "{path}: top level must be a JSON object"),
    ("inline-channel-incomplete", {"channel": {"p_x1": [0.5, 0.5]}}, ["channel"],
     "inline channel needs all of ('p_x1', 'p_x2', 'p_yr_given_x1x2'), "
     "missing ['p_x2', 'p_yr_given_x1x2']"),
    ("bad-init", {"quantizer": {"init": "zeros"}}, ["channel"],
     "config key 'quantizer.init' must be one of "),
    ("optimize-without-multipliers", {}, ["optimize"],
     "optimize needs --lambda1 and --lambda2 (or solver.lambda1/lambda2)"),
    ("sumrate-without-surface", {}, ["sumrate", "--i1-bits", "0.5", "--i2-bits", "0.5"],
     "sumrate needs --surface pointing at a sweep output file"),
    ("sweep-workers-negative", {}, ["sweep", "--bins", "8", "--levels", "2", "--workers", "-3"],
     "workers must be at least 1, got -3"),
    ("optimize-negative-seed", {"quantizer": {"seed": -1}},
     ["optimize", "--lambda1", "0.5", "--lambda2", "0.5"], "seed must be an integer >= 0, got -1"),
    ("oracle-budget-zero", {}, ["oracle", "--fixture", "--max-cells", "0"],
     "max_cells must be at least 1, got 0"),
]


@pytest.mark.parametrize("content, argv, message", [case[1:] for case in CLI_REFUSALS],
                         ids=[case[0] for case in CLI_REFUSALS])
def test_cli_refuses_bad_config(tmp_path, capsys, content, argv, message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(content))
    assert main([*argv, "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {message.format(path=path)}")


def test_cli_sumrate_on_header_only_csv(tmp_path, capsys):
    path = tmp_path / "surface.csv"
    path.write_text(CSV_HEADER + "\n")
    assert main(["sumrate", "--surface", str(path), "--i1-bits", "0.5",
                 "--i2-bits", "0.5"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: surface has no points\n"


@pytest.mark.parametrize("figure, seed, workers, error, message", [
    ("fig9", 0, None, ConfigError, "unknown figure 'fig9'; choose fig3, fig4 or fig5"),
    ("fig3", -1, None, ValueError, "seed must be an integer >= 0, got -1"),
    ("fig4", 0, 0, ValueError, "workers must be at least 1, got 0"),
], ids=["unknown-figure", "fig3-negative-seed", "fig4-zero-workers"])
def test_run_repro_refuses_and_leaves_no_outdir(tmp_path, figure, seed, workers, error, message):
    out = tmp_path / "out"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        run_repro(figure, outdir=str(out), seed=seed, workers=workers)
    assert not out.exists()
