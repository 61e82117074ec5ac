import importlib.util
import pathlib

import pytest

from qfrelay import LambdaGrid, optimizer

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "sweep_parity.py"


@pytest.fixture(scope="module")
def parity():
    spec = importlib.util.spec_from_file_location("sweep_parity", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(values):
    points = [{"lambda1": 0.1 * (k + 1), "lambda2": 0.2, "lagrangian_bits": v}
              for k, v in enumerate(values)]
    return {"points": points, "solves": 8, "map_evaluations": 100,
            "winner_map_evaluations": 40, "nonconverged": 0, "wall_s": [1.0]}


def test_counted_sweep_sees_every_restart(parity, fx):
    grid = LambdaGrid.log_spaced(0.1, 1.0, 2)
    surface, solves = parity.counted_sweep(fx, 2, grid=grid, restarts=3, seed=1)
    assert optimizer.optimize.__name__ == "optimize"  # rebinding undone
    assert len(solves) == len(surface.points) * 3 == 12
    assert sum(n for n, _ in solves) >= sum(p.iterations for p in surface.points)
    assert all(ok for _, ok in solves)


def test_compare_counts_falls_beyond_the_bar(parity, capsys):
    old = _record([1.0, 1.0, 1.0, 1.0])
    new = _record([1.0 - 0.5 * parity.TOL, 1.0 - 2 * parity.TOL, 1.0 + 2 * parity.TOL, 1.0])
    assert parity.compare(new, old) == 1
    out = capsys.readouterr().out
    # the 0.5 TOL fall is within the bar but counts as moved
    assert "3 of 4 winners moved at all" in out
    assert "1 points fell by more than 1e-09" in out and "1 rose" in out
    with pytest.raises(SystemExit):
        parity.compare(_record([1.0, 1.0]), old)


def test_installed_version_is_none_for_a_missing_package(parity):
    assert parity.installed_version("numpy")
    assert parity.installed_version("no-such-package-qfrelay") is None
