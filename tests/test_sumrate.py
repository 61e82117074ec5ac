import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfrelay import (
    Surface,
    SurfacePoint,
    downlink_rate,
    optimize_alpha,
    query_lower_envelope,
    sum_rate_at,
    unimodality_report,
    yr_conditional_entropies,
)
from qfrelay.sumrate import DEGENERATE_ALPHA, _rates, alpha_objective_curve

# Rates drawn from a few round values as well as from a range, so that zero
# description rates, zero downlinks and tied objectives all come up.
RATES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                  st.floats(0.0, 2.0, allow_subnormal=False))
POINTS = st.lists(st.tuples(RATES, RATES, RATES), min_size=1, max_size=6)


def test_downlink_rate_zero_db():
    assert downlink_rate(0.0) == pytest.approx(0.5, abs=1e-15)


def test_downlink_rate_deep_fade():
    assert downlink_rate(-100.0) == pytest.approx(0.0, abs=1e-4)


def test_downlink_rate_snr_three():
    assert downlink_rate(10.0 * math.log10(3.0)) == pytest.approx(1.0, abs=1e-12)


def test_downlink_rate_rejects_nonfinite():
    with pytest.raises(ValueError):
        downlink_rate(float("nan"))
    with pytest.raises(ValueError):
        downlink_rate(float("inf"))
    with pytest.raises(ValueError):
        downlink_rate(4000.0)  # finite, but its power 10**400 is not


def test_sum_rate_alpha_near_one(fx_surface_dense):
    # targets shrink to zero: only the degenerate quantizer qualifies
    assert sum_rate_at(fx_surface_dense, 0.5, 0.5, 0.999) <= 1e-2


def test_sum_rate_alpha_near_zero(fx_surface_dense):
    # prefactor kills the product even though the envelope saturates
    assert sum_rate_at(fx_surface_dense, 0.5, 0.5, 0.001) <= 1e-2


def test_sum_rate_at_matches_envelope_scaling(fx_surface_dense):
    alpha = 0.6
    t = (1 - alpha) / alpha
    want = alpha * query_lower_envelope(fx_surface_dense, t * 0.4, t * 0.7)
    assert sum_rate_at(fx_surface_dense, 0.4, 0.7, alpha) == pytest.approx(want, abs=1e-15)


def test_sum_rate_at_rejects_bad_arguments(fx_surface_dense):
    with pytest.raises(ValueError):
        sum_rate_at(fx_surface_dense, 0.5, 0.5, 0.0)
    with pytest.raises(ValueError):
        sum_rate_at(fx_surface_dense, 0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        sum_rate_at(fx_surface_dense, -0.1, 0.5, 0.5)


def test_optimize_alpha_zero_downlink(fx_surface_dense):
    res = optimize_alpha(fx_surface_dense, 0.0, 0.0)
    assert res.sum_rate == 0.0
    assert res.alpha_star == DEGENERATE_ALPHA


@pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
def test_optimize_alpha_rejects_bad_capacities(fx_surface_dense, bad):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        optimize_alpha(fx_surface_dense, bad, 0.5)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        optimize_alpha(fx_surface_dense, 0.5, bad)


def test_optimize_alpha_result_invariants(fx_surface_dense):
    res = optimize_alpha(fx_surface_dense, 0.35, 0.6)
    assert 0 < res.alpha_star < 1
    assert res.sum_rate == pytest.approx(res.alpha_star * res.i_rd_at_star, abs=1e-12)
    t = (1 - res.alpha_star) / res.alpha_star
    assert res.c1_at_star == pytest.approx(t * 0.35, abs=1e-12)
    assert res.c2_at_star == pytest.approx(t * 0.6, abs=1e-12)


def test_optimize_alpha_beats_dense_grid(fx_surface_dense):
    res = optimize_alpha(fx_surface_dense, 0.5, 0.5)
    grid = np.linspace(1e-6, 1 - 1e-6, 1000)
    grid_max = max(sum_rate_at(fx_surface_dense, 0.5, 0.5, float(a)) for a in grid)
    assert res.sum_rate >= grid_max - 1e-15


def test_optimize_alpha_agrees_with_exhaustive_alpha_scan(fx_surface_dense):
    res = optimize_alpha(fx_surface_dense, 0.5, 0.5)
    grid = np.linspace(1e-6, 1 - 1e-6, 2000)
    scan = max(sum_rate_at(fx_surface_dense, 0.5, 0.5, float(a)) for a in grid)
    assert abs(res.sum_rate - scan) <= 5e-3


def test_optimize_alpha_saturated_downlinks(fx, fx_surface_dense):
    # generous downlinks: targets exceed both conditional entropies for
    # alpha <= alpha0, so alpha0 * (surface max) is achievable
    ents = yr_conditional_entropies(fx)
    i1 = i2 = 5.0
    alpha0 = 0.78
    t = (1 - alpha0) / alpha0
    assert t * i1 > ents["h_yr_given_x1"] and t * i2 > ents["h_yr_given_x2"]
    floor = alpha0 * query_lower_envelope(
        fx_surface_dense, ents["h_yr_given_x1"], ents["h_yr_given_x2"])
    res = optimize_alpha(fx_surface_dense, i1, i2)
    assert res.sum_rate >= floor - 1e-12


def synthetic_surface(rows):
    return Surface(
        points=tuple(SurfacePoint(lam1=1.0, lam2=1.0, c1=c1, c2=c2, i_rd=i_rd,
                                  h_scalar=0.0, iterations=1, converged=True, seed=0)
                     for c1, c2, i_rd in rows),
        channel_fingerprint="", num_levels=2)


@settings(max_examples=60, deadline=None)
@given(rows=POINTS, i1=RATES, i2=RATES)
# 1.083/(1.726+1.083) rounds one ulp below the last float the point fits at
@example(rows=[(1.726, 0.0, 1.0)], i1=1.083, i2=0.5)
def test_optimize_alpha_closed_form_is_exact(rows, i1, i2):
    s = synthetic_surface(rows)
    res = optimize_alpha(s, i1, i2)
    assert 0 < res.alpha_star < 1
    assert res.sum_rate == sum_rate_at(s, i1, i2, res.alpha_star)
    assert res.sum_rate == res.alpha_star * res.i_rd_at_star
    grid = np.linspace(1e-6, 1 - 1e-6, 2001)
    assert res.sum_rate >= max(sum_rate_at(s, i1, i2, float(a)) for a in grid)
    # alpha* sits on the last float its point fits at, not an ulp short of it
    above = min(math.nextafter(res.alpha_star, 1.0), 1 - 1e-6)
    assert res.sum_rate >= sum_rate_at(s, i1, i2, above)


def test_alpha_objective_curve_consistency(fx_surface_dense):
    curve = alpha_objective_curve(fx_surface_dense, 0.4, 0.4, num=50)
    assert len(curve) == 50
    for a, v in curve[::7]:
        assert 0 < a < 1
        assert v == sum_rate_at(fx_surface_dense, 0.4, 0.4, a)


@pytest.mark.parametrize("i1, i2", [(0.4, 0.4), (0.5, 0.2), (0.0, 0.3), (0.0, 0.0), (3.0, 3.0)])
def test_alpha_objective_curve_equals_sum_rate_at(fx_surface_dense, i1, i2):
    zero = synthetic_surface([(0.0, 0.0, 0.3)])
    for s in (fx_surface_dense, zero):
        curve = alpha_objective_curve(s, i1, i2, num=120)
        assert curve == [(a, sum_rate_at(s, i1, i2, a)) for a, _ in curve]
    empty = Surface(points=(), channel_fingerprint="", num_levels=2)
    assert [v for _, v in alpha_objective_curve(empty, i1, i2, num=5)] == [0.0] * 5


def test_rates_are_the_points_c1_c2_i_rd(fx_surface_dense):
    for s in (fx_surface_dense, Surface(points=(), channel_fingerprint="", num_levels=2)):
        per_point = np.array([p[2:5] for p in s.points], dtype=float).reshape(-1, 3).T
        rates = _rates(s)
        assert rates.dtype == float and rates.shape == per_point.shape == (3, len(s.points))
        assert rates.tobytes() == per_point.tobytes()


def test_alpha_objective_curve_rejects_bad_arguments(fx_surface_dense):
    with pytest.raises(ValueError, match="num"):
        alpha_objective_curve(fx_surface_dense, 0.5, 0.5, num=1)
    for i1 in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            alpha_objective_curve(fx_surface_dense, i1, 0.5)


def test_unimodality_report_structure(fx_surface_dense):
    rep = unimodality_report(fx_surface_dense, 0.5, 0.5)
    assert rep["num_alphas"] == 100
    assert rep["tol"] == 1e-3
    assert rep["ok"] == (rep["num_strict_maxima"] <= 1)
    assert len(rep["maxima_alphas"]) == rep["num_strict_maxima"]
    # the envelope staircase puts small ripples on the concave objective, so
    # ok is diagnostic only; at a tol above the step size the curve reads as
    # unimodal again
    assert unimodality_report(fx_surface_dense, 0.5, 0.5, tol=5e-3)["ok"]


@pytest.mark.parametrize("tol", [0.0, 1e-4, 1e-3])
def test_unimodality_report_matches_loop_reference(fx_surface_dense, tol):
    curve = alpha_objective_curve(fx_surface_dense, 0.5, 0.5, 300)
    moves = []  # (index after the move, direction) of each move above tol
    for k in range(len(curve) - 1):
        step = curve[k + 1][1] - curve[k][1]
        if abs(step) > tol:
            moves.append((k + 1, 1 if step > 0 else -1))
    want = [curve[moves[k][0]][0] for k in range(len(moves) - 1)
            if moves[k][1] == 1 and moves[k + 1][1] == -1]
    rep = unimodality_report(fx_surface_dense, 0.5, 0.5, num_alphas=300, tol=tol)
    assert rep["maxima_alphas"] == want
    assert rep["num_strict_maxima"] == len(want)
