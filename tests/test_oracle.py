import itertools
import math
from unittest import mock

import numpy as np
import pytest
from conftest import tiny_channels
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from qfrelay import (
    OracleBudgetError,
    QuantizerPmf,
    RateTable,
    check_boundary_optimality,
    enumerate_q,
    from_pmfs,
    rate_report,
    uplink_sum_rate_bound,
    yr_conditional_entropies,
)
from qfrelay import oracle
from qfrelay.infotheory import LN2

# frozen from the independent straight-from-definition enumeration
REF_CONSTRAINED_MID = 0.29287234187829103  # L=2, step 0.05, targets (0.5, 0.5)
REF_PENALIZED = {0.05: 0.32951577982488234, 0.3: 0.014742860045341477}


def reference_rates(ch, qs):
    """(j, c1, c2) in bits per quantizer, each candidate's full four-way joint
    p(x1, x2, y_r, yhat) formed by one einsum and reduced entry by entry."""
    def h(p):
        return -xlogy(p, p).reshape(p.shape[0], -1).sum(axis=1)

    def h0(p):
        return float(-xlogy(p, p).sum())

    joint3 = ch.p_x1x2_yr
    p_ab = joint3.sum(axis=2)
    h_ab, h_a, h_b = h0(p_ab), h0(p_ab.sum(axis=1)), h0(p_ab.sum(axis=0))
    h_aj, h_bj = h0(joint3.sum(axis=1)), h0(joint3.sum(axis=0))

    g = np.einsum("abj,nij->nabji", joint3, qs)
    p_abi = g.sum(axis=3)
    h_abi, h_aji, h_bji = h(p_abi), h(g.sum(axis=2)), h(g.sum(axis=1))
    h_ai, h_bi = h(p_abi.sum(axis=2)), h(p_abi.sum(axis=1))
    r1 = h_ab + h_bi - h_b - h_abi
    r2 = h_ab + h_ai - h_a - h_abi
    c1 = h_aj + h_ai - h_a - h_aji
    c2 = h_bj + h_bi - h_b - h_bji
    return (np.maximum(0.0, r1 + r2) / LN2, np.maximum(0.0, c1) / LN2,
            np.maximum(0.0, c2) / LN2)


def test_enumerate_binary_single_column():
    mats = [q.q for q in enumerate_q(2, 1, 0.5)]
    assert len(mats) == 3
    cols = sorted(tuple(m[:, 0]) for m in mats)
    assert cols == [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]


def test_enumerate_single_level():
    mats = list(enumerate_q(1, 4, 0.25))
    assert len(mats) == 1
    assert np.array_equal(mats[0].q, np.ones((1, 4)))


def test_enumerate_counting():
    assert sum(1 for _ in enumerate_q(2, 3, 0.1)) == 11 ** 3


def test_enumerate_budget_refusal_reports_size():
    with pytest.raises(OracleBudgetError, match="44763935885026099456"):
        list(enumerate_q(4, 8, 0.1, max_cells=1000))


def test_enumerate_order_matches_table(fx, fx_table_l2_coarse):
    take = {0, 1, 7, 100, 9260}
    for k, q in enumerate(itertools.islice(enumerate_q(2, 3, 0.05), 9261)):
        if k in take:
            assert np.array_equal(q.q, fx_table_l2_coarse.quantizer_at(k).q)


def test_grid_step_candidate_count_and_zero_step(fx):
    assert sum(1 for _ in enumerate_q(2, 1, 0.5, max_cells=10)) == 3
    assert len(RateTable(fx, 2, 0.5, max_cells=27)) == 3 ** 3
    with pytest.raises(ValueError):
        list(enumerate_q(2, 1, 0.0))
    with pytest.raises(ValueError):
        RateTable(fx, 2, 0.0)


@pytest.mark.parametrize("step", [1.0, 0.5, 0.25, 0.1, 0.05, 0.02, 1.0 / 14.0])
def test_grid_steps_that_divide_one_are_accepted(fx, step):
    n = round(1 / step)
    assert len(RateTable(fx, 2, step)) == (n + 1) ** 3
    assert sum(1 for _ in enumerate_q(2, 1, step)) == n + 1


def test_grid_step_that_does_not_divide_one_is_refused(fx):
    with pytest.raises(ValueError, match="0.3"):
        RateTable(fx, 2, 0.3)
    with pytest.raises(ValueError, match="0.7"):
        list(enumerate_q(2, 1, 0.7))


def test_table_agrees_with_rate_report(fx, fx_table_l2_coarse, rng):
    tab = fx_table_l2_coarse
    for k in rng.integers(0, len(tab), size=25):
        rep = rate_report(fx, tab.quantizer_at(int(k)))
        assert tab.j_bits[k] == pytest.approx(rep.j_value, abs=1e-12)
        assert tab.c1_bits[k] == pytest.approx(rep.c1_achieved, abs=1e-12)
        assert tab.c2_bits[k] == pytest.approx(rep.c2_achieved, abs=1e-12)


def test_brute_force_unconstrained_targets(fx, fx_table_l2_coarse):
    ents = yr_conditional_entropies(fx)
    tab = fx_table_l2_coarse
    val, k = tab.best_constrained(ents["h_yr_given_x1"], ents["h_yr_given_x2"])
    assert val == pytest.approx(tab.j_bits.max(), abs=1e-15)
    assert rate_report(fx, tab.quantizer_at(k)).j_value == pytest.approx(val, abs=1e-12)


def test_brute_force_zero_targets(fx, fx_table_l2_coarse):
    val, _ = fx_table_l2_coarse.best_constrained(0.0, 0.0)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_constrained_query_rejects_negative_targets(fx_table_l2_coarse):
    with pytest.raises(ValueError, match="nonnegative"):
        fx_table_l2_coarse.best_constrained(-0.5, 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        fx_table_l2_coarse.best_constrained(0.5, float("nan"))


def test_brute_force_mid_targets_frozen_value(fx, fx_table_l2_coarse):
    val, k = fx_table_l2_coarse.best_constrained(0.5, 0.5)
    assert val == pytest.approx(REF_CONSTRAINED_MID, abs=1e-12)
    rep = rate_report(fx, fx_table_l2_coarse.quantizer_at(k))
    assert rep.c1_achieved <= 0.5 + 1e-12
    assert rep.c2_achieved <= 0.5 + 1e-12


def test_brute_force_penalized_frozen_values(fx, fx_table_l2_coarse):
    for lam, want in REF_PENALIZED.items():
        val, _ = fx_table_l2_coarse.best_penalized(lam, lam)
        assert val == pytest.approx(want, abs=1e-12)


def test_oracle_never_exceeds_uplink_bound(fx, fx_table_l2_coarse):
    assert fx_table_l2_coarse.j_bits.max() <= uplink_sum_rate_bound(fx) + 1e-9


def test_doubling_resolution_never_decreases(fx):
    coarse = RateTable(fx, 2, 0.1)
    fine = RateTable(fx, 2, 0.05)
    assert fine.j_bits.max() >= coarse.j_bits.max() - 1e-12
    for t in (0.2, 0.5, 0.8):
        vc, _ = coarse.best_constrained(t, t)
        vf, _ = fine.best_constrained(t, t)
        assert vf >= vc - 1e-12


def test_boundary_optimality_mid_targets(fx, fx_table_l2_coarse):
    assert check_boundary_optimality(fx, 2, 0.05, 0.5, 0.5,
                                     table=fx_table_l2_coarse)


def test_boundary_optimality_rejects_saturated_targets(fx, fx_table_l2_coarse):
    ents = yr_conditional_entropies(fx)
    with pytest.raises(ValueError):
        check_boundary_optimality(fx, 2, 0.05, ents["h_yr_given_x1"], 0.5,
                                  table=fx_table_l2_coarse)


def test_boundary_optimality_degenerate_channel_vacuous():
    # relay output independent of both inputs: objective identically zero
    w = np.broadcast_to(np.array([0.3, 0.7]), (2, 2, 2)).copy()
    ch = from_pmfs([0.5, 0.5], [0.5, 0.5], w)
    assert check_boundary_optimality(ch, 2, 0.25, 0.2, 0.2)


def test_budget_refusal_on_table_construction(fx):
    with pytest.raises(OracleBudgetError):
        RateTable(fx, 4, 0.05, max_cells=100)


@settings(max_examples=50, deadline=None)
# small run lengths split even these tiny tables into several runs
@given(ch=tiny_channels(), levels=st.integers(1, 3), n=st.integers(1, 4),
       run_cells=st.sampled_from([1, 4, 16, oracle.RUN_CELLS]))
def test_table_matches_per_candidate_reference(ch, levels, n, run_cells):
    budget = 5000
    if math.comb(n + levels - 1, levels - 1) ** ch.num_bins > budget:
        with pytest.raises(OracleBudgetError):
            RateTable(ch, levels, 1.0 / n, max_cells=budget)
        return
    with mock.patch.object(oracle, "RUN_CELLS", run_cells):
        tab = RateTable(ch, levels, 1.0 / n, max_cells=budget)
    mats = [q.q for q in enumerate_q(levels, ch.num_bins, 1.0 / n)]
    assert len(tab) == len(mats)
    for k, q in enumerate(mats):
        assert np.array_equal(tab.quantizer_at(k).q, q)
    j, c1, c2 = reference_rates(ch, np.stack(mats))
    np.testing.assert_allclose(tab.j_bits, j, rtol=0, atol=1e-12)
    np.testing.assert_allclose(tab.c1_bits, c1, rtol=0, atol=1e-12)
    np.testing.assert_allclose(tab.c2_bits, c2, rtol=0, atol=1e-12)


def test_session_tables_match_per_candidate_reference(fx, fx_table_l2, fx_table_l3, rng):
    # both tables take several runs at the default run length
    for tab in (fx_table_l2, fx_table_l3):
        ks = rng.integers(0, len(tab), size=300)
        j, c1, c2 = reference_rates(fx, np.stack([tab.quantizer_at(int(k)).q for k in ks]))
        np.testing.assert_allclose(tab.j_bits[ks], j, rtol=0, atol=1e-12)
        np.testing.assert_allclose(tab.c1_bits[ks], c1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(tab.c2_bits[ks], c2, rtol=0, atol=1e-12)
