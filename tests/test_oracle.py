import itertools
import math
import tracemalloc
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


def lead_by_lead_rates(ch, levels, step):
    """RateTable's rates built run by run: each run of candidates that share
    their leading digits gets the channel's constant, then every level's row
    shares, gathered axis by axis with np.take, in level order.  Same
    operations per value as the level-by-level build, so the same bits."""
    n, total = oracle._grid_size(step, levels, ch.num_bins, math.inf)
    columns = oracle._simplex_columns(levels, n)
    m, n_cols = columns.shape[0], ch.num_bins
    values, codes = np.unique(columns, return_inverse=True)
    codes = codes.reshape(columns.shape).T
    rows = oracle._row_table(ch.p_x1x2_yr, values)
    h_ab, h_aj, h_bj, h_a, h_b = oracle._marginal_entropies_nats(ch.p_x1x2_yr)
    const = np.array([2 * h_ab - h_a - h_b, h_aj - h_a, h_bj - h_b])[:, None]
    tail = oracle._tail_digits(m, n_cols)
    rates = np.empty((3, total))
    runs = rates.reshape(3, -1, m ** tail)
    for r, lead in enumerate(np.ndindex((m,) * (n_cols - tail))):
        out = runs[:, r]
        out[:] = const
        for c in codes:
            g = rows[(slice(None), *c[list(lead)])]
            for axis in range(1, tail + 1):
                g = g.take(c, axis=axis)
            out += g.reshape(3, -1)
    np.maximum(rates, 0.0, out=rates)
    return rates / LN2


def assert_same_bits(got, want):
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


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


def test_penalized_query_with_huge_multipliers(fx_table_l2_coarse):
    """Multipliers near the largest float overflow the penalties of every
    candidate with a positive rate to -inf, quietly; the answer is still the
    first maximum of j - lam1 c1 - lam2 c2 taken in Python floats."""
    table, lam = fx_table_l2_coarse, 1e308
    want = [j - lam * c1 - lam * c2 for j, c1, c2 in zip(*table.rates.tolist())]
    assert table.best_penalized(lam, lam) == (max(want), want.index(max(want)))


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


@pytest.mark.parametrize("other", ["channel", "levels", "step"])
def test_boundary_optimality_refuses_a_table_built_for_other_arguments(fx, fx_table_l2_coarse,
                                                                        other):
    """A table built for another channel, level count or grid step gives no
    verdict: the refusal names what the table was built for and what was
    asked.  An equal channel built anew is the same channel."""
    assert check_boundary_optimality(oracle.fixture_channel(), 2, 0.05, 0.5, 0.5,
                                     table=fx_table_l2_coarse)
    ch, levels, step = fx, 2, 0.05
    if other == "channel":
        ch = from_pmfs([0.5, 0.5], [0.5, 0.5], fx.p_yr_given_x1x2)
    elif other == "levels":
        levels = 3
    else:
        step = 0.1
    with pytest.raises(ValueError, match=(
            rf"built for channel {fx.fingerprint()[:12]}, L=2, grid_step=0.05; asked for "
            rf"channel {ch.fingerprint()[:12]}, L={levels}, grid_step={step}")):
        check_boundary_optimality(ch, levels, step, 0.5, 0.5, table=fx_table_l2_coarse)


@pytest.mark.parametrize("levels, step", [(2, 0.02), (3, 0.1)])
def test_boundary_check_after_its_caller_keeps_the_first_maximum(fx, levels, step):
    """On the benchmark's two tables, best_constrained and then
    check_boundary_optimality at the same targets, as the benchmark calls
    them, give the first of the tied maxima and the verdict that index gives,
    whatever was asked before."""
    table = RateTable(fx, levels, step)
    j, c1_bits, c2_bits = table.rates
    assert table.j_max == j.max()
    ents = yr_conditional_entropies(fx)
    c_max = 0.9 * min(ents["h_yr_given_x1"], ents["h_yr_given_x2"])
    targets = [(0.0, 0.0), (0.05, 0.3), (0.3, 0.05), (0.5, 0.5), (c_max, 0.2), (0.0, 0.0)]
    most_ties = 0
    for c1, c2 in targets:
        feasible = np.flatnonzero((c1_bits <= c1 + 1e-12) & (c2_bits <= c2 + 1e-12))
        ties = feasible[j[feasible] == j[feasible].max()]
        most_ties = max(most_ties, len(ties))
        want = (float(j[ties[0]]), int(ties[0]))
        assert table.best_constrained(c1, c2) == want
        verdict = c1_bits[ties[0]] >= c1 - 0.05 or c2_bits[ties[0]] >= c2 - 0.05
        assert check_boundary_optimality(fx, levels, step, c1, c2, table=table) == verdict
        assert table.best_constrained(c1, c2) == want
    assert most_ties > 1


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
# from L=3 up the row table is smaller than the candidate set; L=1 has one grid value
@given(ch=tiny_channels(), levels=st.integers(1, 4), n=st.integers(1, 4),
       run_cells=st.sampled_from([1, 4, 16, oracle.RUN_CELLS]))
def test_table_matches_per_candidate_reference(ch, levels, n, run_cells):
    budget = 5000
    if math.comb(n + levels - 1, levels - 1) ** ch.num_bins > budget:
        with pytest.raises(OracleBudgetError):
            RateTable(ch, levels, 1.0 / n, max_cells=budget)
        return
    with mock.patch.object(oracle, "RUN_CELLS", run_cells):
        tab = RateTable(ch, levels, 1.0 / n, max_cells=budget)
        assert_same_bits(tab.rates, lead_by_lead_rates(ch, levels, 1.0 / n))
    mats = [q.q for q in enumerate_q(levels, ch.num_bins, 1.0 / n)]
    assert len(tab) == len(mats)
    for k, q in enumerate(mats):
        assert np.array_equal(tab.quantizer_at(k).q, q)
    j, c1, c2 = reference_rates(ch, np.stack(mats))
    np.testing.assert_allclose(tab.j_bits, j, rtol=0, atol=1e-12)
    np.testing.assert_allclose(tab.c1_bits, c1, rtol=0, atol=1e-12)
    np.testing.assert_allclose(tab.c2_bits, c2, rtol=0, atol=1e-12)


def test_session_tables_match_per_candidate_reference(fx, fx_table_l2, fx_table_l3, rng):
    # both tables take several runs at the default run length; at L=2 each run
    # has its own row of the row table, at L=3 many runs share one
    for tab in (fx_table_l2, fx_table_l3):
        assert_same_bits(tab.rates, lead_by_lead_rates(fx, tab.num_levels, tab.grid_step))
        ks = rng.integers(0, len(tab), size=300)
        j, c1, c2 = reference_rates(fx, np.stack([tab.quantizer_at(int(k)).q for k in ks]))
        np.testing.assert_allclose(tab.j_bits[ks], j, rtol=0, atol=1e-12)
        np.testing.assert_allclose(tab.c1_bits[ks], c1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(tab.c2_bits[ks], c2, rtol=0, atol=1e-12)


def test_penalized_query_is_the_max_of_the_penalized_rates(fx, fx_table_l3, rng):
    # level-permuted twins tie, so the argmax may be either: compare values only
    tab = fx_table_l3
    for lam1, lam2 in 10.0 ** rng.uniform(-2, 1, size=(6, 2)):
        val, k = tab.best_penalized(lam1, lam2)
        want = (tab.j_bits - lam1 * tab.c1_bits - lam2 * tab.c2_bits).max()
        assert val == pytest.approx(want, abs=1e-12)
        rep = rate_report(fx, tab.quantizer_at(k))
        got = rep.j_value - lam1 * rep.c1_achieved - lam2 * rep.c2_achieved
        assert got == pytest.approx(val, abs=1e-12)


def test_table_rates_are_read_only(fx_table_l2_coarse):
    tab = fx_table_l2_coarse
    assert tab.rates.shape == (3, len(tab))
    for rates in (tab.rates, tab.j_bits, tab.c1_bits, tab.c2_bits):
        with pytest.raises(ValueError, match="read-only"):
            rates[0] = 1.0


def test_queries_stream_the_table(fx_table_l3):
    """Each query's scratch is a few runs of RUN_CELLS candidates, not the
    (3, N) table: on the 1.73M-candidate table it stays under 1 MB."""
    tab = fx_table_l3
    # targets no other test asks, so the constrained query is not its memo
    for query, args in ((tab.best_penalized, (0.3, 0.2)), (tab.best_constrained, (0.4321, 0.5432))):
        tracemalloc.start()
        try:
            query(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, f"{query.__name__} peaked at {peak / 1e6:.2f} MB"


def test_queries_agree_across_run_edges(fx, monkeypatch):
    """With runs of 7 candidates, both queries give the whole table's maximum
    and the first index that reaches it, also where tied maxima lie in
    different runs."""
    tab = RateTable(fx, 2, 0.2)  # built at the default run length, which its bits depend on
    monkeypatch.setattr(oracle, "RUN_CELLS", 7)
    j, c1, c2 = tab.rates
    split_ties = []
    for k in range(len(tab)):
        feasible = np.flatnonzero((c1 <= c1[k] + 1e-12) & (c2 <= c2[k] + 1e-12))
        ties = feasible[j[feasible] == j[feasible].max()]
        split_ties.append(ties[0] // 7 != ties[-1] // 7)
        assert tab.best_constrained(c1[k], c2[k]) == (float(j[ties[0]]), int(ties[0]))
    assert sum(split_ties) > 1
    # At most one nonzero multiplier, a power of two, leaves one rounding per
    # value, so runs of 7 give the whole-table product's bits; any other pair
    # can differ by an ulp where a BLAS kernel's tail falls differently.
    split_ties = []
    for lam1, lam2 in [(0.0, 0.0), (0.5, 0.0), (0.125, 0.0), (0.0, 1.0), (0.0, 2.0)]:
        vals = np.array([1.0, -lam1, -lam2]) @ tab.rates
        ties = np.flatnonzero(vals == vals.max())
        split_ties.append(ties[0] // 7 != ties[-1] // 7)
        assert tab.best_penalized(lam1, lam2) == (float(vals[ties[0]]), int(ties[0]))
    assert sum(split_ties) > 1
