import numpy as np
import pytest
from conftest import WEIGHTS, tiny_channels
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from qfrelay import (
    QuantizerPmf,
    build_bpsk_mac,
    entropy,
    fixture_channel,
    from_pmfs,
    rate_report,
    uplink_sum_rate_bound,
    yr_conditional_entropies,
)
from qfrelay.infotheory import _plogp, lagrangian

# Reference values for the fixture channel with a fixed non-degenerate Q,
# computed by an independent straight-from-definition enumeration of the
# explicit 4-way joint table (pure loops, log2 sums, no shared code).
FIXED_Q = np.array([[0.9, 0.3, 0.25], [0.1, 0.7, 0.75]])
REF = {
    "j_value": 0.1455558396932024,
    "r1": 0.07844223452222199,
    "r2": 0.06711360517098042,
    "c1_achieved": 0.2166423482891302,
    "c2_achieved": 0.22797097764037222,
    "h_yhat_given_y": 0.7269815176748965,
}
REF_H_YR_GIVEN_X1 = 1.3576124912986516
REF_H_YR_GIVEN_X2 = 1.3466324627351585
REF_H_YR_GIVEN_X1X2 = 1.0472737157631136
REF_BOUND = 0.6096975225075831
REF_IDENTITY_LAGRANGIAN_LAM1 = -2.0945474315262267


def test_entropy_uniform_binary():
    assert entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)


def test_entropy_deterministic():
    assert entropy([1.0, 0.0]) == 0.0


def test_entropy_closed_form():
    p = np.array([0.25, 0.75])
    want = -(0.25 * np.log2(0.25) + 0.75 * np.log2(0.75))
    assert entropy(p) == pytest.approx(want, abs=1e-15)
    assert entropy(p) == pytest.approx(0.8112781244591328, abs=1e-12)


def test_entropy_rejects_negative_and_unnormalized():
    with pytest.raises(ValueError):
        entropy([-0.1, 1.1])
    with pytest.raises(ValueError):
        entropy([0.5, 0.6])


def test_quantizer_pmf_validation():
    q = QuantizerPmf(FIXED_Q)
    assert q.num_levels == 2 and q.num_bins == 3
    assert np.max(np.abs(q.q.sum(axis=0) - 1.0)) < 1e-12
    with pytest.raises(ValueError):
        QuantizerPmf(np.array([[0.9, 0.3], [0.2, 0.7]]))
    with pytest.raises(ValueError):
        QuantizerPmf(np.array([[1.1, 0.3], [-0.1, 0.7]]))


def test_quantizer_pmf_constructors():
    u = QuantizerPmf.uniform(4, 6)
    assert u.q.shape == (4, 6)
    assert np.allclose(u.q, 0.25)
    e = QuantizerPmf.identity(5)
    assert np.array_equal(e.q, np.eye(5))


def test_rate_report_identity_quantizer(fx):
    rep = rate_report(fx, QuantizerPmf.identity(3))
    ents = yr_conditional_entropies(fx)
    # bijective quantizer: constraints saturate at the conditional entropies
    assert rep.c1_achieved == pytest.approx(ents["h_yr_given_x1"], abs=1e-12)
    assert rep.c2_achieved == pytest.approx(ents["h_yr_given_x2"], abs=1e-12)
    assert rep.h_yhat_given_y == 0.0
    assert rep.j_value == pytest.approx(uplink_sum_rate_bound(fx), abs=1e-12)


def test_rate_report_single_level_all_zero(fx):
    rep = rate_report(fx, QuantizerPmf.uniform(1, 3))
    for field in ("j_value", "c1_achieved", "c2_achieved", "h_yhat_given_y", "r1", "r2"):
        assert getattr(rep, field) == pytest.approx(0.0, abs=1e-12)


def test_rate_report_matches_independent_joint_table(fx):
    rep = rate_report(fx, QuantizerPmf(FIXED_Q))
    for field, want in REF.items():
        assert getattr(rep, field) == pytest.approx(want, abs=1e-12), field


def test_rate_report_shape_mismatch(fx):
    with pytest.raises(ValueError):
        rate_report(fx, QuantizerPmf.identity(4))


def test_rate_report_invariants_random(fx, rng):
    ents = yr_conditional_entropies(fx)
    for _ in range(50):
        L = int(rng.integers(1, 6))
        q = QuantizerPmf(rng.dirichlet(np.ones(L), size=3).T)
        rep = rate_report(fx, q)
        assert rep.r1 >= 0 and rep.r2 >= 0
        assert rep.c1_achieved >= 0 and rep.c2_achieved >= 0
        assert rep.j_value == pytest.approx(rep.r1 + rep.r2, abs=1e-12)
        assert rep.c1_achieved <= ents["h_yr_given_x1"] + 1e-9
        assert rep.c2_achieved <= ents["h_yr_given_x2"] + 1e-9


def test_yr_conditional_entropies_frozen_values(fx):
    ents = yr_conditional_entropies(fx)
    assert ents["h_yr_given_x1"] == pytest.approx(REF_H_YR_GIVEN_X1, abs=1e-12)
    assert ents["h_yr_given_x2"] == pytest.approx(REF_H_YR_GIVEN_X2, abs=1e-12)
    assert ents["h_yr_given_x1x2"] == pytest.approx(REF_H_YR_GIVEN_X1X2, abs=1e-12)
    assert uplink_sum_rate_bound(fx) == pytest.approx(REF_BOUND, abs=1e-12)


def test_lagrangian_zero_lambda_equals_objective(fx):
    q = QuantizerPmf(FIXED_Q)
    assert lagrangian(fx, q, 0.0, 0.0) == pytest.approx(REF["j_value"], abs=1e-12)


def test_lagrangian_single_level_zero_for_any_lambda(fx):
    q = QuantizerPmf.uniform(1, 3)
    for lam in (0.0, 0.5, 3.0):
        assert lagrangian(fx, q, lam, lam) == pytest.approx(0.0, abs=1e-12)


def test_lagrangian_identity_frozen_value(fx):
    got = lagrangian(fx, QuantizerPmf.identity(3), 1.0, 1.0)
    assert got == pytest.approx(REF_IDENTITY_LAGRANGIAN_LAM1, abs=1e-12)


def test_lagrangian_rejects_negative_lambda(fx):
    q = QuantizerPmf(FIXED_Q)
    with pytest.raises(ValueError):
        lagrangian(fx, q, -0.1, 0.5)
    with pytest.raises(ValueError):
        lagrangian(fx, q, 0.5, -1e-9)


def test_data_processing_bound_random(fx, rng):
    bound = uplink_sum_rate_bound(fx)
    for _ in range(100):
        L = int(rng.integers(1, 7))
        q = QuantizerPmf(rng.dirichlet(np.ones(L), size=3).T)
        assert rate_report(fx, q).j_value <= bound + 1e-9


def test_constraint_convexity_in_q(fx, rng):
    for _ in range(30):
        L = int(rng.integers(2, 5))
        qa = rng.dirichlet(np.ones(L), size=3).T
        qb = rng.dirichlet(np.ones(L), size=3).T
        ra = rate_report(fx, QuantizerPmf(qa))
        rb = rate_report(fx, QuantizerPmf(qb))
        for theta in (0.25, 0.5, 0.75):
            rm = rate_report(fx, QuantizerPmf(theta * qa + (1 - theta) * qb))
            assert rm.c1_achieved <= theta * ra.c1_achieved + (1 - theta) * rb.c1_achieved + 1e-9
            assert rm.c2_achieved <= theta * ra.c2_achieved + (1 - theta) * rb.c2_achieved + 1e-9


def test_row_permutation_symmetry(fx, rng):
    for _ in range(20):
        L = int(rng.integers(2, 6))
        q = rng.dirichlet(np.ones(L), size=3).T
        perm = rng.permutation(L)
        ra = rate_report(fx, QuantizerPmf(q))
        rb = rate_report(fx, QuantizerPmf(q[perm]))
        for field in ("j_value", "c1_achieved", "c2_achieved", "h_yhat_given_y", "r1", "r2"):
            assert abs(getattr(ra, field) - getattr(rb, field)) <= 1e-12


def _assert_users_swapped(ra, rb):
    """rb is ra with the users swapped: r1, r2 and c1, c2 trade places, the
    objective and H(Yhat|Yr) stay, all within 1e-12."""
    pairs = [(ra.r1, rb.r2), (ra.r2, rb.r1), (ra.c1_achieved, rb.c2_achieved),
             (ra.c2_achieved, rb.c1_achieved), (ra.j_value, rb.j_value),
             (ra.h_yhat_given_y, rb.h_yhat_given_y)]
    assert all(abs(a - b) <= 1e-12 for a, b in pairs), pairs


@settings(max_examples=200, deadline=None)
@given(ch=tiny_channels(), data=st.data())
def test_user_swap_symmetry(ch, data):
    """Swapping the users (their priors, and x1 with x2 in the law) swaps
    r1 with r2 and c1 with c2 for any quantizer, exact zeros included."""
    levels = data.draw(st.integers(1, 4))
    w = np.array([data.draw(st.lists(WEIGHTS, min_size=levels, max_size=levels))
                  for _ in range(ch.num_bins)], dtype=float).T
    w[0] += 1.0
    q = QuantizerPmf(w / w.sum(axis=0))
    swapped = from_pmfs(ch.p_x2, ch.p_x1, ch.p_yr_given_x1x2.transpose(1, 0, 2))
    _assert_users_swapped(rate_report(ch, q), rate_report(swapped, q))


def test_bpsk_snr_swap_swaps_the_rates(rng):
    """build_bpsk_mac with the SNRs swapped is the user-swapped channel."""
    ch, sw = build_bpsk_mac(1.5, 4.5, 128, 4.0), build_bpsk_mac(4.5, 1.5, 128, 4.0)
    for levels in (2, 8, 32):
        q = QuantizerPmf(rng.dirichlet(np.ones(levels), size=ch.num_bins).T)
        _assert_users_swapped(rate_report(ch, q), rate_report(sw, q))


def test_plogp_is_zero_at_zero_and_within_two_ulp_of_xlogy():
    assert _plogp(np.array([0.0]))[0] == 0.0
    rng = np.random.default_rng(0)
    p = np.concatenate([rng.uniform(0.0, 1.0, 100_000), np.logspace(-320, 0, 10_000),
                        1.0 - np.logspace(-16, 0, 1_000, endpoint=False), [5e-324, 1.0]])
    got, want = _plogp(p), xlogy(p, p)
    assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))
