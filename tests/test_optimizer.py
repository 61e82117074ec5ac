import math

import numpy as np
import pytest
from conftest import WEIGHTS, tiny_channels
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from qfrelay import (
    QuantizerPmf,
    build_bpsk_mac,
    delta_matrix,
    from_pmfs,
    induced_posteriors,
    initial_quantizer,
    lagrangian,
    optimize,
    optimize_restarts,
    update_q,
)
from qfrelay.optimizer import _FusedStep, _stopped

FIXED_Q = np.array([[0.9, 0.3, 0.25], [0.1, 0.7, 0.75]])


def reference_posteriors(ch, qm):
    """Straight-from-definition posteriors via explicit loops."""
    A, B, J = ch.p_yr_given_x1x2.shape
    L = qm.shape[0]
    g = np.zeros((A, B, L))
    for a in range(A):
        for b in range(B):
            for i in range(L):
                g[a, b, i] = ch.p_x1[a] * ch.p_x2[b] * sum(
                    ch.p_yr_given_x1x2[a, b, j] * qm[i, j] for j in range(J)
                )
    t1 = np.zeros((A, B, L))
    t2 = np.zeros((A, B, L))
    for b in range(B):
        for i in range(L):
            s = g[:, b, i].sum()
            t1[:, b, i] = g[:, b, i] / s if s > 0 else 1.0 / A
    for a in range(A):
        for i in range(L):
            s = g[a, :, i].sum()
            t2[a, :, i] = g[a, :, i] / s if s > 0 else 1.0 / B
    t3 = np.zeros((L, A))
    t4 = np.zeros((L, B))
    for i in range(L):
        for a in range(A):
            t3[i, a] = sum(qm[i, j] * ch.p_yr_given_x1[a, j] for j in range(J))
        for b in range(B):
            t4[i, b] = sum(qm[i, j] * ch.p_yr_given_x2[b, j] for j in range(J))
    return t1, t2, t3, t4


def reference_delta(ch, qm, lam1, lam2):
    """Independent single-step exponent arithmetic (natural logs, loops)."""
    t1, t2, t3, t4 = reference_posteriors(ch, qm)
    A, B, J = ch.p_yr_given_x1x2.shape
    L = qm.shape[0]
    delta = np.zeros((L, J))
    for i in range(L):
        for j in range(J):
            d_obj = 0.0
            for a in range(A):
                for b in range(B):
                    w = ch.p_x1[a] * ch.p_x2[b] * ch.p_yr_given_x1x2[a, b, j]
                    d_obj += w * (math.log(t1[a, b, i]) + math.log(t2[a, b, i]))
            s1 = sum(ch.p_x1[a] * ch.p_yr_given_x1[a, j] * math.log(t3[i, a])
                     for a in range(A))
            s2 = sum(ch.p_x2[b] * ch.p_yr_given_x2[b, j] * math.log(t4[i, b])
                     for b in range(B))
            delta[i, j] = (d_obj + lam1 * s1 + lam2 * s2) / ((lam1 + lam2) * ch.p_yr[j])
    return delta


def test_posteriors_identity_quantizer(fx):
    post = induced_posteriors(fx, QuantizerPmf.identity(3))
    assert np.allclose(post.t3, fx.p_yr_given_x1.T, atol=1e-15)
    assert np.allclose(post.t4, fx.p_yr_given_x2.T, atol=1e-15)
    assert not post.t1_placeholder.any()
    assert not post.t2_placeholder.any()


def test_posteriors_uniform_quantizer(fx):
    post = induced_posteriors(fx, QuantizerPmf.uniform(4, 3))
    # quantizer output independent of everything
    assert np.allclose(post.t3, 0.25, atol=1e-15)
    assert np.allclose(post.t4, 0.25, atol=1e-15)
    for i in range(4):
        for b in range(2):
            assert np.allclose(post.t1[:, b, i], fx.p_x1, atol=1e-15)


def test_posteriors_match_reference(fx):
    post = induced_posteriors(fx, QuantizerPmf(FIXED_Q))
    t1, t2, t3, t4 = reference_posteriors(fx, FIXED_Q)
    assert np.allclose(post.t1, t1, atol=1e-13)
    assert np.allclose(post.t2, t2, atol=1e-13)
    assert np.allclose(post.t3, t3, atol=1e-13)
    assert np.allclose(post.t4, t4, atol=1e-13)


def test_posteriors_normalization_random(fx, rng):
    for _ in range(20):
        L = int(rng.integers(1, 5))
        q = QuantizerPmf(rng.dirichlet(np.ones(L), size=3).T)
        post = induced_posteriors(fx, q)
        assert np.allclose(post.t1.sum(axis=0), 1.0, atol=1e-9)
        assert np.allclose(post.t2.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(post.t3.sum(axis=0), 1.0, atol=1e-9)
        assert np.allclose(post.t4.sum(axis=0), 1.0, atol=1e-9)


def test_posteriors_zero_probability_slices_flagged(fx):
    # level 2 never occurs: its conditioning events have zero mass
    q = QuantizerPmf(np.array([[0.6, 0.3, 0.5], [0.4, 0.7, 0.5], [0.0, 0.0, 0.0]]))
    post = induced_posteriors(fx, q)
    assert post.t1_placeholder[:, 2].all()
    assert post.t2_placeholder[:, 2].all()
    assert not post.t1_placeholder[:, :2].any()
    # placeholder slices hold a uniform pmf so downstream logs stay finite
    assert np.allclose(post.t1[:, :, 2], 0.5, atol=1e-15)


def test_delta_uniform_q_rows_identical(fx):
    post = induced_posteriors(fx, QuantizerPmf.uniform(3, 3))
    delta = delta_matrix(fx, post, 0.4, 0.9)
    assert np.max(np.abs(delta - delta[0][None, :])) < 1e-12


def test_delta_matches_independent_single_step(fx):
    post = induced_posteriors(fx, QuantizerPmf(FIXED_Q))
    got = delta_matrix(fx, post, 0.3, 0.8)
    want = reference_delta(fx, FIXED_Q, 0.3, 0.8)
    assert np.max(np.abs(got - want)) < 1e-12


def test_delta_lambda_scaling_changes_update(fx):
    post = induced_posteriors(fx, QuantizerPmf(FIXED_Q))
    base = update_q(delta_matrix(fx, post, 0.3, 0.8)).q
    same = update_q(delta_matrix(fx, post, 1.0 * 0.3, 1.0 * 0.8)).q
    scaled = update_q(delta_matrix(fx, post, 3.0 * 0.3, 3.0 * 0.8)).q
    assert np.array_equal(base, same)
    assert not np.allclose(base, scaled, atol=1e-6)


def test_delta_rejects_zero_multiplier_sum(fx):
    post = induced_posteriors(fx, QuantizerPmf(FIXED_Q))
    with pytest.raises(ValueError):
        delta_matrix(fx, post, 0.0, 0.0)


def test_update_constant_column_gives_uniform():
    q = update_q(np.array([[3.0, -1.0], [3.0, -1.0], [3.0, -1.0]]))
    assert np.allclose(q.q, 1.0 / 3.0, atol=1e-15)


def test_update_closed_form_softmax():
    q = update_q(np.array([[math.log(2.0)], [0.0]]))
    assert np.allclose(q.q[:, 0], [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_update_large_offset_no_overflow():
    q = update_q(np.array([[1000.0, 0.0], [0.0, 1000.0], [0.0, 0.0]]))
    assert np.all(np.isfinite(q.q))
    assert q.q[0, 0] > 1 - 1e-12
    assert q.q[1, 1] > 1 - 1e-12


def test_update_nonfinite_entry_reported_with_location():
    delta = np.zeros((2, 3))
    delta[1, 2] = np.inf
    with pytest.raises(FloatingPointError, match=r"\(1, 2\)"):
        update_q(delta)


def test_initial_quantizer_strategies():
    rng = np.random.default_rng(7)
    q = initial_quantizer(4, 6, "perturbed-uniform", rng)
    assert q.q.shape == (4, 6)
    assert np.all(q.q > 0.9 / 4 - 1e-12)
    assert np.max(np.abs(q.q - 0.25)) > 1e-4  # symmetry actually broken
    r = initial_quantizer(4, 6, "random", np.random.default_rng(7))
    assert np.allclose(r.q.sum(axis=0), 1.0, atol=1e-12)
    e = initial_quantizer(5, 3, "identity")
    assert np.array_equal(e.q[:3], np.eye(3))
    assert np.all(e.q[3:] == 0)
    with pytest.raises(ValueError):
        initial_quantizer(2, 3, "identity")
    with pytest.raises(ValueError):
        initial_quantizer(2, 3, "no-such-strategy")


def test_uniform_q_is_a_fixed_point(fx):
    q0 = QuantizerPmf.uniform(2, 3)
    post = induced_posteriors(fx, q0)
    q1 = update_q(delta_matrix(fx, post, 0.5, 0.5))
    assert np.max(np.abs(q1.q - 0.5)) < 1e-15


def test_optimize_converges_on_bpsk_setup(bpsk):
    res = optimize(bpsk, 0.1, 0.1, 32, eps=1e-6, max_iter=500, seed=0)
    assert res.converged
    assert res.iterations < 200
    trace = np.asarray(res.lagrangian_trace)
    slack = 1e-10 * np.maximum(1.0, np.abs(trace[:-1]))
    assert np.all(np.diff(trace) >= -slack)


def test_optimize_single_level_stationary(fx):
    res = optimize(fx, 0.5, 0.5, 1, seed=3)
    assert res.converged
    assert res.report.j_value == 0.0
    assert res.report.c1_achieved == 0.0
    assert res.report.c2_achieved == 0.0
    assert all(abs(v) < 1e-15 for v in res.lagrangian_trace)


def test_optimize_reaches_oracle_lagrangian(fx, fx_table_l2):
    lam = 0.5
    want, _ = fx_table_l2.best_penalized(lam, lam)
    res = optimize_restarts(fx, lam, lam, 2, restarts=4, seed=0)
    assert res.lagrangian_trace[-1] >= want - 1e-2


def test_optimize_monotone_trace_random(fx, rng):
    for _ in range(10):
        lam1, lam2 = 10.0 ** rng.uniform(-2, 0.5, size=2)
        res = optimize(fx, lam1, lam2, 2, seed=int(rng.integers(1 << 31)))
        trace = np.asarray(res.lagrangian_trace)
        slack = 1e-10 * np.maximum(1.0, np.abs(trace[:-1]))
        assert np.all(np.diff(trace) >= -slack)


def test_optimize_fixed_point_after_convergence(fx):
    eps = 1e-8
    res = optimize(fx, 0.3, 0.7, 2, eps=eps, seed=1)
    assert res.converged
    post = induced_posteriors(fx, res.q_final)
    q_next = update_q(delta_matrix(fx, post, 0.3, 0.7))
    l_final = lagrangian(fx, res.q_final, 0.3, 0.7)
    l_next = lagrangian(fx, q_next, 0.3, 0.7)
    assert abs(l_next - l_final) < 10 * eps


def test_optimize_iterates_are_valid_pmfs(fx):
    res = optimize(fx, 0.2, 0.4, 3, seed=5)
    q = res.q_final.q
    assert np.all(q >= 0)
    assert np.max(np.abs(q.sum(axis=0) - 1.0)) < 1e-12


def test_optimize_rejects_bad_arguments(fx):
    with pytest.raises(ValueError):
        optimize(fx, 0.0, 0.5, 2)
    with pytest.raises(ValueError):
        optimize(fx, 0.5, -0.1, 2)
    with pytest.raises(ValueError):
        optimize(fx, 0.5, 0.5, 2, eps=0.0)
    with pytest.raises(ValueError):
        optimize(fx, 0.5, 0.5, 0)


def test_optimize_max_iter_flagged_not_fatal(fx):
    res = optimize(fx, 0.3, 0.3, 2, eps=1e-14, max_iter=1, seed=0)
    assert not res.converged
    assert res.iterations == 1


def test_stopped_rule_decisions():
    # a rising step under eps * (1 + |L|) stops, even where it exceeds eps * L
    assert _stopped(1.4, 1.4 - 2.28e-8, 1e-8)
    assert not _stopped(1.4, 1.4 - 3e-8, 1e-8)
    # at L <= 0 a large fall is compared by magnitude and does not stop
    assert not _stopped(-0.5, 0.5, 1e-8)


def test_restarts_winner_is_replayable(fx):
    res = optimize_restarts(fx, 0.2, 0.2, 2, restarts=4, seed=11)
    replay = optimize(fx, 0.2, 0.2, 2, seed=res.seed)
    assert replay.lagrangian_trace == res.lagrangian_trace
    assert np.array_equal(replay.q_final.q, res.q_final.q)


def test_restarts_picks_best_final_lagrangian(fx):
    best = optimize_restarts(fx, 0.2, 0.2, 2, restarts=4, seed=11)
    finals = []
    for r in range(4):
        child = int(np.random.SeedSequence((11, r)).generate_state(1)[0])
        finals.append(optimize(fx, 0.2, 0.2, 2, seed=child).lagrangian_trace[-1])
    assert best.lagrangian_trace[-1] == max(finals)


# A channel whose last output bin has zero mass under every input pair.
DEAD_BIN_W = [[[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]],
              [[0.7, 0.3, 0.0], [0.1, 0.9, 0.0]]]


def _kernel_case(name, fx, bpsk):
    """(channel, quantizer matrix, lam1, lam2) for one fused-step comparison."""
    if name == "fixture":
        return fx, FIXED_Q, 0.3, 0.8
    if name == "bpsk":
        q = np.random.default_rng(5).dirichlet(np.ones(32), size=bpsk.num_bins).T
        return bpsk, q, 0.1, 0.4
    if name == "zero-level":
        q = np.array([[0.6, 0.3, 0.5], [0.4, 0.7, 0.5], [0.0, 0.0, 0.0]])
        return fx, q, 0.5, 0.2
    p_x1 = [0.0, 1.0] if name == "zero-prior" else [0.4, 0.6]
    ch = from_pmfs(p_x1, [0.5, 0.5], DEAD_BIN_W)
    q = np.array([[0.2, 0.7, 0.1], [0.5, 0.1, 0.3], [0.3, 0.2, 0.6]])
    return ch, q, 0.6, 1.5


def _fused_step_errors(ch, qm, lam1, lam2):
    """Largest gaps of one fused step from the unfused functions: the delta
    (relative to its largest entry), q's Lagrangian, the next q and its
    Lagrangian.  Dead levels sit near exp(-690) in q, so the exponents are
    compared too."""
    q = QuantizerPmf(qm)
    want_delta = delta_matrix(ch, induced_posteriors(ch, q), lam1, lam2)
    want_q = update_q(want_delta)

    step = _FusedStep(ch, lam1, lam2)
    log_t, value = step.evaluate(q.q, float(ch.p_yr @ -xlogy(q.q, q.q).sum(axis=0)))
    got_q, h_next = step.update(log_t)
    _, value_next = step.evaluate(got_q, h_next)

    got_delta = log_t.T @ step.k
    return (np.max(np.abs(got_delta - want_delta)) / max(1.0, np.max(np.abs(want_delta))),
            abs(value - lagrangian(ch, q, lam1, lam2)),
            np.max(np.abs(got_q - want_q.q)),
            abs(value_next - lagrangian(ch, want_q, lam1, lam2)))


@pytest.mark.parametrize("case", ["fixture", "bpsk", "zero-level", "dead-bin", "zero-prior"])
def test_fused_step_matches_reference(case, fx, bpsk):
    ch, qm, lam1, lam2 = _kernel_case(case, fx, bpsk)
    post = induced_posteriors(ch, QuantizerPmf(qm))
    if case == "zero-level":
        assert post.t1_placeholder.any() and post.t2_placeholder.any()
    if case == "dead-bin":
        assert ch.p_yr[-1] == 0.0
    assert max(_fused_step_errors(ch, qm, lam1, lam2)) < 1e-12


@st.composite
def step_cases(draw):
    """(channel, quantizer, lam1, lam2) with 1-4 levels; up to L - 1 levels
    may be all-zero rows, so their posteriors are placeholders."""
    ch = draw(tiny_channels())
    levels = draw(st.integers(1, 4))
    dead = draw(st.sets(st.integers(0, levels - 1), max_size=levels - 1))
    live = [i for i in range(levels) if i not in dead]
    qm = np.zeros((levels, ch.num_bins))
    for j in range(ch.num_bins):
        qm[live, j] = draw(st.lists(WEIGHTS, min_size=len(live), max_size=len(live)))
        qm[live[draw(st.integers(0, len(live) - 1))], j] += 1.0
    lams = st.floats(0.01, 5.0)
    return ch, qm / qm.sum(axis=0), draw(lams), draw(lams)


@settings(max_examples=200, deadline=None)
@given(case=step_cases())
def test_fused_step_matches_reference_random(case):
    assert max(_fused_step_errors(*case)) < 1e-12


def test_fused_step_reports_nonfinite_delta(fx):
    step = _FusedStep(fx, 0.5, 0.5)
    # Row 1 of delta = log_t.T @ K turns non-finite; the softmax's column
    # shift would spread it to row 0, so (1, 0) is the unshifted location.
    for bad in (np.nan, np.inf, -np.inf):
        log_t = np.zeros((len(step.k), 2))
        log_t[1, 1] = bad
        with pytest.raises(FloatingPointError, match=r"\(1, 0\)"):
            step.update(log_t)


def _reference_run(ch, lam1, lam2, levels, init="perturbed-uniform", eps=1e-8,
                   max_iter=5000, seed=0):
    """optimize() spelled with the unfused functions: (final q, trace)."""
    q = initial_quantizer(levels, ch.num_bins, init=init, rng=np.random.default_rng(seed))
    trace = [lagrangian(ch, q, lam1, lam2)]
    for _ in range(max_iter):
        q = update_q(delta_matrix(ch, induced_posteriors(ch, q), lam1, lam2))
        trace.append(lagrangian(ch, q, lam1, lam2))
        if _stopped(trace[-1], trace[-2], eps):
            break
    return q, trace


@pytest.mark.parametrize("case", ["fixture-a", "fixture-b", "fixture-dead-level", "bpsk",
                                  "bpsk-small-multiplier"])
def test_optimize_trajectory_matches_reference(case, fx, bpsk):
    ch, lam1, lam2, kwargs = {
        "fixture-a": (fx, 0.3, 0.8, {"levels": 2}),
        "fixture-b": (fx, 0.1, 0.1, {"levels": 3, "seed": 4}),
        # identity init on 3 bins leaves level 3 empty; it stays dead
        "fixture-dead-level": (fx, 0.5, 0.1, {"levels": 4, "init": "identity"}),
        "bpsk": (bpsk, 0.1, 0.4, {"levels": 32, "max_iter": 60}),
        # dead levels fall below e**EXP_FLOOR, where the fused softmax clamps
        "bpsk-small-multiplier": (bpsk, 0.0123, 0.0123, {"levels": 32, "seed": 3}),
    }[case]
    levels = kwargs.pop("levels")
    res = optimize(ch, lam1, lam2, levels, **kwargs)
    want_q, want_trace = _reference_run(ch, lam1, lam2, levels, **kwargs)
    assert res.iterations == len(want_trace) - 1
    assert np.max(np.abs(np.subtract(res.lagrangian_trace, want_trace))) < 1e-9
    assert np.max(np.abs(res.q_final.q - want_q.q)) < 1e-9
    if case == "fixture-dead-level":
        assert res.q_final.q[3].max() < 1e-250
    if case == "bpsk-small-multiplier":
        tiny = np.finfo(float).tiny  # the smallest normal float
        assert np.count_nonzero((want_q.q > 0) & (want_q.q < tiny)) > 0
        assert np.count_nonzero(res.q_final.q < tiny) == 0
        # and its products with N, the left factor of num = N @ q.T, stay normal too
        products = _FusedStep(ch, lam1, lam2).num[:, None, :] * res.q_final.q
        assert np.count_nonzero((products > 0) & (products < tiny)) == 0


def test_fused_step_reuses_channel_matrices():
    """Steps on one channel share its multiplier-free matrices, and a step
    read from that cache computes bit for bit what a step on a fresh copy of
    the channel computes."""
    ch = build_bpsk_mac(1.5, 4.5, 128)
    q = np.random.default_rng(5).dirichlet(np.ones(32), size=ch.num_bins).T
    first = _FusedStep(ch, 0.5, 0.2)
    log_t, _ = first.evaluate(q, 0.3)
    first.update(log_t)
    cached = _FusedStep(ch, 0.1, 0.4)
    fresh = _FusedStep(build_bpsk_mac(1.5, 4.5, 128), 0.1, 0.4)
    assert cached.num is first.num and cached.sums is first.sums
    assert fresh.num is not first.num
    assert np.array_equal(cached.k, fresh.k)
    (log_c, value_c), (log_f, value_f) = cached.evaluate(q, 0.3), fresh.evaluate(q, 0.3)
    assert np.array_equal(log_c, log_f) and value_c == value_f
    (q_c, h_c), (q_f, h_f) = cached.update(log_c), fresh.update(log_f)
    assert np.array_equal(q_c, q_f) and h_c == h_f
