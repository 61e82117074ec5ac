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
    from_pmfs,
    initial_quantizer,
    optimize,
    optimize_restarts,
)
from qfrelay import optimizer
from qfrelay.infotheory import lagrangian
from qfrelay.optimizer import (
    EXP_FLOOR,
    _FusedStep,
    _ratio,
    _remaining_gap,
    _squarem_exponents,
    _stopped,
    delta_matrix,
    induced_posteriors,
    update_q,
)

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


@pytest.mark.parametrize("init, num_bins", [("perturbed-uniform", 128), ("random", 128),
                                            ("identity", 32)])
def test_optimize_starts_at_initial_quantizer_and_returns_a_readonly_pmf(init, num_bins):
    """optimize renormalizes its start and its result without QuantizerPmf's
    checks.  Its start is still bitwise initial_quantizer's C-ordered matrix
    (on BPSK L=32 an F-ordered copy of it rounds N @ q.T differently), and
    q_final is C-contiguous, read-only and column-stochastic."""
    ch = build_bpsk_mac(1.5, 4.5, num_bins)
    lam1, lam2, seed = 0.1, 0.4, 3
    q0 = initial_quantizer(32, num_bins, init, rng=np.random.default_rng(seed)).q
    step = _FusedStep(ch, [lam1], [lam2])
    log_t, [value] = step.evaluate(q0[None], [float(ch.p_yr @ -xlogy(q0, q0).sum(axis=0))])
    res = optimize(ch, lam1, lam2, 32, init=init, max_iter=5, seed=seed)
    assert res.lagrangian_trace[:2] == [value, *step.advance(log_t)[3]]
    q = res.q_final.q
    assert q.flags.c_contiguous and not q.flags.writeable
    assert np.max(np.abs(q.sum(axis=0) - 1.0)) <= 1e-15


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


def test_optimize_converges_at_slow_small_multiplier_point(bpsk):
    """A point whose plain iteration converges slowly: the accelerated solve
    converges, keeps its trace non-decreasing and stops where one more plain
    step barely moves L."""
    eps, lam = 1e-8, 0.0123
    res = optimize(bpsk, lam, lam, 32, eps=eps, seed=3)
    assert res.converged
    assert res.extrapolations_accepted > 0
    tol = eps * (1 + abs(res.lagrangian_trace[-1]))
    assert res.gap_estimate is not None and res.gap_estimate < tol
    trace = np.asarray(res.lagrangian_trace)
    slack = 1e-10 * np.maximum(1.0, np.abs(trace[:-1]))
    assert np.all(np.diff(trace) >= -slack)
    q_next = update_q(delta_matrix(bpsk, induced_posteriors(bpsk, res.q_final), lam, lam))
    assert abs(lagrangian(bpsk, q_next, lam, lam) - lagrangian(bpsk, res.q_final, lam, lam)) \
        < 10 * eps


def test_optimize_does_not_stop_on_a_lull_between_jumps(bpsk):
    """A restart of the default sweep at (0.005337, 0.001) whose cycle gains
    can drop from 4.1e-7 to 2.4e-8 in one cycle while its plain steps still
    shrink by only 0.73: it goes on past that lull and ends above where the
    plain map stops from the same start (1.4006865 bits)."""
    res = optimize(bpsk, 0.005336699231206312, 0.001, 32, seed=2900726253)
    assert res.converged
    assert res.lagrangian_trace[-1] > 1.4006865082416593


def test_optimize_stops_near_its_limit(bpsk):
    """A solve whose cycle gains shrink faster than its plain steps ends
    within 1e-6 bits of where the same start ends at eps 1e-13; a rho taken
    from the cycle gains alone leaves it 3.5e-6 bits short."""
    args = (bpsk, 0.02848035868435802, 0.06579332246575682, 32)
    res = optimize(*args, seed=449443241)
    limit = optimize(*args, seed=449443241, eps=1e-13)
    assert res.converged and limit.converged
    assert 0.0 <= limit.lagrangian_trace[-1] - res.lagrangian_trace[-1] < 1e-6


def test_optimize_max_iter_caps_map_evaluations(bpsk, monkeypatch):
    """Every map evaluation goes through _FusedStep.advance; max_iter = k
    allows at most k of them, and iterations counts them exactly."""
    calls = []
    advance = _FusedStep.advance

    def counted(self, log_t):
        calls.append(1)
        return advance(self, log_t)

    monkeypatch.setattr(_FusedStep, "advance", counted)
    for k in list(range(1, 40)) + [57, 58, 59, 60]:
        calls.clear()
        res = optimize(bpsk, 0.0123, 0.0123, 32, eps=1e-12, max_iter=k, seed=3)
        assert len(calls) == res.iterations <= k
        assert not res.converged
    assert res.extrapolations_tried > 0


def test_huge_multipliers_give_a_zero_k_quietly(fx):
    """Multipliers near the largest float overflow lam1 + lam2, quietly: K is
    zero, so the first step makes every column uniform and the solve stops
    there."""
    step = _FusedStep(fx, [1e308], [1e308])
    assert not step.k.any()
    res = optimize(fx, 1e308, 1e308, 2, seed=1)
    assert res.converged and np.array_equal(res.q_final.q, np.full((2, 3), 0.5))


def test_squarem_step_length_is_capped(bpsk):
    """The extrapolation's step length is |r|/|v| clipped to [1, max_step],
    and a unit step gives the last iterate's exponents back."""
    step = _FusedStep(bpsk, [0.0123], [0.0123])
    q = initial_quantizer(32, bpsk.num_bins, rng=np.random.default_rng(3)).q
    log_t, _ = step.evaluate(q[None], [float(bpsk.p_yr @ -xlogy(q, q).sum(axis=0))])
    for _ in range(20):
        q, s, log_t, _, _ = step.advance(log_t)
    chain = [s]
    for _ in range(2):
        q, s, log_t, _, _ = step.advance(log_t)
        chain.append(s)
    x_free, [free] = _squarem_exponents(*chain, q, bpsk.p_yr, [math.inf])
    assert free > 4.0
    x_capped, [capped] = _squarem_exponents(*chain, q, bpsk.p_yr, [4.0])
    assert capped == 4.0 and not np.array_equal(x_capped, x_free)
    x_unit, [unit] = _squarem_exponents(*chain, q, bpsk.p_yr, [1.0])
    assert unit == 1.0
    assert np.max(np.abs(x_unit - chain[2])) < 1e-9


def test_squarem_step_cap_sequence(bpsk, monkeypatch):
    """The cap on the step length is 1 for the first cycle, then a power of 4
    that is at least 4, and from cycle to cycle it stays or moves by one
    factor of 4.  The solve is a batch of one, so each call passes one cap."""
    caps = []
    squarem = optimizer._squarem_exponents

    def recorded(*args):
        caps.extend(args[-1])
        return squarem(*args)

    monkeypatch.setattr(optimizer, "_squarem_exponents", recorded)
    optimize(bpsk, 0.0123, 0.0123, 32, seed=3)
    assert caps[0] == 1.0 and len(caps) > 2
    powers = {4.0 ** k for k in range(1, 64)}
    assert all(cap in powers for cap in caps[1:])
    assert all(b in (a, 4.0 * a, a / 4.0) for a, b in zip(caps, caps[1:]))


def test_optimize_rejects_bad_arguments(fx):
    with pytest.raises(ValueError):
        optimize(fx, 0.0, 0.5, 2)
    with pytest.raises(ValueError):
        optimize(fx, 0.5, -0.1, 2)
    for eps in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            optimize(fx, 0.5, 0.5, 2, eps=eps)
    with pytest.raises(ValueError):
        optimize(fx, 0.5, 0.5, 0)


def test_optimize_max_iter_flagged_not_fatal(fx):
    res = optimize(fx, 0.3, 0.3, 2, eps=1e-14, max_iter=1, seed=0)
    assert not res.converged
    assert res.iterations == 1


def test_stopped_rule_decisions():
    # a rising step under eps * (1 + |L|) stops, even where it exceeds eps * L,
    # when the steps shrink fast (rho = 0.5: the gap estimate is the step itself)
    assert _stopped(1.4, 2.28e-8, _remaining_gap(2.28e-8, _ratio(2.28e-8, 4.56e-8)), 1e-8)
    assert not _stopped(1.4, 3e-8, _remaining_gap(3e-8, _ratio(3e-8, 6e-8)), 1e-8)
    # the same step with rho = 0.99 leaves about 100 steps to climb: no stop
    assert not _stopped(1.4, 2.28e-8, _remaining_gap(2.28e-8, 0.99), 1e-8)
    # a shrinking step (rho = 0.5) under tol stops
    assert _stopped(1.4, 1e-8, _remaining_gap(1e-8, _ratio(1e-8, 2e-8)), 1e-8)
    # steps that are not shrinking (rho >= 1) never stop, however small
    assert _remaining_gap(1e-15, _ratio(1e-15, 1e-15)) == math.inf
    assert not _stopped(1.4, 1e-15, _remaining_gap(1e-15, _ratio(1e-15, 5e-16)), 1e-8)
    # a nonzero step after a zero one is not shrinking either
    assert _ratio(1e-15, 0.0) == math.inf
    # at L <= 0 a large fall is compared by magnitude and does not stop
    assert not _stopped(-0.5, -1.0, _remaining_gap(-1.0, _ratio(-1.0, -2.0)), 1e-8)
    # a step of exactly zero leaves nothing to climb
    assert _ratio(0.0, 0.0) == 0.0
    assert _stopped(0.0, 0.0, _remaining_gap(0.0, _ratio(0.0, 0.0)), 1e-8)
    # once cycles run, rho is the larger of the cycle ratio and the ratio of
    # the cycle's two plain steps: a cycle gain of 2.3e-8 at L = 1.4 after one
    # of 4.1e-7 (cycle ratio 0.056) stops on the cycle ratio alone, but not
    # with plain steps shrinking by 0.73
    cycle_rho = _ratio(2.3e-8, 4.1e-7)
    assert _stopped(1.4, 2.3e-8, _remaining_gap(2.3e-8, cycle_rho), 1e-8)
    assert not _stopped(1.4, 2.3e-8, _remaining_gap(2.3e-8, max(cycle_rho, 0.73)), 1e-8)


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

    step = _FusedStep(ch, [lam1], [lam2])
    log_t, [value] = step.evaluate(q.q[None], [float(ch.p_yr @ -xlogy(q.q, q.q).sum(axis=0))])
    [got_q], _, _, [value_next], failures = step.advance(log_t)
    assert failures == {}

    got_delta = log_t[0].T @ step.k[0]
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
    step = _FusedStep(fx, [0.5], [0.5])
    # Row 1 of delta = log_t.T @ K turns non-finite; the softmax's column
    # shift would spread it to row 0, so (1, 0) is the unshifted location.
    for bad in (np.nan, np.inf, -np.inf):
        log_t = np.zeros((1, step.k.shape[1], 2))
        log_t[0, 1, 1] = bad
        failures = step.advance(log_t)[4]
        assert list(failures) == [0] and type(failures[0]) is FloatingPointError
        assert "(1, 0)" in str(failures[0])


def test_softmax_refuses_nonfinite_column_maxima(fx):
    """softmax, and so jump, refuses exponents with a NaN, +inf or all -inf
    column, quietly; -inf below a finite maximum only sits at the floor.  In
    a batch, it lists the refused slices and gives the others their softmax
    alone."""
    step = _FusedStep(fx, [0.5], [0.5])
    good = np.array([[[0.0, -1.0, -3.0], [-2.0, 0.0, 0.0]]])
    alone = step.softmax(good.copy())
    for column in ([np.nan, 0.0], [np.inf, 0.0], [-np.inf, -np.inf]):
        s = good.copy()
        s[0, :, 1] = column
        assert step.softmax(s.copy())[3] == [0] and step.jump(s.copy())[1] == [0]
        q, exponents, z, refused = step.softmax(np.concatenate([s, good, s]))
        assert refused == [0, 2]
        assert all(np.array_equal(a[1:2], b) for a, b in zip((q, exponents, z), alone))
    q, exponents, z, refused = step.softmax(np.array([[[0.0, -np.inf], [-np.inf, 0.0]]]))
    assert not refused
    assert np.array_equal(exponents, [[[0.0, EXP_FLOOR], [EXP_FLOOR, 0.0]]])


def _floored_exponents(delta):
    """delta shifted by its column maxima and raised to EXP_FLOOR."""
    return np.maximum(delta - delta.max(axis=0, keepdims=True), EXP_FLOOR)


class _UnfusedStep:
    """The step interface optimize() drives on its batch of one (k, evaluate,
    advance, jump), spelled with the unfused induced_posteriors,
    delta_matrix, update_q and lagrangian.  Its state in place of the fused
    log-posteriors is the quantizer itself, and its k is only finite, so no
    solve fails at the start.  Arrays go in and out with a batch axis of
    one, the quantizer as a list of one."""

    k = np.zeros((1, 1, 1))

    def __init__(self, ch, lam1, lam2):
        self.ch, (self.lam1,), (self.lam2,) = ch, lam1, lam2

    def evaluate(self, q, h_i_given_y):
        q = QuantizerPmf(q[0])
        return [q], [lagrangian(self.ch, q, self.lam1, self.lam2)]

    def advance(self, state):
        delta = delta_matrix(self.ch, induced_posteriors(self.ch, state[0]), self.lam1, self.lam2)
        q = update_q(delta)
        return (q.q[None], _floored_exponents(delta)[None], [q],
                [lagrangian(self.ch, q, self.lam1, self.lam2)], {})

    def jump(self, s):
        if not np.isfinite(s.max(axis=-2)).all():
            return None, [0]
        e = np.exp(_floored_exponents(s[0]))
        return [QuantizerPmf(e / e.sum(axis=0))], []


@pytest.mark.parametrize("case", ["fixture-a", "fixture-b", "fixture-dead-level", "bpsk",
                                  "bpsk-small-multiplier"])
def test_optimize_trajectory_matches_reference(case, fx, bpsk, monkeypatch):
    """optimize() with its fused step against optimize() driving the unfused
    functions: the same extrapolation and stopping rule, so the same map
    evaluations, every trace entry and the final q within 1e-9."""
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
    monkeypatch.setattr(optimizer, "_FusedStep", _UnfusedStep)
    want = optimize(ch, lam1, lam2, levels, **kwargs)
    counts = ("iterations", "converged", "extrapolations_tried", "extrapolations_accepted")
    assert [getattr(res, k) for k in counts] == [getattr(want, k) for k in counts]
    tried, accepted = res.extrapolations_tried, res.extrapolations_accepted
    assert len(res.lagrangian_trace) - 1 == res.iterations - (tried - accepted)
    if case.startswith("bpsk"):
        assert accepted > 0  # the extrapolation is exercised
    assert len(res.lagrangian_trace) == len(want.lagrangian_trace)
    assert np.max(np.abs(np.subtract(res.lagrangian_trace, want.lagrangian_trace))) < 1e-9
    assert np.max(np.abs(res.q_final.q - want.q_final.q)) < 1e-9
    if case == "fixture-dead-level":
        assert res.q_final.q[3].max() < 1e-250
    if case == "bpsk-small-multiplier":
        tiny = np.finfo(float).tiny  # the smallest normal float
        assert np.count_nonzero((want.q_final.q > 0) & (want.q_final.q < tiny)) > 0
        assert np.count_nonzero(res.q_final.q < tiny) == 0
        # and its products with N, the left factor of num = N @ q.T, stay normal too
        products = _FusedStep(ch, [lam1], [lam2]).num[:, None, :] * res.q_final.q
        assert np.count_nonzero((products > 0) & (products < tiny)) == 0


def test_fused_step_reuses_channel_matrices():
    """Steps on one channel share its multiplier-free matrices, and a step
    read from that cache computes bit for bit what a step on a fresh copy of
    the channel computes."""
    ch = build_bpsk_mac(1.5, 4.5, 128)
    q = np.random.default_rng(5).dirichlet(np.ones(32), size=ch.num_bins).T[None]
    first = _FusedStep(ch, [0.5], [0.2])
    log_t, _ = first.evaluate(q, [0.3])
    first.advance(log_t)
    cached = _FusedStep(ch, [0.1], [0.4])
    fresh = _FusedStep(build_bpsk_mac(1.5, 4.5, 128), [0.1], [0.4])
    assert cached.num is first.num and cached.sums is first.sums
    assert fresh.num is not first.num
    assert np.array_equal(cached.k, fresh.k)
    (log_c, value_c), (log_f, value_f) = cached.evaluate(q, [0.3]), fresh.evaluate(q, [0.3])
    assert np.array_equal(log_c, log_f) and value_c == value_f
    # the whole step (q, exponents, log_t, Lagrangian), and the softmax
    # output (q, exponents, z) that its H(Yhat|Yr) comes from
    for got, want in [(cached.advance(log_c), fresh.advance(log_f)),
                      (cached.softmax(log_c.mT @ cached.k), fresh.softmax(log_f.mT @ fresh.k))]:
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
