"""Iterative fixed-point search for a stationary quantizer of the Lagrangian.

Each iteration holds the four posteriors induced by the current Q fixed,
minimizes the surrogate functional over Q in closed form (a column softmax),
then refreshes the posteriors.  Both half-steps are exact coordinate
minimizations, so the Lagrangian trace never decreases.

optimize() runs each iteration as one fused step on raw arrays (_FusedStep)
made of constant-matrix products.  With P = p(x1, x2, y) viewed as a
|X1||X2| x |Yr| matrix, the step stacks every posterior it needs as rows:
t1 and t2 (one row per input pair), t3 (per x1) and t4 (per x2).

- num = N @ q.T gives every numerator (N stacks P, P, p(y|x1) and p(y|x2))
  and den = S @ num every denominator: S sums g over x1 in t1 rows and over
  x2 in t2 rows, and is zero in t3/t4 rows.  One division
  (num + mask/|X|) / (den + mask), mask = (den == 0), applies the uniform
  placeholder where the conditioning event is empty and divides t3/t4 by 1.
- One maximum and one log over the block give every floored log-posterior.
- The rates of the Lagrangian are the same logs weighted by the joint,
  e.g. I(X1;Yhat|X2) = H(X1) + sum g log t1 and I(Yr;Yhat|X1) =
  -sum p(x1, yhat) log t3 - H(Yhat|Yr): one weighted sum over the rows.
- p(x1, y_j) = sum_b P[ab, j], so the four log-posterior terms of delta fold
  into one constant matrix K = C.T P', with C the per-segment coefficients
  (1, 1, lam1, lam2) and P' = P / ((lam1 + lam2) p(y)): delta = log_t.T @ K.
- The softmax takes exp of max(s, EXP_FLOOR), s the max-shifted exponents.
  Without the floor, dead levels sink to exp(-700) and below: subnormal
  floats, on which exp and the next N @ q.T run many times slower.  The
  floor keeps q and its products with N normal and moves no entry above
  e**-600 = 2.6e-261.
- H(Yhat|Yr) comes from the softmax's own log-partition: with
  z_j = sum_i exp(s_ij), H(q[:, j]) = log z_j - sum_i q_ij s_ij, taken over
  the unclamped s.  It is finite exactly when delta is, so it doubles as the
  step's non-finite check; clamping s itself would hide a -inf.

N, S, the row weights and the multiplier-free blocks of K depend on the
channel alone; they are built on a channel's first solve and kept on it
(_channel_matrices).  Each solve builds only K.

induced_posteriors, delta_matrix, update_q and lagrangian are the unfused
definitions of the same iteration.  The tests compare the fused step with
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from qfrelay.channel import ChannelModel, _readonly
from qfrelay.infotheory import LN2, QuantizerPmf, RateReport, _entropy_nats, rate_report

# Posterior entries of exactly zero are clamped here before the log; the
# resulting -690 nat penalty keeps dead levels dead without producing inf.
LOG_FLOOR = 1e-300
# The softmax raises exponents below this to it before exp.  e**-600 = 2.6e-261
# keeps q and its products with the channel matrices (entries down to 7.7e-23
# on the default BPSK channel) normal floats; log(LOG_FLOOR) = -690.8 would not.
EXP_FLOOR = -600.0

INIT_STRATEGIES = ("perturbed-uniform", "random", "identity")


@dataclass(frozen=True)
class Posteriors:
    """Conditional laws induced by the current quantizer.

    t1[a, b, i] = p(x1=a | yhat_i, x2=b)   normalized over a
    t2[a, b, i] = p(x2=b | yhat_i, x1=a)   normalized over b
    t3[i, a]    = p(yhat_i | x1=a)
    t4[i, b]    = p(yhat_i | x2=b)

    Slices of t1/t2 whose conditioning event has zero probability are filled
    with a uniform placeholder pmf and flagged in the corresponding mask.
    """

    t1: np.ndarray
    t2: np.ndarray
    t3: np.ndarray
    t4: np.ndarray
    t1_placeholder: np.ndarray  # boolean (|X2|, L), true where p(x2, yhat) = 0
    t2_placeholder: np.ndarray  # boolean (|X1|, L), true where p(x1, yhat) = 0


@dataclass(frozen=True)
class OptimizerResult:
    q_final: QuantizerPmf
    report: RateReport
    lagrangian_trace: list
    iterations: int
    converged: bool
    seed: int


def induced_posteriors(ch: ChannelModel, q: QuantizerPmf) -> Posteriors:
    """Posteriors of the joint p(x1)p(x2)p(y|x1,x2)q(yhat|y) via Bayes."""
    if q.num_bins != ch.num_bins:
        raise ValueError(
            f"quantizer has {q.num_bins} columns, channel has {ch.num_bins} bins"
        )
    qm = q.q
    num_x1, num_x2 = ch.num_x1, ch.num_x2

    joint_abi = np.einsum("abj,ij->abi", ch.p_x1x2_yr, qm)
    p_bi = joint_abi.sum(axis=0)  # (|X2|, L)
    p_ai = joint_abi.sum(axis=1)  # (|X1|, L)

    t1_mask = p_bi == 0
    t2_mask = p_ai == 0
    t1 = np.where(t1_mask[None, :, :], 1.0 / num_x1,
                  joint_abi / np.where(t1_mask, 1.0, p_bi)[None, :, :])
    t2 = np.where(t2_mask[:, None, :], 1.0 / num_x2,
                  joint_abi / np.where(t2_mask, 1.0, p_ai)[:, None, :])

    t3 = qm @ ch.p_yr_given_x1.T  # (L, |X1|)
    t4 = qm @ ch.p_yr_given_x2.T  # (L, |X2|)

    return Posteriors(
        t1=_readonly(t1),
        t2=_readonly(t2),
        t3=_readonly(t3),
        t4=_readonly(t4),
        t1_placeholder=t1_mask.copy(),
        t2_placeholder=t2_mask.copy(),
    )


def delta_matrix(ch: ChannelModel, post: Posteriors, lam1: float, lam2: float) -> np.ndarray:
    """Exponent matrix of the closed-form column update.

    delta[i, j] combines the objective gradient against the fixed posteriors
    with the multiplier-weighted description-rate terms, scaled by
    1 / ((lam1 + lam2) p(y_j)).  Zero-mass output bins get a constant column
    so the subsequent softmax leaves them uniform.
    """
    if lam1 + lam2 <= 0:
        raise ValueError(f"lam1 + lam2 must be positive, got ({lam1}, {lam2})")

    log_t1 = np.log(np.maximum(post.t1, LOG_FLOOR))
    log_t2 = np.log(np.maximum(post.t2, LOG_FLOOR))
    log_t3 = np.log(np.maximum(post.t3, LOG_FLOOR))
    log_t4 = np.log(np.maximum(post.t4, LOG_FLOOR))

    d_obj = np.einsum("abj,abi->ij", ch.p_x1x2_yr, log_t1 + log_t2)

    p_a_y = ch.p_x1[:, None] * ch.p_yr_given_x1  # p(x1, y_j)
    p_b_y = ch.p_x2[:, None] * ch.p_yr_given_x2  # p(x2, y_j)
    term1 = np.einsum("aj,ia->ij", p_a_y, log_t3)
    term2 = np.einsum("bj,ib->ij", p_b_y, log_t4)

    py = ch.p_yr
    alive = py > 0
    delta = np.zeros_like(d_obj)
    scale = (lam1 + lam2) * py[alive]
    delta[:, alive] = (d_obj[:, alive] + lam1 * term1[:, alive]
                       + lam2 * term2[:, alive]) / scale[None, :]
    return delta


def update_q(delta: np.ndarray) -> QuantizerPmf:
    """Column-wise softmax of delta with max-subtraction stabilization."""
    delta = np.asarray(delta, dtype=float)
    bad = np.argwhere(~np.isfinite(delta))
    if bad.size:
        i, j = bad[0]
        raise FloatingPointError(f"delta has non-finite entry at ({i}, {j})")
    shifted = delta - delta.max(axis=0, keepdims=True)
    expd = np.exp(shifted)
    return QuantizerPmf(expd / expd.sum(axis=0, keepdims=True))


def initial_quantizer(num_levels: int, num_bins: int, init: str = "perturbed-uniform",
                      rng: np.random.Generator | None = None) -> QuantizerPmf:
    """Starting point for the iteration.

    Exact uniform Q is a stationary point of the update, so the default mixes
    a small Dirichlet perturbation into each uniform column.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if init == "perturbed-uniform":
        q = 0.9 / num_levels + 0.1 * rng.dirichlet(np.ones(num_levels), size=num_bins).T
    elif init == "random":
        q = rng.dirichlet(np.ones(num_levels), size=num_bins).T
    elif init == "identity":
        if num_levels < num_bins:
            raise ValueError(
                f"identity init needs num_levels >= num_bins, got {num_levels} < {num_bins}"
            )
        q = np.zeros((num_levels, num_bins))
        q[:num_bins, :] = np.eye(num_bins)
    else:
        raise ValueError(f"unknown init strategy {init!r}; choose from {INIT_STRATEGIES}")
    return QuantizerPmf(q)


class _ChannelMatrices:
    """The parts of _FusedStep that depend on the channel alone: N, S, the row
    weights, the placeholder fill, H(X1), H(X2) and the blocks of K before
    the multipliers and the 1/p(y) scale."""

    def __init__(self, ch: ChannelModel):
        a, b, ab = ch.num_x1, ch.num_x2, ch.num_x1 * ch.num_x2
        p = ch.p_x1x2_yr.reshape(ab, -1)
        self.num = np.concatenate([p, p, ch.p_yr_given_x1, ch.p_yr_given_x2])
        # K's rows before scaling: P twice (coefficient 1), p(x1, y), p(x2, y).
        self.k_blocks = (self.num[:2 * ab], ch.p_x1x2_yr.sum(axis=1), ch.p_x1x2_yr.sum(axis=0))
        row_a, row_b = np.divmod(np.arange(ab), b)
        self.sums = np.zeros((len(self.num), len(self.num)))
        self.sums[:ab, :ab] = row_b[:, None] == row_b
        self.sums[ab:2 * ab, :ab] = row_a[:, None] == row_a
        # Row weights of the four rate sums: g for t1 and t2, p(xk) for t3, t4.
        self.weights = w = np.zeros((4, len(self.num)))
        w[0, :ab] = w[1, ab:2 * ab] = 1.0
        w[2, 2 * ab:2 * ab + a], w[3, 2 * ab + a:] = ch.p_x1, ch.p_x2
        self.fill = (w[0] / a + w[1] / b)[:, None]
        self.h_x1, self.h_x2 = _entropy_nats(ch.p_x1), _entropy_nats(ch.p_x2)
        for arr in (self.num, *self.k_blocks, self.sums, self.weights, self.fill):
            arr.flags.writeable = False


def _channel_matrices(ch: ChannelModel) -> _ChannelMatrices:
    """ch's _ChannelMatrices, built on its first solve and kept on the instance;
    a ChannelModel is frozen and its arrays are read-only, so they stay valid."""
    m = ch.__dict__.get("_step_matrices")
    if m is None:
        m = _ChannelMatrices(ch)
        object.__setattr__(ch, "_step_matrices", m)
    return m


class _FusedStep:
    """The fixed-point iteration on raw arrays for a fixed (channel, lam1, lam2).

    evaluate(q, h) gives the (R, L) floored log-posteriors of q, rows t1 | t2
    | t3 | t4 with R = 2|X1||X2| + |X1| + |X2|, and the Lagrangian of q;
    update(log_t) gives the next quantizer and its H(Yhat|Yr).
    update(evaluate(q, h)[0])[0] is the q of
    update_q(delta_matrix(ch, induced_posteriors(ch, q), lam1, lam2)), and
    evaluate(q, h)[1] is lagrangian(ch, q, lam1, lam2), both up to rounding.
    """

    def __init__(self, ch: ChannelModel, lam1: float, lam2: float):
        m = _channel_matrices(ch)
        self.num, self.sums, self.weights, self.fill = m.num, m.sums, m.weights, m.fill
        self.h_x1, self.h_x2, self.p_yr = m.h_x1, m.h_x2, ch.p_yr
        # Dead bins get a zero column of K, so the softmax leaves them uniform.
        # Multipliers near the smallest float overflow 1/scale; update then
        # reports the non-finite delta instead of running the softmax.
        scale = (lam1 + lam2) * ch.p_yr
        with np.errstate(over="ignore", invalid="ignore"):
            inv = np.divide(1.0, scale, out=np.zeros_like(scale), where=scale > 0)
            pp, p_ay, p_by = m.k_blocks
            self.k = np.concatenate([pp, lam1 * p_ay, lam2 * p_by]) * inv
        self.finite_k = bool(np.isfinite(self.k).all())
        self.lam1, self.lam2 = lam1, lam2

    def evaluate(self, q: np.ndarray, h_i_given_y: float) -> tuple:
        """(log_t, Lagrangian in bits) of the (L, |Yr|) quantizer q, given its
        H(Yhat|Yr) in nats, with the placeholder and floor rules of
        induced_posteriors and delta_matrix."""
        num = self.num @ q.T
        den = self.sums @ num
        mask = den == 0
        t = num + mask * self.fill
        t /= den + mask
        log_t = np.log(np.maximum(t, LOG_FLOOR, out=t), out=t)
        # sum g log t1, sum g log t2, sum p(x1, yhat) log t3, sum p(x2, yhat) log t4
        s1, s2, s3, s4 = self.weights @ np.einsum("ri,ri->r", num, log_t)
        r1 = max(0.0, self.h_x1 + s1)
        r2 = max(0.0, self.h_x2 + s2)
        c1 = max(0.0, -s3 - h_i_given_y)
        c2 = max(0.0, -s4 - h_i_given_y)
        value = (r1 + r2) / LN2 - self.lam1 * (c1 / LN2) - self.lam2 * (c2 / LN2)
        return log_t, value

    def update(self, log_t: np.ndarray) -> tuple:
        """(q, H(Yhat|Yr) in nats) of the column softmax of delta = log_t.T @ K."""
        if self.finite_k:
            s = log_t.T @ self.k
            m = s.max(axis=0)
            if math.isfinite(m.max()):
                s -= m
                q = np.exp(np.maximum(s, EXP_FLOOR))
                z = q.sum(axis=0)
                q /= z
                h_i_given_y = float(self.p_yr @ (np.log(z) - np.einsum("ij,ij->j", q, s)))
                if math.isfinite(h_i_given_y):
                    return q, h_i_given_y
        # The softmax runs only on a finite K and when no column maximum is NaN
        # or +inf, so the shift makes no inf - inf.  A -inf left in delta gets
        # q = e**EXP_FLOOR / z > 0 and makes h infinite, so h is finite exactly
        # when delta is.  Finite deltas are <= 0 up to rounding (log t <= 0,
        # K >= 0), so the shift cannot overflow.  The failure path recomputes
        # the unshifted delta, quietly, to name its first non-finite entry.
        with np.errstate(over="ignore", invalid="ignore"):
            i, j = np.argwhere(~np.isfinite(log_t.T @ self.k))[0]
        raise FloatingPointError(f"delta has non-finite entry at ({i}, {j})")


def _stopped(l_now: float, l_prev: float, eps: float) -> bool:
    diff = l_now - l_prev
    tol = eps * (1.0 + abs(l_now))
    return diff < tol if l_now > 0 else abs(diff) < tol


def optimize(ch: ChannelModel, lam1: float, lam2: float, num_levels: int,
             init: str = "perturbed-uniform", eps: float = 1e-8,
             max_iter: int = 5000, seed: int = 0) -> OptimizerResult:
    """Run the alternating update from one seeded start.

    Both multipliers must be strictly positive; the unpenalized objective is
    approached with small multipliers instead of zero ones because the update
    divides by lam1 + lam2.  A run converges once its Lagrangian L rises by
    less than eps * (1 + |L|) in one step; while L > 0 any fall counts as
    converged too, while L <= 0 the step's magnitude is compared instead.
    Hitting max_iter returns converged=False rather than raising.
    """
    if not (lam1 > 0 and lam2 > 0):
        raise ValueError(f"multipliers must be strictly positive, got ({lam1}, {lam2})")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    if num_levels < 1:
        raise ValueError(f"num_levels must be at least 1, got {num_levels}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")

    rng = np.random.default_rng(seed)
    q = initial_quantizer(num_levels, ch.num_bins, init=init, rng=rng).q
    step = _FusedStep(ch, lam1, lam2)
    # The start is not a softmax output, so its H(Yhat|Yr) is computed directly.
    log_t, value = step.evaluate(q, float(ch.p_yr @ -xlogy(q, q).sum(axis=0)))
    trace = [value]

    converged = False
    iterations = 0
    for _ in range(max_iter):
        q, h_i_given_y = step.update(log_t)
        log_t, value = step.evaluate(q, h_i_given_y)
        trace.append(value)
        iterations += 1
        if _stopped(trace[-1], trace[-2], eps):
            converged = True
            break

    q_final = QuantizerPmf(q)
    return OptimizerResult(
        q_final=q_final,
        report=rate_report(ch, q_final),
        lagrangian_trace=trace,
        iterations=iterations,
        converged=converged,
        seed=int(seed),
    )


def optimize_restarts(ch: ChannelModel, lam1: float, lam2: float, num_levels: int,
                      restarts: int = 4, init: str = "perturbed-uniform",
                      eps: float = 1e-8, max_iter: int = 5000,
                      seed: int = 0) -> OptimizerResult:
    """Best of several seeded runs; the limit point depends on the start.

    Restart r runs with the seed derived from SeedSequence((seed, r)), and the
    winning result keeps that derived seed so the exact run can be replayed
    with optimize() alone.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    best = None
    for r in range(restarts):
        child = int(np.random.SeedSequence((seed, r)).generate_state(1)[0])
        res = optimize(ch, lam1, lam2, num_levels, init=init, eps=eps,
                       max_iter=max_iter, seed=child)
        if best is None or res.lagrangian_trace[-1] > best.lagrangian_trace[-1]:
            best = res
    return best
