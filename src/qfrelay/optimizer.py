"""Iterative fixed-point search for a stationary quantizer of the Lagrangian.

Each plain step (one application of the map F) holds the four posteriors
induced by the current Q fixed, minimizes the surrogate functional over Q in
closed form (a column softmax), then refreshes the posteriors.  Both
half-steps are exact coordinate minimizations, so no plain step lowers the
Lagrangian.

F converges linearly, with a rate near 1 at small multipliers, so once its
steps slow down optimize() accelerates it with squared extrapolation (SQUAREM
cycles with a capped step length) and stops on an estimate of the gap left to
the limit (see optimize()).

optimize() runs each plain step as one fused step on raw arrays (_FusedStep)
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

from qfrelay.channel import ChannelModel, _readonly
from qfrelay.infotheory import (LN2, QuantizerPmf, RateReport, _entropy_nats, _plogp,
                                 rate_report)

# Posterior entries of exactly zero are clamped here before the log; the
# resulting -690 nat penalty keeps dead levels dead without producing inf.
LOG_FLOOR = 1e-300
# The softmax raises exponents below this to it before exp.  e**-600 = 2.6e-261
# keeps q and its products with the channel matrices (entries down to 7.7e-23
# on the default BPSK channel) normal floats; log(LOG_FLOOR) = -690.8 would not.
EXP_FLOOR = -600.0

# The extrapolation engages at the first plain step, from the
# SQUAREM_MIN_STEPS-th on, that is larger than SQUAREM_GATE_RATIO times the one
# before: a solve still shrinking its steps fast gains nothing from it.
SQUAREM_MIN_STEPS = 10
SQUAREM_GATE_RATIO = 0.5
# The extrapolation's step length |alpha| is capped, as by step.max in
# Varadhan & Roland's SQUAREM package.  The cap is 1 for the first cycle; a
# step at the cap multiplies it by SQUAREM_STEP_FACTOR if kept and divides it
# by SQUAREM_STEP_FACTOR, never below SQUAREM_STEP_FACTOR, if rejected.
# Uncapped, a solve crawling at a plain-step ratio of 0.997 proposed |alpha|
# near 300 and had the candidate rejected in most cycles: the jump also blows
# up the faster modes.
SQUAREM_STEP_FACTOR = 4.0

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
    iterations: int  # map evaluations
    converged: bool
    seed: int
    # Extrapolated points whose map step was evaluated, and those kept.  Every
    # evaluation but the rejected ones adds one trace value, so
    # len(lagrangian_trace) - 1 == iterations - (tried - accepted).
    extrapolations_tried: int
    extrapolations_accepted: int
    # The last Aitken estimate of the gap left to the limit, in bits; None
    # when the last two steps were not shrinking or fewer than two were taken.
    gap_estimate: float | None


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
    return QuantizerPmf(_initial_draw(num_levels, num_bins, init,
                                      np.random.default_rng(0) if rng is None else rng))


def _initial_draw(num_levels: int, num_bins: int, init: str,
                  rng: np.random.Generator) -> np.ndarray:
    """initial_quantizer's (num_levels, num_bins) matrix before its columns
    are renormalized."""
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
    return q


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
    advance(evaluate(q, h)[0]) takes one plain step and gives the next
    quantizer q', its softmax exponents and evaluate(q', H(q')).  Up to
    rounding, q' is update_q(delta_matrix(ch, induced_posteriors(ch, q), lam1,
    lam2)) and the Lagrangians are lagrangian(ch, q, lam1, lam2) and
    lagrangian(ch, q', lam1, lam2).
    """

    def __init__(self, ch: ChannelModel, lam1: float, lam2: float):
        m = _channel_matrices(ch)
        self.num, self.sums, self.weights, self.fill = m.num, m.sums, m.weights, m.fill
        self.h_x1, self.h_x2, self.p_yr = m.h_x1, m.h_x2, ch.p_yr
        # Dead bins get a zero column of K, so the softmax leaves them uniform.
        # Multipliers near the smallest float overflow 1/scale; advance then
        # reports the non-finite delta instead of running the softmax.
        scale = (lam1 + lam2) * ch.p_yr
        with np.errstate(over="ignore", invalid="ignore"):
            inv = np.divide(1.0, scale, out=np.zeros_like(scale), where=scale > 0)
            pp, p_ay, p_by = m.k_blocks
            self.k = np.concatenate([pp, lam1 * p_ay, lam2 * p_by]) * inv
        self.finite_k = bool(np.isfinite(self.k).all())
        self.lam1, self.lam2 = lam1, lam2

    def log_posteriors(self, q: np.ndarray) -> tuple:
        """(num, log_t): the numerators N @ q.T and the (R, L) floored
        log-posteriors of the (L, |Yr|) quantizer q, with the placeholder and
        floor rules of induced_posteriors and delta_matrix."""
        num = self.num @ q.T
        den = self.sums @ num
        mask = den == 0
        t = num + mask * self.fill
        t /= den + mask
        return num, np.log(np.maximum(t, LOG_FLOOR, out=t), out=t)

    def evaluate(self, q: np.ndarray, h_i_given_y: float) -> tuple:
        """(log_t, Lagrangian in bits) of the (L, |Yr|) quantizer q, given its
        H(Yhat|Yr) in nats."""
        num, log_t = self.log_posteriors(q)
        # sum g log t1, sum g log t2, sum p(x1, yhat) log t3, sum p(x2, yhat) log t4
        s1, s2, s3, s4 = self.weights @ np.einsum("ri,ri->r", num, log_t)
        r1 = max(0.0, self.h_x1 + s1)
        r2 = max(0.0, self.h_x2 + s2)
        c1 = max(0.0, -s3 - h_i_given_y)
        c2 = max(0.0, -s4 - h_i_given_y)
        value = (r1 + r2) / LN2 - self.lam1 * (c1 / LN2) - self.lam2 * (c2 / LN2)
        return log_t, value

    def advance(self, log_t: np.ndarray) -> tuple:
        """One plain step from the iterate whose log-posteriors are log_t:
        (q, its exponents, its log_t, its Lagrangian in bits), q the column
        softmax of delta = log_t.T @ K.  A -inf left in delta gets
        q = e**EXP_FLOOR / z > 0 and makes H(Yhat|Yr) infinite, so that
        entropy is finite exactly when delta is; a non-finite delta raises
        FloatingPointError naming its first non-finite entry."""
        if self.finite_k:
            s = log_t.T @ self.k
            out = self.softmax(s)
            if out is not None:
                q, exponents, z = out
                h_i_given_y = float(self.p_yr @ (np.log(z) - np.einsum("ij,ij->j", q, s)))
                if math.isfinite(h_i_given_y):
                    return (q, exponents, *self.evaluate(q, h_i_given_y))
        # The softmax runs only on a finite K.  Finite deltas are <= 0 up to
        # rounding (log t <= 0, K >= 0), so its shift cannot overflow.  The
        # failure path recomputes the unshifted delta, quietly, to name its
        # first non-finite entry.
        with np.errstate(over="ignore", invalid="ignore"):
            i, j = np.argwhere(~np.isfinite(log_t.T @ self.k))[0]
        raise FloatingPointError(f"delta has non-finite entry at ({i}, {j})")

    def jump(self, s: np.ndarray):
        """The log-posteriors of the floored column softmax of the exponents
        s (overwritten), or None where softmax refuses s."""
        out = self.softmax(s)
        return None if out is None else self.log_posteriors(out[0])[1]

    @staticmethod
    def softmax(s: np.ndarray):
        """(q, exponents, z) of the column softmax of s: exponents are s minus
        its column maxima (in place) raised to EXP_FLOOR, and
        q = exp(exponents) / z.  None where a column maximum is NaN or +-inf,
        as a non-finite delta or an overflowed extrapolation gives."""
        m = s.max(axis=0)
        if not np.logical_and.reduce(np.isfinite(m)):  # isfinite(m).all() minus a wrapper call
            return None
        s -= m
        exponents = np.maximum(s, EXP_FLOOR)
        q = np.exp(exponents)
        z = q.sum(axis=0)
        q /= z
        return q, exponents, z


def _fisher_sq(x: np.ndarray, q: np.ndarray, w: np.ndarray, p_yr: np.ndarray) -> float:
    """sum_j p(y_j) Var_{q[:, j]}(x[:, j]) = sum w x**2 - sum_j p(y_j) m_j**2,
    with w = q p(y) and m_j the q[:, j]-mean of x[:, j]: the squared length
    of the log-domain move x in the Fisher metric of the channel
    q(yhat|y) p(y), raised to 0 where rounding takes it below.  Levels q
    leaves dead weigh nothing, and neither does a column constant in x, which
    the softmax normalization absorbs."""
    m = np.einsum("ij,ij->j", q, x)
    return max(0.0, float(np.vdot(w * x, x) - p_yr @ (m * m)))


def _squarem_exponents(s0: np.ndarray, s1: np.ndarray, s2: np.ndarray,
                       q2: np.ndarray, p_yr: np.ndarray, max_step: float) -> tuple:
    """(s0 - 2 alpha r + alpha**2 v, -alpha), the squared extrapolation
    (SQUAREM, Varadhan & Roland 2008) of three consecutive iterates
    q1 = F(q0), q2 = F(q1) given as their floored softmax exponents s0, s1,
    s2 (log q up to a column constant, raised to EXP_FLOOR), with
    r = s1 - s0, v = s2 - 2 s1 + s0 and the step length
    -alpha = |r|/|v| clipped to [1, max_step]; 1 where v = 0.  A unit step
    gives s2 itself.

    The lengths are taken in the Fisher metric of q2 (_fisher_sq).  In plain
    Euclidean lengths, r and v are dominated by dying levels sinking through
    log q = -500 towards the floor, which carry no probability; alpha then
    follows how fast they sink and amplifies their rounding.

    A huge alpha can overflow: _FusedStep.softmax refuses a NaN or infinite
    column maximum, and a -inf entry below a finite one only sits at the
    floor.
    """
    r = s1 - s0
    v = s2 - s1
    v -= r
    w = q2 * p_yr
    rr, vv = _fisher_sq(r, q2, w, p_yr), _fisher_sq(v, q2, w, p_yr)
    alpha = max(min(-math.sqrt(rr / vv), -1.0) if vv > 0 else -1.0, -max_step)
    with np.errstate(over="ignore", invalid="ignore"):
        r *= -2.0 * alpha
        r += s0
        v *= alpha * alpha
        r += v
    return r, -alpha


def _ratio(step: float, prev_step: float) -> float:
    """|step / prev_step|: 0 for a zero step, inf for a nonzero one after a
    zero one."""
    step, prev_step = abs(step), abs(prev_step)
    if step == 0.0:
        return 0.0
    return step / prev_step if prev_step > 0.0 else math.inf


def _remaining_gap(step: float, rho: float) -> float:
    """Aitken estimate |step| rho / (1 - rho) of how far L still has to climb
    after a step when later steps shrink by rho each; inf while rho >= 1,
    where the steps are not shrinking."""
    if step == 0.0:
        return 0.0
    if rho >= 1.0:
        return math.inf
    return abs(step) * rho / (1.0 - rho)


def _stopped(l_now: float, step: float, gap: float, eps: float) -> bool:
    """Both the last step and its remaining-gap estimate are below
    eps * (1 + |L|)."""
    tol = eps * (1.0 + abs(l_now))
    return abs(step) < tol and gap < tol


def optimize(ch: ChannelModel, lam1: float, lam2: float, num_levels: int,
             init: str = "perturbed-uniform", eps: float = 1e-8,
             max_iter: int = 5000, seed: int = 0) -> OptimizerResult:
    """Run the alternating update from one seeded start, accelerated by
    squared extrapolation once it slows down.

    Both multipliers must be strictly positive; the unpenalized objective is
    approached with small multipliers instead of zero ones because the update
    divides by lam1 + lam2.

    A plain step is one application of the map F (posteriors, then softmax).
    Plain steps that shrink fast need no help, so the squared extrapolation
    (SQUAREM) engages at the first plain step, from the SQUAREM_MIN_STEPS-th
    on, that is larger than SQUAREM_GATE_RATIO times the one before.  From
    then on the solve runs in cycles: from q0, two plain steps give q1 and
    q2; the floored column softmax of _squarem_exponents over their softmax
    exponents, and one plain step from it, give a candidate that is kept
    only if its Lagrangian is at least L(q2).  Otherwise the cycle ends at
    q2.  The step length |alpha| is capped.  The cap is 1 for the first cycle;
    a step at the cap multiplies it by SQUAREM_STEP_FACTOR if kept and divides
    it by SQUAREM_STEP_FACTOR, never below SQUAREM_STEP_FACTOR, if rejected.

    A step is a plain step before engagement and a whole cycle after.  A run
    converges once its last step changes L by less than eps * (1 + |L|) and
    so does the Aitken estimate step * rho / (1 - rho) of the gap left to the
    limit; it never stops while rho >= 1.  Before engagement rho is the ratio
    of the last two plain steps; after it, the larger of the ratio of the
    last two cycle gains and that of the cycle's two plain steps.
    iterations counts map evaluations, plain steps and steps from
    extrapolated points alike, and max_iter caps them: a cycle that would
    pass it is not started, and the run returns converged=False rather than
    raising.  lagrangian_trace holds the start and every accepted iterate, so
    it never decreases (up to rounding) and
    len(lagrangian_trace) - 1 == iterations - (extrapolations_tried -
    extrapolations_accepted) <= iterations.
    """
    if not (lam1 > 0 and lam2 > 0):
        raise ValueError(f"multipliers must be strictly positive, got ({lam1}, {lam2})")
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    if num_levels < 1:
        raise ValueError(f"num_levels must be at least 1, got {num_levels}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")

    # The start and the result are renormalized without QuantizerPmf's input
    # checks: the solver builds both itself.
    q = QuantizerPmf._renormalized(_initial_draw(num_levels, ch.num_bins, init,
                                                 np.random.default_rng(seed))).q
    step = _FusedStep(ch, lam1, lam2)
    # The start is not a softmax output, so its H(Yhat|Yr) is computed directly.
    log_t, value = step.evaluate(q, float(ch.p_yr @ -_plogp(q).sum(axis=0)))
    trace = [value]

    converged = False
    iterations = tried = accepted = 0
    prev = None  # L gain of the previous step: a plain step, or a cycle once engaged
    gap = math.inf
    engaged = False
    max_step = 1.0
    while iterations < max_iter:
        start = value
        if not engaged:
            q, exponents, log_t, value = step.advance(log_t)
            iterations += 1
            trace.append(value)
            plain_rho = 0.0
        elif iterations + 3 > max_iter:
            break
        else:
            chain = [exponents]
            for _ in range(2):
                q, exponents, log_t, value = step.advance(log_t)
                chain.append(exponents)
                trace.append(value)
            iterations += 2
            plain_rho = _ratio(trace[-1] - trace[-2], trace[-2] - start)
            x, step_len = _squarem_exponents(*chain, q, ch.p_yr, max_step)
            log_t_x = step.jump(x)
            kept = False
            if log_t_x is not None:
                q_x, exponents_x, log_t_x, value_x = step.advance(log_t_x)
                iterations += 1
                tried += 1
                kept = value_x >= value
                if kept:
                    accepted += 1
                    q, exponents, log_t, value = q_x, exponents_x, log_t_x, value_x
                    trace.append(value)
            if step_len == max_step:
                max_step = (max_step * SQUAREM_STEP_FACTOR if kept
                            else max(max_step / SQUAREM_STEP_FACTOR, SQUAREM_STEP_FACTOR))
        diff = value - start
        if prev is not None:
            rho = max(_ratio(diff, prev), plain_rho)
            gap = _remaining_gap(diff, rho)
            if _stopped(value, diff, gap, eps):
                converged = True
                break
            if not engaged and iterations >= SQUAREM_MIN_STEPS and rho > SQUAREM_GATE_RATIO:
                engaged, diff = True, None
        prev = diff

    q_final = QuantizerPmf._renormalized(q)
    return OptimizerResult(
        q_final=q_final,
        report=rate_report(ch, q_final),
        lagrangian_trace=trace,
        iterations=iterations,
        converged=converged,
        seed=int(seed),
        extrapolations_tried=tried,
        extrapolations_accepted=accepted,
        gap_estimate=float(gap) if math.isfinite(gap) else None,
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
