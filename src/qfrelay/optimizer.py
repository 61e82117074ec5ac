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
  x2 in t2 rows, and is zero in t3/t4 rows, which get 1 added.  One
  division num / den gives every posterior; where a conditioning event is
  empty, (num + mask/|X|) / (den + mask), mask = (den == 0), applies the
  uniform placeholder instead.
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
(_channel_matrices).  Each batch of solves builds only K, one slice per
solve.

optimize()'s loop is written once, as the generator _solve, which asks for
plain steps and extrapolations.  Every solve runs in a lockstep batch
(_lockstep) that serves these asks: the step's kernels take a leading batch
axis and compute each slice as a batch of one would, so a solve's result
does not depend on the solves batched with it.  The kernels also report a
refused extrapolation or a non-finite delta per slice, so the batch never
runs a slice alone to learn which one failed.  optimize() is a batch of
one, optimize_restarts() batches its restarts and sweep_grid all its
solves, in batches of at most MAX_BATCH solves.  However they were batched,
the batch passes each result to a call to optimize() that returns it (its
_solved argument), so a wrapper of optimize() sees every solve.

induced_posteriors, delta_matrix, update_q and lagrangian are the unfused
definitions of the same iteration.  The tests compare the fused step with
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from qfrelay.channel import ChannelModel, _readonly
from qfrelay.infotheory import (LN2, QuantizerPmf, RateReport, _channel_cached, _plogp,
                                 _prior_entropies, _rate_reports)

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
        # K's rows before scaling: P twice (coefficient 1), then p(x1, y) and
        # p(x2, y), the rows with coefficients lam1 and lam2.
        self.k_base = np.concatenate([self.num[:2 * ab], ch.p_x1x2_yr.sum(axis=1),
                                      ch.p_x1x2_yr.sum(axis=0)])
        self.lam_rows = slice(2 * ab, 2 * ab + a), slice(2 * ab + a, None)
        row_a, row_b = np.divmod(np.arange(ab), b)
        self.sums = np.zeros((len(self.num), len(self.num)))
        self.sums[:ab, :ab] = row_b[:, None] == row_b
        self.sums[ab:2 * ab, :ab] = row_a[:, None] == row_a
        # Row weights of the four rate sums: g for t1 and t2, p(xk) for t3, t4.
        self.weights = w = np.zeros((4, len(self.num)))
        w[0, :ab] = w[1, ab:2 * ab] = 1.0
        w[2, 2 * ab:2 * ab + a], w[3, 2 * ab + a:] = ch.p_x1, ch.p_x2
        self.fill = (w[0] / a + w[1] / b)[:, None]
        # 1 in the t3/t4 rows, whose den is 0: added to den, they divide by 1
        self.den_shift = np.zeros((len(self.num), 1))
        self.den_shift[2 * ab:] = 1.0
        self.h_x1, self.h_x2 = _prior_entropies(ch)
        for arr in (self.num, self.k_base, self.sums, self.weights, self.fill,
                    self.den_shift):
            arr.flags.writeable = False


def _channel_matrices(ch: ChannelModel) -> _ChannelMatrices:
    """ch's _ChannelMatrices, built on its first solve and kept on the instance."""
    return _channel_cached(ch, "_step_matrices", _ChannelMatrices)


class _FusedStep:
    """The fixed-point iteration on raw arrays for a channel and a batch of
    multiplier pairs.

    Built from lists lam1, lam2 of K pairs, K = 1 for a lone solve, a step
    takes and gives (K, L, |Yr|) quantizers and exponents, (K, R, L)
    log-posteriors and lists of K entropies and Lagrangians.  Each slice is
    computed alone, so its result does not depend on the batch (_lockstep).

    evaluate(q, h) gives the floored log-posteriors of q, rows t1 | t2 | t3 |
    t4 with R = 2|X1||X2| + |X1| + |X2|, and the Lagrangians of q;
    advance(evaluate(q, h)[0]) takes one plain step and gives the next
    quantizer q', its softmax exponents and evaluate(q', H(q')).  Up to
    rounding, q' is update_q(delta_matrix(ch, induced_posteriors(ch, q), lam1,
    lam2)) and the Lagrangians are lagrangian(ch, q, lam1, lam2) and
    lagrangian(ch, q', lam1, lam2).

    The kernels report failures per slice and raise nothing: softmax and
    jump list the slices they refuse, and advance gives each slice whose
    delta is not finite with its FloatingPointError.  The other slices are
    computed as if those were not there.
    """

    def __init__(self, ch: ChannelModel, lam1, lam2):
        m = _channel_matrices(ch)
        self.num, self.sums, self.weights, self.fill = m.num, m.sums, m.weights, m.fill
        self.den_shift, self.h_x1, self.h_x2, self.p_yr = m.den_shift, m.h_x1, m.h_x2, ch.p_yr
        lam1, lam2 = np.asarray(lam1, dtype=float), np.asarray(lam2, dtype=float)
        coef = np.ones((len(lam1), len(m.k_base), 1))
        coef[:, m.lam_rows[0], 0], coef[:, m.lam_rows[1], 0] = lam1[:, None], lam2[:, None]
        # Dead bins get a zero column of K, so the softmax leaves them uniform.
        # Multipliers near the largest float overflow lam1 + lam2 and give a
        # zero K; near the smallest they overflow 1/scale, and _lockstep fails
        # a solve whose K is not finite before its first step.
        with np.errstate(over="ignore", invalid="ignore"):
            scale = (lam1 + lam2)[:, None] * ch.p_yr
            inv = np.divide(1.0, scale, out=np.zeros_like(scale), where=scale > 0)
            self.k = m.k_base * coef * inv[:, None, :]
        self.lam1s, self.lam2s = lam1.tolist(), lam2.tolist()

    def log_posteriors(self, q: np.ndarray) -> tuple:
        """(num, log_t): the numerators N @ q.T and the (R, L) floored
        log-posteriors of each (L, |Yr|) quantizer of q, with the placeholder
        and floor rules of induced_posteriors and delta_matrix."""
        num = self.num @ q.mT
        den = self.sums @ num
        den += self.den_shift
        if np.count_nonzero(den) == den.size:
            t = num / den
        else:  # an empty conditioning event: the uniform placeholder
            mask = den == 0
            t = num + mask * self.fill
            t /= den + mask
        return num, np.log(np.maximum(t, LOG_FLOOR, out=t), out=t)

    def evaluate(self, q: np.ndarray, h_i_given_y: list) -> tuple:
        """(log_t, Lagrangians in bits) of each (L, |Yr|) quantizer of q,
        given the list of their H(Yhat|Yr) in nats."""
        num, log_t = self.log_posteriors(q)
        # sum g log t1, sum g log t2, sum p(x1, yhat) log t3, sum p(x2, yhat) log t4
        sums = self.weights @ np.einsum("...ri,...ri->...r", num, log_t)[..., None]
        h_x1, h_x2, values = self.h_x1, self.h_x2, []
        for (s1, s2, s3, s4), h, lam1, lam2 in zip(sums.reshape(-1, 4).tolist(), h_i_given_y,
                                                   self.lam1s, self.lam2s):
            # x if x > 0.0 else 0.0 is max(0.0, x), NaN and -0.0 included, without the call
            r1 = x if (x := h_x1 + s1) > 0.0 else 0.0
            r2 = x if (x := h_x2 + s2) > 0.0 else 0.0
            c1 = x if (x := -s3 - h) > 0.0 else 0.0
            c2 = x if (x := -s4 - h) > 0.0 else 0.0
            values.append((r1 + r2) / LN2 - lam1 * (c1 / LN2) - lam2 * (c2 / LN2))
        return log_t, values

    def advance(self, log_t: np.ndarray) -> tuple:
        """One plain step from each iterate whose log-posteriors are log_t:
        (q, its exponents, its log_t, its Lagrangian in bits, failures), q the
        column softmax of delta = log_t.T @ K.  failures maps each slice whose
        delta is not finite to the FloatingPointError naming its first
        non-finite entry (failure); the rest of such a slice's step means
        nothing.  A -inf left in delta gets q = e**EXP_FLOOR / z > 0 and makes
        H(Yhat|Yr) infinite, so that entropy is finite exactly when delta is,
        in a slice softmax does not refuse."""
        s = log_t.mT @ self.k
        # Finite deltas are <= 0 up to rounding (log t <= 0, K >= 0), so the
        # softmax's shift cannot overflow.
        q, exponents, z, failed = self.softmax(s)
        h_i_given_y = np.vecdot(self.p_yr, np.log(z) - np.einsum(
            "...ij,...ij->...j", q, s)).tolist()
        # the sum is finite exactly when each entry is: the entropies are far
        # below overflow
        if not math.isfinite(sum(h_i_given_y)):
            failed = [k for k, h in enumerate(h_i_given_y) if k in failed or not math.isfinite(h)]
        failures = {k: self.failure(log_t, k) for k in failed} if failed else {}
        return (q, exponents, *self.evaluate(q, h_i_given_y), failures)

    def failure(self, log_t: np.ndarray, k: int) -> FloatingPointError:
        """The error of slice k of a step from log_t: it names the first
        non-finite entry of that slice's delta = log_t.T @ K, recomputed
        quietly, since the softmax shifts delta in place."""
        with np.errstate(over="ignore", invalid="ignore"):
            i, j = np.argwhere(~np.isfinite(log_t[k].T @ self.k[k]))[0]
        return FloatingPointError(f"delta has non-finite entry at ({i}, {j})")

    def jump(self, s: np.ndarray) -> tuple:
        """(log_t, refused): the log-posteriors of the floored column softmax
        of the exponents s (overwritten), and the slices softmax refuses."""
        q, _, _, refused = self.softmax(s)
        return self.log_posteriors(q)[1], refused

    @staticmethod
    def softmax(s: np.ndarray) -> tuple:
        """(q, exponents, z, refused) of the column softmax of each slice of
        s: exponents are s minus its column maxima (in place) raised to
        EXP_FLOOR, and q = exp(exponents) / z.  refused lists the slices with
        a NaN or +-inf column maximum (a non-finite delta or an overflowed
        extrapolation), zeroed first so that their q is uniform, quietly."""
        m = s.max(axis=-2, keepdims=True)
        refused = ()
        # m . m is finite only when every maximum is, so the exact check runs
        # only for a non-finite or overflowed sum of squares; the BLAS dot
        # raises no floating-point warning on either.
        if not math.isfinite(np.vdot(m, m)) and not np.isfinite(m).all():
            refused = np.flatnonzero(~np.isfinite(m[:, 0]).all(axis=1)).tolist()
            s[refused] = m[refused] = 0.0
        s -= m
        exponents = np.maximum(s, EXP_FLOOR)
        q = np.exp(exponents)
        z = q.sum(axis=-2)
        q /= z[..., None, :]
        return q, exponents, z, refused


def _fisher_sq(x: np.ndarray, q: np.ndarray, w: np.ndarray, p_yr: np.ndarray) -> list:
    """Per slice k, sum_j p(y_j) Var_{q[k, :, j]}(x[k, :, j]) = sum w x**2 -
    sum_j p(y_j) m_j**2, with w = q p(y) and m_j the q[k, :, j]-mean of
    x[k, :, j]: the squared length of the log-domain move x[k] in the Fisher
    metric of the channel q(yhat|y) p(y), which rounding can take below 0.
    Levels q leaves dead weigh nothing, and neither does a column constant
    in x, which the softmax normalization absorbs."""
    k = len(x)
    m = np.einsum("...ij,...ij->...j", q, x)
    d = np.vecdot((w * x).reshape(k, -1), x.reshape(k, -1))
    d -= np.vecdot(p_yr, m * m)
    return d.tolist()


def _squarem_exponents(s0: np.ndarray, s1: np.ndarray, s2: np.ndarray,
                       q2: np.ndarray, p_yr: np.ndarray, max_step: list) -> tuple:
    """(s0 - 2 alpha r + alpha**2 v, -alpha), the squared extrapolation
    (SQUAREM, Varadhan & Roland 2008) of three consecutive iterates
    q1 = F(q0), q2 = F(q1) given as their floored softmax exponents s0, s1,
    s2 (log q up to a column constant, raised to EXP_FLOOR), with
    r = s1 - s0, v = s2 - 2 s1 + s0 and the step length
    -alpha = |r|/|v| clipped to [1, max_step]; 1 where v = 0.  A unit step
    gives s2 itself.  The K chains come stacked, with a list of K caps, and
    the step lengths go out as a list of K.

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
    alphas = [max(min(-math.sqrt(max(0.0, rr) / vv), -1.0) if vv > 0 else -1.0, -cap)
              for rr, vv, cap in zip(_fisher_sq(r, q2, w, p_yr), _fisher_sq(v, q2, w, p_yr),
                                     max_step)]
    alpha = np.array(alphas)[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        r *= -2.0 * alpha
        r += s0
        v *= alpha * alpha
        r += v
    return r, [-a for a in alphas]


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


PLAIN, REVERT = "plain", "revert"  # what a solve asks besides an extrapolation (_solve)


def _solve(value: float, eps: float, max_iter: int):
    """optimize()'s loop for one solve from a start of Lagrangian value, as a
    generator that its batch serves (_lockstep).  It yields PLAIN for a
    plain map step and is sent that step's Lagrangian; it yields its step
    length cap for an extrapolation from its last three iterates and is sent
    (step_len, value_x), value_x the Lagrangian of the map step from the
    extrapolated point or None where softmax refused it; after a rejected
    candidate it yields REVERT once, for its q2 back.  It returns (trace,
    iterations, converged, tried, accepted, gap).
    """
    trace = [value]
    converged = engaged = False
    iterations = tried = accepted = 0
    prev = None  # L gain of the previous step: a plain step, or a cycle once engaged
    gap, max_step = math.inf, 1.0
    while iterations < max_iter:
        start = value
        if not engaged:
            value = yield PLAIN
            iterations += 1
            trace.append(value)
            plain_rho = 0.0
        elif iterations + 3 > max_iter:
            break
        else:
            for _ in range(2):
                value = yield PLAIN
                trace.append(value)
            iterations += 2
            plain_rho = _ratio(trace[-1] - trace[-2], trace[-2] - start)
            step_len, value_x = yield max_step
            kept = False
            if value_x is not None:
                iterations += 1
                tried += 1
                kept = value_x >= value
                if kept:
                    accepted += 1
                    value = value_x
                    trace.append(value)
                else:
                    yield REVERT
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
    return trace, iterations, converged, tried, accepted, gap


# The most solves one lockstep batch advances together; longer lists run as
# consecutive batches, so a batch's memory is bounded whatever the grid.  A
# solve holds about fifteen (L, |Yr|) arrays at a peak.  On the default sweep
# (L = 32, 128 bins, 576 solves) 16 ran faster than 64 and added 9 MB to the
# peak RSS against 24 MB.  Results do not depend on it.
MAX_BATCH = 16


def _lockstep(ch: ChannelModel, num_levels: int, solves: list, eps: float,
              max_iter: int) -> list:
    """The OptimizerResult of optimize() for each (lam1, lam2, init, seed) of
    solves, advanced together tick by tick.

    Each solve is a _solve generator; the batch holds the arrays, serves
    the asks and keeps no rule of its own.  A tick takes every asked
    extrapolation with one _squarem_exponents and one jump, then every map
    evaluation with one advance.  Slice k of the arrays belongs to solve
    active[k].  The kernels compute each slice as a batch of one would, so
    every result is bit for bit that of optimize() alone.

    The kernels report failures per slice.  A refused extrapolation is sent
    to its solve before advance, so that tick's map evaluation is the
    solve's next plain step; a solve that this ends stays at q2, and a tick
    in which it ends every solve skips advance.  A slice whose delta, or
    whose K before its first step, is not finite records its error and ends
    its solve.  Finished solves leave the batch at the start of the next
    tick.  Once the batch is done, the first failed solve in order raises
    its FloatingPointError, as serial calls would.
    """
    p_yr = ch.p_yr
    # Each start is renormalized alone, in its draw's memory order, which sets
    # how its column sums round; np.array then copies them into one C-ordered
    # stack, as every later q is (np.stack would keep each draw's order).
    draws = [_initial_draw(num_levels, ch.num_bins, init, np.random.default_rng(seed))
             for _, _, init, seed in solves]
    q = np.array([d / d.sum(axis=0, keepdims=True) for d in draws])
    step = _FusedStep(ch, [s[0] for s in solves], [s[1] for s in solves])
    # The starts are not softmax outputs, so their H(Yhat|Yr) is computed directly.
    lt, values = step.evaluate(q, np.vecdot(p_yr, -_plogp(q).sum(axis=-2)).tolist())
    runs = [_solve(v, eps, max_iter) for v in values]
    asks = [next(run) for run in runs]
    # each solve's _solve return value or error, and its final quantizer
    ends, finals = [None] * len(runs), [None] * len(runs)
    active = list(range(len(runs)))
    # a solve whose K is not finite fails with the error its first step meets
    done = np.flatnonzero(~np.isfinite(step.k.reshape(len(runs), -1)).all(axis=1)).tolist()
    for k in done:
        ends[k] = step.failure(lt, k)
    # the quantizers, exponents and log-posteriors of the iterates, and the
    # exponents of one and two ticks before
    e = e1 = e2 = None
    ext = []  # the slices whose solves ask for an extrapolation; nxt, those of the next tick
    while True:
        if done:  # the finished solves take their final quantizers and leave
            for k in done:
                finals[active[k]] = QuantizerPmf._renormalized(q[k])
            keep = [k for k in range(len(active)) if k not in done]
            if not keep:
                break
            active, step.k = [active[k] for k in keep], step.k[keep]
            step.lam1s, step.lam2s = [step.lam1s[k] for k in keep], [step.lam2s[k] for k in keep]
            q, e, lt, e1, e2 = [None if a is None else a[keep] for a in (q, e, lt, e1, e2)]
            ext = [k for k, i in enumerate(active) if asks[i] is not PLAIN]
        done, rejected, nxt, lengths = [], [], [], []
        inp = lt
        if ext:
            chain = [a if len(ext) == len(active) else a[ext] for a in (e2, e1, e, q)]
            x, lengths = _squarem_exponents(*chain, p_yr, [asks[active[k]] for k in ext])
            lt_x, refused = step.jump(x)
            for j in refused:  # the solve asks for a plain step next, or ends at q2
                k = ext[j]
                try:
                    asks[active[k]] = runs[active[k]].send((lengths[j], None))
                except StopIteration as end:
                    ends[active[k]] = end.value
                    done.append(k)
                    rejected.append(k)
            if refused:
                jumped = [j for j in range(len(ext)) if j not in refused]
                ext, lt_x = [ext[j] for j in jumped], lt_x[jumped]
                lengths = [lengths[j] for j in jumped]
            if len(ext) == len(active):
                inp = lt_x
            elif ext:
                inp = lt.copy()
                inp[ext] = lt_x
            # the arrays of q2, where a rejected candidate leaves its solve
            before = q, e, lt
        if done and len(done) == len(active):  # every solve ended at a refused extrapolation
            continue
        e2, e1 = e1, e
        q, e, lt, sent, failures = step.advance(inp)
        for k, err in failures.items():
            if k not in done:
                ends[active[k]] = err
                done.append(k)
        for k, step_len in zip(ext, lengths):
            sent[k] = step_len, sent[k]
        for k, i in enumerate(active):
            if k in done:
                continue
            try:
                ask = runs[i].send(sent[k])
                if ask is REVERT:  # the slice goes back to q2 at the end of the tick
                    rejected.append(k)
                    ask = runs[i].send(None)
                asks[i] = ask
                if ask is not PLAIN:
                    nxt.append(k)
            except StopIteration as end:
                ends[i] = end.value
                done.append(k)
        ext = nxt
        if rejected:
            if len(rejected) == len(active):
                q, e, lt = before
            else:
                q[rejected], e[rejected], lt[rejected] = (a[rejected] for a in before)

    for end in ends:
        if isinstance(end, FloatingPointError):
            raise end
    reports = _rate_reports(ch, np.stack([f.q for f in finals]))
    return [OptimizerResult(q_final=f, report=rep, lagrangian_trace=trace, iterations=iterations,
                            converged=converged, seed=int(seed), extrapolations_tried=tried,
                            extrapolations_accepted=accepted,
                            gap_estimate=float(gap) if math.isfinite(gap) else None)
            for f, rep, (trace, iterations, converged, tried, accepted, gap), (_, _, _, seed)
            in zip(finals, reports, ends, solves)]


def _solve_batch(ch: ChannelModel, num_levels: int, solves: list, eps: float = 1e-8,
                 max_iter: int = 5000) -> list:
    """optimize(ch, lam1, lam2, num_levels, init, eps, max_iter, seed) for each
    (lam1, lam2, init, seed) of solves, in order, as lockstep batches of at
    most MAX_BATCH solves (_lockstep)."""
    for lam1, lam2, _, _ in solves:
        if not (0 < lam1 < math.inf and 0 < lam2 < math.inf):
            raise ValueError(
                f"multipliers must be finite and strictly positive, got ({lam1}, {lam2})")
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    if num_levels < 1:
        raise ValueError(f"num_levels must be at least 1, got {num_levels}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    results = []
    for i in range(0, len(solves), MAX_BATCH):
        results += _lockstep(ch, num_levels, solves[i:i + MAX_BATCH], eps, max_iter)
    return results


def optimize(ch: ChannelModel, lam1: float, lam2: float, num_levels: int,
             init: str = "perturbed-uniform", eps: float = 1e-8,
             max_iter: int = 5000, seed: int = 0, *,
             _solved: OptimizerResult | None = None) -> OptimizerResult:
    """Run the alternating update from one seeded start, accelerated by
    squared extrapolation once it slows down.

    Both multipliers must be finite and strictly positive; the unpenalized
    objective is approached with small multipliers instead of zero ones
    because the update divides by lam1 + lam2.

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

    The solve runs as a lockstep batch of one (_lockstep); batches of many
    solves give each the same result bit for bit.  A batch that already ran
    this solve passes its result as _solved, which is returned unchanged.
    """
    if _solved is not None:
        return _solved
    _check_seed(seed)
    return _solve_batch(ch, num_levels, [(lam1, lam2, init, seed)], eps, max_iter)[0]


@lru_cache(maxsize=4096)
def _restart_seeds(seed: int, restarts: int) -> tuple:
    """SeedSequence((seed, r)) for each restart r of optimize_restarts.
    Repeated sweeps of a grid ask for the same seed pairs again: the
    benchmark's fixture_timeshare workload asks for the same 256 on every
    pass.  One derivation costs about 13 us (one core of a 2-vCPU Xeon), some
    3 ms of that pass's roughly 100 ms."""
    return tuple(int(np.random.SeedSequence((seed, r)).generate_state(1)[0])
                 for r in range(restarts))


def _check_seed(seed: int) -> None:
    """Refuse a negative seed by name; numpy's seeding refuses it without."""
    if seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed}")


def _restart_solves(lam1: float, lam2: float, init: str, seed: int, restarts: int) -> list:
    """The (lam1, lam2, init, seed) of each restart of optimize_restarts."""
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    return [(lam1, lam2, init, restart_seed) for restart_seed in _restart_seeds(seed, restarts)]


def optimize_restarts(ch: ChannelModel, lam1: float, lam2: float, num_levels: int,
                      restarts: int = 4, init: str = "perturbed-uniform",
                      eps: float = 1e-8, max_iter: int = 5000, seed: int = 0, *,
                      _solved: list | None = None) -> OptimizerResult:
    """Best of several seeded runs; the limit point depends on the start.

    Restart r runs with the seed derived from SeedSequence((seed, r)), and the
    winning result keeps that derived seed so the exact run can be replayed
    with optimize() alone.  The restarts advance together in one lockstep
    batch, unless a batch that already ran them passes their results as
    _solved, and each comes back through optimize(); the first of equal
    final Lagrangians wins.
    """
    if _solved is None:
        _check_seed(seed)
        _solved = _solve_batch(ch, num_levels, _restart_solves(lam1, lam2, init, seed, restarts),
                               eps, max_iter)
    results = [optimize(ch, lam1, lam2, num_levels, init=init, eps=eps, max_iter=max_iter,
                        seed=res.seed, _solved=res) for res in _solved]
    return max(results, key=lambda res: res.lagrangian_trace[-1])  # the first of equal maxima
