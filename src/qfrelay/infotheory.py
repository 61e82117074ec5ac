"""Information measures induced by a channel model and a quantizer.

All public values are in bits; internal accumulation is in nats so the
optimizer's exp/log pair stays in one base.  The 0*log(0) = 0 convention is
applied everywhere via _plogp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qfrelay.channel import ChannelModel, _readonly, _validated_pmf

LN2 = math.log(2.0)


def _plogp(p: np.ndarray) -> np.ndarray:
    """p log p elementwise, in nats, with 0 log 0 = 0.

    No positive float is below 5e-324, so the maximum changes only p = 0, whose
    term is then 0 * log(5e-324) = -0.0; that adds as 0 in every sum.  This is
    one ufunc call fewer than replacing zeros by ones, which tiny arrays feel.
    """
    return p * np.log(np.maximum(p, 5e-324))


def _entropy_nats(p: np.ndarray) -> float:
    return float(-_plogp(p).sum())


def entropy(p) -> float:
    """Shannon entropy of a pmf in bits, with 0*log(0) = 0."""
    return _entropy_nats(_validated_pmf(np.asarray(p, dtype=float), "pmf")) / LN2


@dataclass(frozen=True, eq=False)
class QuantizerPmf:
    """Column-stochastic L x |Yr| matrix q[i, j] = p(yhat_i | y_j).

    Columns are renormalized to machine precision on construction; inputs must
    already be column-normalized within 1e-9 and nonnegative.
    """

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 2:
            raise ValueError("q must be a 2-D matrix")
        object.__setattr__(self, "q", _readonly(_validated_pmf(q, "q column", axis=0)))

    @classmethod
    def _renormalized(cls, q: np.ndarray) -> "QuantizerPmf":
        """The QuantizerPmf of a finite, nonnegative 2-D float q whose columns
        already sum to 1 within 1e-9, as the solver builds them: the same
        renormalization q / q.sum(axis=0) as the constructor, without its
        input checks."""
        pmf = object.__new__(cls)
        object.__setattr__(pmf, "q", _readonly(q / q.sum(axis=0, keepdims=True)))
        return pmf

    @property
    def num_levels(self) -> int:
        return self.q.shape[0]

    @property
    def num_bins(self) -> int:
        return self.q.shape[1]

    @classmethod
    def uniform(cls, num_levels: int, num_bins: int) -> "QuantizerPmf":
        return cls(np.full((num_levels, num_bins), 1.0 / num_levels))

    @classmethod
    def identity(cls, num_bins: int) -> "QuantizerPmf":
        return cls(np.eye(num_bins))


@dataclass(frozen=True)
class RateReport:
    """All rate quantities induced by one (channel, quantizer) pair, in bits.

    j_value is the two-way objective r1 + r2 where r1 = I(X1;Yhat|X2) and
    r2 = I(X2;Yhat|X1); c1_achieved = I(Yr;Yhat|X1) and c2_achieved =
    I(Yr;Yhat|X2) are the description rates the downlinks must carry.
    """

    j_value: float
    c1_achieved: float
    c2_achieved: float
    h_yhat_given_y: float
    r1: float
    r2: float


def rate_report(ch: ChannelModel, q: QuantizerPmf) -> RateReport:
    """Evaluate every reported information measure for (ch, q).

    The Markov chain (X1, X2) - Yr - Yhat is structural, so conditional
    description rates reduce to I(Yr;Yhat|Xk) = H(Yhat|Xk) - H(Yhat|Yr).
    """
    if q.num_bins != ch.num_bins:
        raise ValueError(
            f"quantizer has {q.num_bins} columns, channel has {ch.num_bins} bins"
        )
    return _rate_reports(ch, q.q[None])[0]


def _channel_cached(ch: ChannelModel, key: str, build):
    """build(ch), computed on ch's first request for `key` and kept on the
    instance; a ChannelModel is frozen and its arrays are read-only, so the
    value stays valid."""
    value = ch.__dict__.get(key)
    if value is None:
        value = build(ch)
        object.__setattr__(ch, key, value)
    return value


def _prior_entropies(ch: ChannelModel) -> tuple:
    """(H(X1), H(X2)) of ch in nats."""
    return _channel_cached(ch, "_prior_entropies",
                           lambda ch: (_entropy_nats(ch.p_x1), _entropy_nats(ch.p_x2)))


def _rate_reports(ch: ChannelModel, q: np.ndarray) -> list:
    """The RateReport of each (L, |Yr|) quantizer of the stack q, (K, L, |Yr|).

    Each report's arithmetic is the one-quantizer computation: every
    entropy sums one quantizer's p log p terms, as a contiguous row, in the
    same order, so a report does not depend on the other quantizers of q.
    """
    k = len(q)
    joint = np.einsum("abj,kij->kabi", ch.p_x1x2_yr, q)  # p(x1, x2, yhat)
    h_abi, h_ai, h_bi = (-_plogp(p).reshape(k, -1).sum(axis=1)
                         for p in (joint, joint.sum(axis=2), joint.sum(axis=1)))
    # H(Yhat|Yr) = sum_j p(y_j) H(q[:, j])
    h_i_given_y = np.vecdot(ch.p_yr, -_plogp(q).sum(axis=1))
    h_a, h_b = _prior_entropies(ch)
    h_ab = h_a + h_b  # inputs independent by construction
    reports = []
    for h_abi, h_ai, h_bi, h_iy in zip(h_abi.tolist(), h_ai.tolist(), h_bi.tolist(),
                                       h_i_given_y.tolist()):
        # x if x > 0.0 else 0.0 is max(0.0, x), NaN and -0.0 included, without the call
        r1 = x if (x := h_ab + h_bi - h_b - h_abi) > 0.0 else 0.0
        r2 = x if (x := h_ab + h_ai - h_a - h_abi) > 0.0 else 0.0
        c1 = x if (x := (h_ai - h_a) - h_iy) > 0.0 else 0.0
        c2 = x if (x := (h_bi - h_b) - h_iy) > 0.0 else 0.0
        reports.append(RateReport(j_value=(r1 + r2) / LN2, c1_achieved=c1 / LN2,
                                  c2_achieved=c2 / LN2, h_yhat_given_y=h_iy / LN2,
                                  r1=r1 / LN2, r2=r2 / LN2))
    return reports


def lagrangian(ch: ChannelModel, q: QuantizerPmf, lam1: float, lam2: float) -> float:
    """Penalized objective J - lam1*C1 - lam2*C2 in bits."""
    if not (0 <= lam1 < math.inf and 0 <= lam2 < math.inf):
        raise ValueError(f"multipliers must be finite and nonnegative, got ({lam1}, {lam2})")
    rep = rate_report(ch, q)
    return rep.j_value - lam1 * rep.c1_achieved - lam2 * rep.c2_achieved


def yr_conditional_entropies(ch: ChannelModel) -> dict:
    """Entropies of the relay observation, in bits, keyed by conditioning."""
    return dict(_channel_cached(ch, "_yr_entropies", _yr_entropies))


def _yr_entropies(ch: ChannelModel) -> dict:
    h_y = _entropy_nats(ch.p_yr)
    h_y_a = float(-(ch.p_x1 @ _plogp(ch.p_yr_given_x1).sum(axis=1)))
    h_y_b = float(-(ch.p_x2 @ _plogp(ch.p_yr_given_x2).sum(axis=1)))
    w = ch.p_yr_given_x1x2
    pab = ch.p_x1[:, None] * ch.p_x2[None, :]
    h_y_ab = float(-(pab * _plogp(w).sum(axis=2)).sum())
    return {
        "h_yr": h_y / LN2,
        "h_yr_given_x1": h_y_a / LN2,
        "h_yr_given_x2": h_y_b / LN2,
        "h_yr_given_x1x2": h_y_ab / LN2,
    }


def uplink_sum_rate_bound(ch: ChannelModel) -> float:
    """I(X1;Yr|X2) + I(X2;Yr|X1) in bits, the ceiling for j_value over all Q."""
    ents = yr_conditional_entropies(ch)
    return (
        ents["h_yr_given_x1"]
        + ents["h_yr_given_x2"]
        - 2.0 * ents["h_yr_given_x1x2"]
    )
