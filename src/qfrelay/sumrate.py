"""Outer time-sharing problem for the two-phase relaying protocol.

A fraction alpha of channel uses carries the uplink multiple-access phase and
the rest carries the downlink broadcast, so the exchanged sum rate is
alpha * I_RD((1-alpha)/alpha * I1, (1-alpha)/alpha * I2) with I1, I2 the
downlink capacities.  I_RD is evaluated by the achievable lower-envelope
query over a precomputed multiplier sweep.

Over a swept surface the best split has a closed form.  Point p fits both
downlink budgets exactly when alpha <= alpha_p = min(I1/(c1_p+I1),
I2/(c2_p+I2)), and alpha * i_rd_p grows with alpha, so the maximum over alpha
of alpha * I_RD is the maximum over points of alpha_p * i_rd_p, with alpha
kept inside the open interval (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from qfrelay.channel import db_to_power
from qfrelay.sweep import Surface, query_lower_envelope

# Time shares are kept in [ALPHA_MARGIN, 1 - ALPHA_MARGIN]; the endpoints are
# degenerate (no uplink time or no downlink time).
ALPHA_MARGIN = 1e-6
# The split returned when no swept point beats the single-level quantizer:
# every split then has sum rate 0.
DEGENERATE_ALPHA = 0.5
# Rounding puts alpha_p a few ulps off the last float at which the envelope
# query admits point p; this bounds the ulp steps that find that float.
MAX_ULP_STEPS = 16


@dataclass(frozen=True)
class SumRateResult:
    alpha_star: float
    sum_rate: float
    c1_at_star: float
    c2_at_star: float
    i_rd_at_star: float


def downlink_rate(snr_db: float) -> float:
    """Real-Gaussian point-to-point capacity 0.5*log2(1+SNR) in bits.

    Callers with a different downlink model pass their capacities directly.
    """
    return 0.5 * math.log2(1.0 + db_to_power(snr_db))


def _targets(i1: float, i2: float, alpha):
    """The description-rate targets of the split `alpha`; every query on the
    downlink capacities i1, i2 passes here, so they are checked here."""
    if not (0 <= i1 < math.inf and 0 <= i2 < math.inf):
        raise ValueError("downlink capacities must be finite and nonnegative")
    ratio = (1.0 - alpha) / alpha
    return ratio * i1, ratio * i2


def sum_rate_at(s: Surface, i1: float, i2: float, alpha: float) -> float:
    """Exchanged sum rate for one time-sharing split, in bits per channel use."""
    if not (0 < alpha < 1):
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    c1_t, c2_t = _targets(i1, i2, alpha)
    return alpha * query_lower_envelope(s, c1_t, c2_t)


def _rates(s: Surface):
    """The surface's (c1, c2, i_rd) columns as float arrays."""
    return np.array([*islice(zip(*s.points), 2, 5)], dtype=float).reshape(3, -1)


def _fitting_alphas(c1, c2, i1: float, i2: float):
    """(alpha, fits): per point, the last float alpha in [ALPHA_MARGIN,
    1 - ALPHA_MARGIN] whose targets admit it, and whether it is admitted.

    Admission only loosens as alpha falls, so alpha_p moves down by ulps
    while the point does not fit and up while the next float still fits.
    """
    def admits(alpha):
        c1_t, c2_t = _targets(i1, i2, alpha)
        return (c1 <= c1_t) & (c2 <= c2_t)

    lo, hi = ALPHA_MARGIN, 1.0 - ALPHA_MARGIN
    with np.errstate(divide="ignore", invalid="ignore"):
        a1 = np.where(c1 + i1 > 0, i1 / (c1 + i1), 1.0)
        a2 = np.where(c2 + i2 > 0, i2 / (c2 + i2), 1.0)
    alpha = np.clip(np.minimum(a1, a2), lo, hi)
    for _ in range(MAX_ULP_STEPS):
        fits = admits(alpha)
        up = np.minimum(np.nextafter(alpha, 1.0), hi)
        down = np.maximum(np.nextafter(alpha, 0.0), lo)
        moved = np.where(fits, np.where(admits(up), up, alpha), down)
        if np.array_equal(moved, alpha):
            break
        alpha = moved
    return alpha, admits(alpha)


def optimize_alpha(s: Surface, i1: float, i2: float) -> SumRateResult:
    """Best time-sharing split over the swept surface, in closed form.

    Each point's alpha_p = min(i1/(c1_p+i1), i2/(c2_p+i2)) (1 where c+i = 0)
    is clipped to the open interval and put on the last float the envelope
    query admits the point at; alpha* is the alpha_p with the largest
    alpha_p * i_rd_p, or DEGENERATE_ALPHA when none is positive.  The result
    is the envelope query at alpha*: sum_rate == sum_rate_at(s, i1, i2,
    alpha*), achieved by a stored quantizer, and no alpha in the interval
    gives more.
    """
    if not s.points:
        raise ValueError("surface has no points")

    c1, c2, i_rd = _rates(s)
    alpha, fits = _fitting_alphas(c1, c2, i1, i2)
    value = np.where(fits, alpha * i_rd, 0.0)
    k = int(np.argmax(value))
    alpha_star = float(alpha[k]) if value[k] > 0 else DEGENERATE_ALPHA

    c1_t, c2_t = _targets(i1, i2, alpha_star)
    ird = query_lower_envelope(s, c1_t, c2_t)
    return SumRateResult(
        alpha_star=alpha_star,
        sum_rate=alpha_star * ird,
        c1_at_star=c1_t,
        c2_at_star=c2_t,
        i_rd_at_star=ird,
    )


def alpha_objective_curve(s: Surface, i1: float, i2: float, num: int = 1000) -> list:
    """(alpha, sum rate) samples on a uniform grid, for plotting; one pass over
    the surface gives each sample exactly as sum_rate_at(s, i1, i2, alpha)."""
    if num < 2:
        raise ValueError("num must be at least 2")
    alphas = np.linspace(ALPHA_MARGIN, 1.0 - ALPHA_MARGIN, num)
    c1_t, c2_t = _targets(i1, i2, alphas)
    c1, c2, i_rd = _rates(s)
    fits = (c1 <= c1_t[:, None]) & (c2 <= c2_t[:, None])
    best = np.where(fits, i_rd, -np.inf).max(axis=1, initial=-np.inf)
    vals = alphas * np.where(best > 0, best, 0.0)
    return list(zip(alphas.tolist(), vals.tolist()))


def unimodality_report(s: Surface, i1: float, i2: float, num_alphas: int = 100,
                       tol: float = 1e-3) -> dict:
    """Count strict local maxima of the sampled objective, up to tol.

    The idealized objective is concave, hence unimodal; envelope
    discretization can create plateaus and small ripples, so this is a
    diagnostic report, never a fatal check.  Moves smaller than tol are
    treated as flat.
    """
    alphas, vals = np.array(alpha_objective_curve(s, i1, i2, num_alphas)).T
    steps = np.diff(vals)
    moves = np.flatnonzero(np.abs(steps) > tol)
    rises = steps[moves] > 0
    maxima = alphas[moves[:-1][rises[:-1] & ~rises[1:]] + 1].tolist()
    return {
        "num_alphas": int(num_alphas),
        "tol": float(tol),
        "num_strict_maxima": len(maxima),
        "maxima_alphas": maxima,
        "ok": len(maxima) <= 1,
    }
