"""Discrete memoryless models of the relay's uplink observation.

The relay sees Y_r = X1 + X2 + Z_r where the two users transmit BPSK symbols
and Z_r is Gaussian.  For numerical work the output is discretized onto a
uniform bin grid; arbitrary user-supplied discrete laws are accepted as well
so that tiny hand-checkable channels can drive the oracle tests.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

# Stored pmfs are renormalized to machine precision; inputs only need to be
# normalized to within INPUT_ATOL.
INPUT_ATOL = 1e-9

# Cephes' ndtr (S. L. Moshier, Methods and Programs for Mathematical Functions,
# 1989), the normal CDF that scipy.special.ndtr computes: its constants and
# the coefficients of its rational erf and erfc, highest degree first.  A
# leading 1.0 is Cephes' implicit monic term (p1evl).
SQRTH = 0.70710678118654752440
MAXLOG = 7.09782712893383996843e2
# erf(t) = t T(t^2) / U(t^2) for |t| <= 1
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
# erfc(z) = exp(-z^2) P(z) / Q(z) for 1 <= z < 8
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
# erfc(z) = exp(-z^2) R(z) / S(z) for z >= 8
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# Above this z, z^2 > MAXLOG and erfc(z) underflows to 0 (sqrt(MAXLOG) = 26.6).
_ERFC_ZMAX = 27.0


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ChannelModel:
    """Joint law p(x1)p(x2)p(y_r|x1,x2) with all derived marginals.

    Independence of the two inputs is structural: the joint is always formed
    as the product of the two priors and the conditional output law.
    Instances are immutable and safe to share across parallel workers.
    """

    x1_alphabet: np.ndarray
    x2_alphabet: np.ndarray
    p_x1: np.ndarray
    p_x2: np.ndarray
    p_yr_given_x1x2: np.ndarray  # shape (|X1|, |X2|, |Yr|)
    bin_centers: np.ndarray
    p_yr: np.ndarray = field(init=False)
    p_yr_given_x1: np.ndarray = field(init=False)
    p_yr_given_x2: np.ndarray = field(init=False)
    p_x1x2_yr: np.ndarray = field(init=False)

    def __post_init__(self):
        # copies: freezing them must not freeze or alias the caller's arrays
        # (_validated_pmf returns new pmfs)
        x1 = _readonly(np.array(self.x1_alphabet, dtype=float))
        x2 = _readonly(np.array(self.x2_alphabet, dtype=float))
        p1 = np.asarray(self.p_x1, dtype=float)
        p2 = np.asarray(self.p_x2, dtype=float)
        w = np.asarray(self.p_yr_given_x1x2, dtype=float)
        centers = _readonly(np.array(self.bin_centers, dtype=float))

        if x1.ndim != 1 or x2.ndim != 1:
            raise ValueError("alphabets must be 1-D")
        if p1.shape != x1.shape or p2.shape != x2.shape:
            raise ValueError("prior shapes must match alphabet shapes")
        if w.ndim != 3 or w.shape[:2] != (x1.size, x2.size):
            raise ValueError(
                f"conditional pmf must have shape ({x1.size}, {x2.size}, |Yr|), got {w.shape}"
            )
        if centers.shape != (w.shape[2],):
            raise ValueError("bin_centers length must equal |Yr|")

        p1 = _validated_pmf(p1, "p_x1")
        p2 = _validated_pmf(p2, "p_x2")
        w = _validated_pmf(w, "p_yr_given_x1x2")

        joint = p1[:, None, None] * p2[None, :, None] * w
        object.__setattr__(self, "x1_alphabet", x1)
        object.__setattr__(self, "x2_alphabet", x2)
        object.__setattr__(self, "p_x1", _readonly(p1))
        object.__setattr__(self, "p_x2", _readonly(p2))
        object.__setattr__(self, "p_yr_given_x1x2", _readonly(w))
        object.__setattr__(self, "bin_centers", centers)
        object.__setattr__(self, "p_yr", _readonly(joint.sum(axis=(0, 1))))
        object.__setattr__(self, "p_yr_given_x1", _readonly(np.einsum("b,abj->aj", p2, w)))
        object.__setattr__(self, "p_yr_given_x2", _readonly(np.einsum("a,abj->bj", p1, w)))
        object.__setattr__(self, "p_x1x2_yr", _readonly(joint))

    @property
    def num_x1(self) -> int:
        return self.x1_alphabet.size

    @property
    def num_x2(self) -> int:
        return self.x2_alphabet.size

    @property
    def num_bins(self) -> int:
        return self.bin_centers.size

    def fingerprint(self) -> str:
        """SHA-256 over the defining arrays, stable across runs."""
        h = hashlib.sha256()
        for arr in (self.x1_alphabet, self.x2_alphabet, self.p_x1, self.p_x2,
                    self.p_yr_given_x1x2, self.bin_centers):
            h.update(np.asarray(arr.shape, dtype=np.int64).tobytes())
            h.update(arr.tobytes())
        return h.hexdigest()

    def to_dict(self) -> dict:
        return {
            "x1_alphabet": self.x1_alphabet.tolist(),
            "x2_alphabet": self.x2_alphabet.tolist(),
            "p_x1": self.p_x1.tolist(),
            "p_x2": self.p_x2.tolist(),
            "p_yr_given_x1x2": self.p_yr_given_x1x2.tolist(),
            "bin_centers": self.bin_centers.tolist(),
            "p_yr": self.p_yr.tolist(),
            "fingerprint": self.fingerprint(),
        }


def _validated_pmf(p: np.ndarray, name: str, axis: int = -1) -> np.ndarray:
    """`p` with every slice along `axis` renormalized to sum to 1.  Each slice
    must be finite, nonnegative and sum to 1 within INPUT_ATOL; a bad slice is
    named by its indices on the other axes."""
    if not np.all(np.isfinite(p)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.any(p < 0):
        raise ValueError(f"{name} has negative entry at index {np.argwhere(p < 0)[0].tolist()}")
    s = p.sum(axis=axis, keepdims=True)
    bad = np.abs(s - 1.0) > INPUT_ATOL
    if bad.any():
        first = np.argwhere(bad)[0]
        k = np.delete(first, axis)
        where = f"[{','.join(map(str, k))}]" if k.size else ""
        raise ValueError(f"{name}{where} sums to {float(s[tuple(first)])!r}, "
                         f"expected 1 within {INPUT_ATOL}")
    return p / s


def db_to_power(snr_db: float) -> float:
    """10**(snr_db / 10); a ValueError where snr_db or that power is not finite."""
    try:
        if math.isfinite(snr_db):
            return math.pow(10.0, snr_db / 10.0)  # raises on overflow, numpy floats too
    except OverflowError:
        pass
    raise ValueError(f"SNR {snr_db!r} dB is not finite or overflows as a power")


def _horner(x: np.ndarray, coefs: tuple) -> np.ndarray:
    """The polynomial with these coefficients, highest degree first, at x.
    Same operations as Cephes' polevl; with a leading 1.0 also as its p1evl,
    since 1.0 * x is exact."""
    acc = coefs[0]
    for c in coefs[1:]:
        acc = acc * x + c
    return acc


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF, elementwise, bit for bit Cephes' ndtr.

    Both rational branches are evaluated everywhere and selected after, with
    their arguments clipped to the ranges where they are used so that no
    input overflows.  exp is libm's (math.exp) per element, as in Cephes;
    numpy's exp rounds differently on some inputs.
    """
    x = a * SQRTH
    z = np.abs(x)
    t = np.clip(x, -1.0, 1.0)
    tt = t * t
    erf = t * _horner(tt, _ERF_T) / _horner(tt, _ERF_U)
    zc = np.clip(z, 1.0, _ERFC_ZMAX)
    e = np.fromiter(map(math.exp, (-zc * zc).ravel().tolist()), float, zc.size).reshape(zc.shape)
    tail = np.where(zc < 8.0, e * _horner(zc, _ERFC_P) / _horner(zc, _ERFC_Q),
                    e * _horner(zc, _ERFC_R) / _horner(zc, _ERFC_S))
    # erfc(z) = 1 - erf(z) below 1, and erf(|x|) = |erf(x)| exactly
    erfc = np.where(z < 1.0, 1.0 - np.abs(erf), np.where(zc * zc > MAXLOG, 0.0, tail))
    half = 0.5 * erfc
    return np.where(z < SQRTH, 0.5 + 0.5 * erf, np.where(x > 0, 1.0 - half, half))


def build_bpsk_mac(snr1_db: float, snr2_db: float, num_bins: int = 128,
                   span_sigmas: float = 4.0) -> ChannelModel:
    """Discretized BPSK multiple-access uplink with unit-variance Gaussian noise.

    Power P_k = 10^(snr_db/10) relative to the noise, so the input alphabets
    are {-sqrt(P_k), +sqrt(P_k)} with uniform priors.  The output axis is a
    uniform grid of `num_bins` bins covering all four mixture means plus
    `span_sigmas` noise deviations on each side; the outermost bins absorb the
    Gaussian tails so each conditional pmf sums to one.
    """
    amp1, amp2 = math.sqrt(db_to_power(snr1_db)), math.sqrt(db_to_power(snr2_db))
    if not isinstance(num_bins, (int, np.integer)) or num_bins < 4:
        raise ValueError(f"num_bins must be an integer >= 4, got {num_bins!r}")
    if not (math.isfinite(span_sigmas) and span_sigmas > 0):
        raise ValueError(f"span_sigmas must be positive, got {span_sigmas!r}")

    x1 = np.array([-amp1, amp1])
    x2 = np.array([-amp2, amp2])

    means = x1[:, None] + x2[None, :]
    lo = means.min() - span_sigmas
    hi = means.max() + span_sigmas
    edges = np.linspace(lo, hi, num_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])

    # Tail-absorbing bin probabilities: CDF at the interior edges, padded with
    # 0 and 1, then differenced.
    cdf = _ndtr(edges[1:-1] - means[:, :, None])
    w = np.diff(cdf, axis=2, prepend=0.0, append=1.0)

    return ChannelModel(
        x1_alphabet=x1,
        x2_alphabet=x2,
        p_x1=np.array([0.5, 0.5]),
        p_x2=np.array([0.5, 0.5]),
        p_yr_given_x1x2=w,
        bin_centers=centers,
    )


def from_pmfs(p_x1, p_x2, p_yr_given_x1x2) -> ChannelModel:
    """Build a model from explicit discrete laws.

    The alphabets are the 0..n-1 index values and `bin_centers` the bin
    indices; the Gaussian structure is irrelevant for rate computations.
    """
    p_x1 = np.asarray(p_x1, dtype=float)
    p_x2 = np.asarray(p_x2, dtype=float)
    w = np.asarray(p_yr_given_x1x2, dtype=float)
    if w.ndim != 3:
        raise ValueError("p_yr_given_x1x2 must be a 3-D array")
    return ChannelModel(
        x1_alphabet=np.arange(p_x1.size, dtype=float),
        x2_alphabet=np.arange(p_x2.size, dtype=float),
        p_x1=p_x1,
        p_x2=p_x2,
        p_yr_given_x1x2=w,
        bin_centers=np.arange(w.shape[2], dtype=float),
    )
