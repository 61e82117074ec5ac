import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from qfrelay import (
    ChannelModel,
    QuantizerPmf,
    build_bpsk_mac,
    from_pmfs,
    fixture_channel,
    rate_report,
    yr_conditional_entropies,
)
from qfrelay.channel import MAXLOG, SQRTH, _ndtr


def test_bpsk_shapes_and_alphabets():
    ch = build_bpsk_mac(1.5, 4.5, num_bins=128, span_sigmas=4.0)
    a1 = np.sqrt(10 ** (1.5 / 10))
    a2 = np.sqrt(10 ** (4.5 / 10))
    assert np.allclose(ch.x1_alphabet, [-a1, a1])
    assert np.allclose(ch.x2_alphabet, [-a2, a2])
    assert ch.p_yr_given_x1x2.shape == (2, 2, 128)
    assert np.allclose(ch.p_x1, [0.5, 0.5])
    assert np.allclose(ch.p_x2, [0.5, 0.5])
    # four distinct mixture components centered at +-a1 +- a2
    means = np.array([s1 + s2 for s1 in (-a1, a1) for s2 in (-a2, a2)])
    assert len(np.unique(np.round(means, 12))) == 4
    lo, hi = ch.bin_centers[0], ch.bin_centers[-1]
    assert lo < means.min() and hi > means.max()


def test_bpsk_pmf_normalization_exact():
    ch = build_bpsk_mac(1.5, 4.5)
    sums = ch.p_yr_given_x1x2.sum(axis=2)
    assert np.max(np.abs(sums - 1.0)) < 1e-12
    assert np.all(ch.p_yr_given_x1x2 >= 0)
    # derived marginal consistency
    joint = ch.p_x1[:, None, None] * ch.p_x2[None, :, None] * ch.p_yr_given_x1x2
    assert np.max(np.abs(joint.sum(axis=(0, 1)) - ch.p_yr)) < 1e-12
    assert np.max(np.abs(joint - ch.p_x1x2_yr)) < 1e-12


def test_bpsk_invalid_arguments():
    with pytest.raises(ValueError):
        build_bpsk_mac(float("nan"), 4.5)
    with pytest.raises(ValueError):
        build_bpsk_mac(1.5, float("inf"))
    with pytest.raises(ValueError):
        build_bpsk_mac(1.5, 4.5, num_bins=3)
    with pytest.raises(ValueError):
        build_bpsk_mac(1.5, 4.5, span_sigmas=0.0)


def test_bpsk_equal_snr_symmetry():
    ch = build_bpsk_mac(2.0, 2.0, num_bins=64)
    assert np.array_equal(ch.p_yr_given_x1, ch.p_yr_given_x2)


def test_bpsk_snr_swap_swaps_user_roles():
    ch = build_bpsk_mac(1.5, 4.5, num_bins=64)
    sw = build_bpsk_mac(4.5, 1.5, num_bins=64)
    assert np.array_equal(ch.p_yr_given_x1, sw.p_yr_given_x2)
    assert np.array_equal(ch.p_yr_given_x2, sw.p_yr_given_x1)
    assert np.array_equal(ch.p_yr_given_x1x2, np.swapaxes(sw.p_yr_given_x1x2, 0, 1))
    e = yr_conditional_entropies(ch)
    es = yr_conditional_entropies(sw)
    assert e["h_yr_given_x1"] == es["h_yr_given_x2"]
    assert e["h_yr_given_x2"] == es["h_yr_given_x1"]


def test_bin_refinement_nondecreasing():
    # nested uniform grids: doubling num_bins refines the partition, so the
    # conditional mutual information sum cannot drop
    vals = []
    for bins in (8, 16, 32, 64):
        ch = build_bpsk_mac(1.5, 4.5, num_bins=bins)
        rep = rate_report(ch, QuantizerPmf.identity(bins))
        vals.append(rep.j_value)
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-12


def test_from_pmfs_xor_channel():
    w = np.zeros((2, 2, 2))
    w[0, 0, 0] = w[1, 1, 0] = 1.0
    w[0, 1, 1] = w[1, 0, 1] = 1.0
    ch = from_pmfs([0.5, 0.5], [0.5, 0.5], w)
    assert np.allclose(ch.p_yr, [0.5, 0.5])


def test_from_pmfs_degenerate_prior_accepted():
    w = np.zeros((2, 2, 2))
    w[:, :, 0] = 1.0
    ch = from_pmfs([1.0, 0.0], [0.5, 0.5], w)
    assert ch.p_x1[0] == 1.0
    rep = rate_report(ch, QuantizerPmf.identity(2))
    assert rep.r1 == 0.0  # H(X1) = 0 upstream of everything


def test_from_pmfs_normalization_error_names_index():
    w = np.full((2, 2, 2), 0.5)
    w[1, 0] = [0.7, 0.6]
    with pytest.raises(ValueError, match=r"\[1,0\]"):
        from_pmfs([0.5, 0.5], [0.5, 0.5], w)
    with pytest.raises(ValueError):
        from_pmfs([0.6, 0.6], [0.5, 0.5], np.full((2, 2, 2), 0.5))


def test_renormalization_matches_per_slice_reference():
    rng = np.random.default_rng(5)
    w = rng.random((3, 2, 200))
    w /= w.sum(axis=2, keepdims=True)
    w *= 1.0 + rng.uniform(-1e-10, 1e-10, size=(3, 2, 1))
    ch = from_pmfs([0.2, 0.3, 0.5], [0.5, 0.5], w)
    for a in range(3):
        for b in range(2):
            assert np.array_equal(ch.p_yr_given_x1x2[a, b], w[a, b] / w[a, b].sum())


def test_fixture_channel_echoes_inputs():
    fx = fixture_channel()
    assert fx.p_yr_given_x1x2.shape == (2, 2, 3)
    assert np.allclose(fx.p_x1, [0.5, 0.5])
    assert np.allclose(fx.p_x2, [0.65, 0.35])
    assert np.max(np.abs(fx.p_yr_given_x1x2.sum(axis=2) - 1.0)) < 1e-12
    # hand-normalized law: rows sum to 1 by construction, spot-check one entry
    assert fx.p_yr_given_x1x2[0, 0, 0] == pytest.approx(0.80, abs=1e-12)


def test_model_is_immutable_and_fingerprinted():
    fx = fixture_channel()
    with pytest.raises((ValueError, RuntimeError)):
        fx.p_x1[0] = 0.9
    f1 = fx.fingerprint()
    f2 = fixture_channel().fingerprint()
    assert f1 == f2
    other = build_bpsk_mac(1.5, 4.5, num_bins=8).fingerprint()
    assert f1 != other


def test_model_copies_the_callers_arrays():
    """Freezing the model leaves the caller's arrays writeable, and writing to
    them afterwards changes neither the model nor its fingerprint."""
    fx = fixture_channel()
    x1, x2, centers = np.array([-1.0, 1.0]), np.array([-1.0, 1.0]), np.array([-2.0, 0.0, 2.0])
    ch = ChannelModel(x1, x2, fx.p_x1, fx.p_x2, fx.p_yr_given_x1x2, centers)
    before = ch.fingerprint()
    for a, frozen in ((x1, ch.x1_alphabet), (x2, ch.x2_alphabet), (centers, ch.bin_centers)):
        assert a.flags.writeable and a is not frozen and not frozen.flags.writeable
        a[0] = 5.0
    assert ch.fingerprint() == before
    assert ch.x1_alphabet[0] == ch.x2_alphabet[0] == -1.0 and ch.bin_centers[0] == -2.0


def test_to_dict_round_trips_tensors():
    fx = fixture_channel()
    d = fx.to_dict()
    assert np.allclose(d["p_yr_given_x1x2"], fx.p_yr_given_x1x2)
    assert np.allclose(d["p_x2"], fx.p_x2)


def _ulps_around(v: float, n: int = 8) -> np.ndarray:
    """The n floats below v, v and the n floats above it."""
    below = [v]
    above = [v]
    for _ in range(n):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return np.array(below[::-1] + above[1:])


def test_ndtr_port_is_bit_identical_to_scipy():
    rng = np.random.default_rng(0)
    a = [rng.normal(0.0, 3.0, 200_000), rng.uniform(-40.0, 40.0, 200_000),
         rng.uniform(-1.5, 1.5, 200_000), np.linspace(-40.0, 40.0, 100_000),
         [0.0, -0.0, np.inf, -np.inf, 1e300, -1e300, 5e-324, -5e-324]]
    # Both sides of each branch split of |x| = |a| SQRTH: the erf/erfc split
    # at SQRTH, erfc's 1.0 and 8.0 splits, and its underflow at x^2 = MAXLOG.
    splits = (SQRTH, 1.0, 8.0, math.sqrt(MAXLOG))
    for split in splits:
        near = _ulps_around(split / SQRTH)
        a += [near, -near]
    a = np.concatenate(a)
    z = np.minimum(np.abs(a * SQRTH), 30.0)
    for side in (z - SQRTH, z - 1.0, z - 8.0, z * z - MAXLOG):
        close = np.abs(side) < 1e-12
        assert (close & (side < 0)).any() and (close & (side >= 0)).any()
    got, want = _ndtr(a), ndtr(a)
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert bad.size == 0, f"{bad.size} mismatches, first at a={a[bad[0]]!r}"


def test_ndtr_port_raises_no_warning_at_extremes():
    mags = np.concatenate([np.logspace(-300, 300, 601), [0.0]])
    a = np.concatenate([mags, -mags])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _ndtr(a)
    assert np.all((got >= 0.0) & (got <= 1.0))


def test_default_bpsk_channel_is_pinned():
    ch = build_bpsk_mac(1.5, 4.5)
    assert ch.fingerprint() == ("9b8202b741a6ed52adf19530c013daa8"
                                "a030f843000dc5152b1b93c8825ba470")
