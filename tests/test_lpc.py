"""Levinson-Durbin recursion, streaming filters, step-down stability and
filter poles from companion-matrix eigenvalues."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.signal import lfilter

import vconv.lpc
from vconv.lpc import (
    LpcFrame,
    analyze_track,
    autocorrelate,
    inverse_filter,
    levinson_durbin,
    lpc_poles,
    stable_rows,
    synthesis_filter,
)
from vconv.lsf import lsf_to_lpc
from vconv.signal_io import Waveform, frame_signal


def _dense_solve(r, order):
    """Direct Toeplitz solve of the normal equations, as an oracle."""
    matrix = toeplitz(r[:order])
    return np.linalg.solve(matrix, r[1:order + 1])


def _random_autocorr(rng, order, n=400):
    """Biased autocorrelation of a random frame; positive semidefinite."""
    x = rng.standard_normal(n)
    return autocorrelate(x, order)


def test_autocorrelate_hand_case():
    r = autocorrelate(np.array([1.0, 2.0, 3.0]), 2)
    np.testing.assert_allclose(r, [14 / 3, 8 / 3, 1.0], rtol=1e-15)


def test_autocorrelate_zeros():
    np.testing.assert_array_equal(autocorrelate(np.zeros(10), 4), np.zeros(5))


def test_autocorrelate_lag_zero_is_mean_square():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(257)
    r = autocorrelate(x, 0)
    assert r[0] == pytest.approx(np.mean(x ** 2), rel=1e-12)


def test_autocorrelate_peak_at_zero_lag():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(500)
    r = autocorrelate(x, 24)
    assert np.all(r[0] >= np.abs(r[1:]))


def test_autocorrelate_bad_lag():
    with pytest.raises(ValueError):
        autocorrelate(np.ones(5), 5)
    with pytest.raises(ValueError):
        autocorrelate(np.ones(5), -1)


def test_levinson_hand_case():
    frame = levinson_durbin(np.array([1.0, 0.5]), 1)
    np.testing.assert_allclose(frame.coefficients, [0.5])
    assert frame.gain == pytest.approx(np.sqrt(0.75), rel=1e-15)
    assert not frame.degenerate


def test_levinson_white_noise_autocorr():
    """r = [1, 0, ..., 0] predicts nothing: zero coefficients, unit gain."""
    r = np.zeros(9)
    r[0] = 1.0
    frame = levinson_durbin(r, 8)
    np.testing.assert_array_equal(frame.coefficients, np.zeros(8))
    assert frame.gain == pytest.approx(1.0)


def test_levinson_matches_dense_solve():
    rng = np.random.default_rng(42)
    for _ in range(50):
        order = int(rng.integers(1, 25))
        r = _random_autocorr(rng, order)
        frame = levinson_durbin(r, order)
        expected = _dense_solve(r, order)
        assert np.max(np.abs(frame.coefficients - expected)) <= 1e-9


def test_levinson_silence_floor():
    frame = levinson_durbin(np.zeros(5), 4)
    np.testing.assert_array_equal(frame.coefficients, np.zeros(4))
    assert frame.gain == 0.0


def test_levinson_degenerate_flag():
    # r[1] == r[0] forces the first reflection coefficient to 1
    frame = levinson_durbin(np.array([1.0, 1.0]), 1)
    assert frame.degenerate
    np.testing.assert_array_equal(frame.coefficients, [0.0])
    assert frame.gain == pytest.approx(1.0)


def test_levinson_needs_enough_lags():
    with pytest.raises(ValueError):
        levinson_durbin(np.array([1.0, 0.5]), 2)


def test_levinson_gain_non_increasing_in_order():
    rng = np.random.default_rng(5)
    r = _random_autocorr(rng, 12)
    gains = [levinson_durbin(r, p).gain for p in range(1, 13)]
    assert all(g1 >= g2 - 1e-15 for g1, g2 in zip(gains, gains[1:]))


def test_analyze_frame_recovers_ar2():
    rng = np.random.default_rng(6)
    e = rng.standard_normal(50000)
    y = lfilter([1.0], [1.0, -1.2, 0.72], e)
    frame = levinson_durbin(autocorrelate(y, 2), 2)
    np.testing.assert_allclose(frame.coefficients, [1.2, -0.72], atol=0.02)
    assert frame.gain == pytest.approx(1.0, abs=0.05)


def test_analyze_frame_silence():
    frame = levinson_durbin(autocorrelate(np.zeros(275), 24), 24)
    assert frame.order == 24
    assert frame.gain == 0.0


def test_inverse_filter_hand_case():
    out, state = inverse_filter([[1.0, 0.0]], [[0.5]], [0.0])
    np.testing.assert_allclose(out, [[1.0, -0.5]])
    np.testing.assert_allclose(state, [0.0])


def test_inverse_filter_zero_order_identity():
    x = np.arange(5.0)
    out, state = inverse_filter(x[None], np.zeros((1, 0)), np.zeros(0))
    np.testing.assert_array_equal(out, x[None])


def test_inverse_filter_state_mismatch():
    with pytest.raises(ValueError):
        inverse_filter([[1.0]], [[0.5, 0.1]], [0.0])


def test_inverse_filter_streaming_matches_batch():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(200)
    a = levinson_durbin(autocorrelate(rng.standard_normal(500), 8), 8).coefficients
    whole, _ = inverse_filter(x[None], a[None], np.zeros(8))
    state = np.zeros(8)
    parts = []
    for chunk in np.split(x, [13, 50, 160]):
        seg, state = inverse_filter(chunk[None], a[None], state)
        parts.append(seg[0])
    np.testing.assert_allclose(np.concatenate(parts), whole[0], atol=1e-12)


def test_synthesis_filter_impulse_response():
    e = np.zeros((1, 10))
    e[0, 0] = 1.0
    out, state = synthesis_filter(e, [[0.5]], [0.0])
    np.testing.assert_allclose(out, [0.5 ** np.arange(10)], rtol=1e-15)
    np.testing.assert_allclose(state, [out[0, -1]])


def test_synthesis_inverts_inverse_filter():
    rng = np.random.default_rng(8)
    signal = rng.standard_normal((1, 300))
    a = levinson_durbin(autocorrelate(rng.standard_normal(500) * 0.3, 10),
                        10).coefficients[None]
    resid, _ = inverse_filter(signal, a, np.zeros(10))
    back, _ = synthesis_filter(resid, a, np.zeros(10))
    assert np.max(np.abs(back - signal)) <= 1e-9


def test_synthesis_filter_streaming_matches_batch():
    rng = np.random.default_rng(9)
    e = rng.standard_normal(200)
    a = levinson_durbin(autocorrelate(rng.standard_normal(500), 6), 6).coefficients
    whole, _ = synthesis_filter(e[None], a[None], np.zeros(6))
    state = np.zeros(6)
    parts = []
    for chunk in np.split(e, [20, 77]):
        seg, state = synthesis_filter(chunk[None], a[None], state)
        parts.append(seg[0])
    np.testing.assert_allclose(np.concatenate(parts), whole[0], atol=1e-12)


def test_synthesis_filter_unstable_row_is_nan():
    # a pole at z = 2: the impulse response 2^n passes UNSTABLE_LIMIT at n = 40
    e = np.zeros((1, 50))
    e[0, 0] = 1.0
    out, state = synthesis_filter(e, [[2.0]], [0.0])
    assert out.shape == (1, 50) and np.isnan(out).all()
    np.testing.assert_array_equal(state, [0.0])


def test_synthesis_filter_state_mismatch():
    with pytest.raises(ValueError):
        synthesis_filter([[1.0]], [[0.5]], [0.0, 0.0])


def test_poles_first_order():
    lpc = LpcFrame(coefficients=np.array([0.5]), gain=1.0)
    np.testing.assert_allclose(lpc_poles(lpc), [0.5 + 0j], atol=1e-10)


def test_poles_conjugate_pair():
    # z^2 - 1.2 z + 0.72 has roots 0.6 +- 0.6j, magnitude 0.6*sqrt(2)
    lpc = LpcFrame(coefficients=np.array([1.2, -0.72]), gain=1.0)
    roots = lpc_poles(lpc)
    np.testing.assert_allclose(roots, [0.6 - 0.6j, 0.6 + 0.6j], atol=1e-10)
    np.testing.assert_allclose(np.abs(roots), 0.6 * np.sqrt(2), atol=1e-10)


def test_poles_unstable_filter():
    lpc = LpcFrame(coefficients=np.array([2.0]), gain=1.0)
    np.testing.assert_allclose(lpc_poles(lpc), [2.0 + 0j], atol=1e-10)


def test_poles_match_numpy_roots():
    # Levinson rows and raw-LPC-like N(0, 0.6) rows of orders 1-24, each with
    # a_p != 0, since numpy.roots strips trailing zeros
    rng = np.random.default_rng(10)
    outside = 0
    for i in range(200):
        order = 1 + i % 24
        if i % 2:
            a = levinson_durbin(autocorrelate(rng.standard_normal(400), order),
                                order).coefficients
        else:
            a = rng.normal(0.0, 0.6, order)
        assert a[-1] != 0.0
        got = lpc_poles(LpcFrame(coefficients=a, gain=1.0))
        expected = np.sort(np.roots(np.concatenate([[1.0], -a])))
        np.testing.assert_array_equal(got, expected)
        outside += np.any(np.abs(got) > 1.0)
    assert outside >= 20  # the raw rows reach beyond the unit circle


def test_poles_of_a_track_match_single_frames():
    rng = np.random.default_rng(15)
    track = np.stack([levinson_durbin(autocorrelate(rng.standard_normal(400), 24),
                                      24).coefficients
                      if i % 3 else rng.normal(0.0, 0.6, 24)
                      for i in range(150)])  # more rows than one block
    poles = lpc_poles(track)
    assert poles.shape == (150, 24) and poles.dtype == np.complex128
    for row, got in zip(track, poles):
        np.testing.assert_array_equal(
            got, lpc_poles(LpcFrame(coefficients=row, gain=1.0)))
    assert lpc_poles(np.zeros((0, 24))).shape == (0, 24)


def test_poles_come_in_exact_conjugate_pairs():
    rng = np.random.default_rng(16)
    for _ in range(200):
        poles = lpc_poles(levinson_durbin(
            autocorrelate(rng.standard_normal(400), 24), 24))
        complex_poles = poles[poles.imag != 0.0]
        assert len(complex_poles) > 0
        np.testing.assert_array_equal(np.sort(complex_poles.conj()),
                                      complex_poles)


def test_poles_of_non_finite_rows_are_nan():
    rng = np.random.default_rng(17)
    track = rng.normal(0.0, 0.6, (6, 24))
    bad = track.copy()
    bad[1, 3] = np.nan
    bad[4, 0] = np.inf
    poles = lpc_poles(bad)
    np.testing.assert_array_equal(np.isnan(poles).all(axis=1),
                                  np.isin(np.arange(6), [1, 4]))
    np.testing.assert_array_equal(np.delete(poles, [1, 4], axis=0),
                                  lpc_poles(np.delete(track, [1, 4], axis=0)))


def test_poles_satisfy_residual_bound():
    rng = np.random.default_rng(11)
    lpc = levinson_durbin(autocorrelate(rng.standard_normal(400), 24), 24)
    roots = lpc_poles(lpc)
    poly = np.concatenate([[1.0], -lpc.coefficients]).astype(complex)
    assert np.max(np.abs(np.polyval(poly, roots))) <= 1e-8


def test_autocorrelation_method_is_minimum_phase():
    """Predictors from biased autocorrelation keep poles inside the circle."""
    rng = np.random.default_rng(12)
    for _ in range(20):
        lpc = levinson_durbin(autocorrelate(rng.standard_normal(300), 16), 16)
        assert np.all(np.abs(lpc_poles(lpc)) < 1.0 + 1e-10)


def test_poles_need_positive_order():
    with pytest.raises(ValueError):
        lpc_poles(LpcFrame(coefficients=np.zeros(0), gain=1.0))


def _poly_from_radii(rng, radii):
    """Real predictor whose poles are conjugate pairs at the given radii."""
    angles = rng.uniform(0.05, np.pi - 0.05, len(radii))
    poles = radii * np.exp(1j * angles)
    return -np.poly(np.concatenate([poles, poles.conj()])).real[1:]


def test_step_down_agrees_with_numpy_roots():
    """Stable and unstable predictors, some with a pole pair within 1e-9
    of the unit circle on either side."""
    rng = np.random.default_rng(13)
    rows, expected = [], []
    for trial in range(300):
        order = 2 * int(rng.integers(1, 13))
        radii = rng.uniform(0.2, 1.05, order // 2)
        if trial % 2:
            radii[0] = 1.0 + rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-12, -9)
        a = _poly_from_radii(rng, radii)
        verdict = np.all(np.abs(np.roots(np.concatenate([[1.0], -a]))) < 1.0)
        assert verdict == np.all(radii < 1.0)  # the reference is not fooled
        assert stable_rows(a)[0] == verdict
        if order == 24:
            rows.append(a)
            expected.append(verdict)
    # a track of rows gives each row's own verdict
    np.testing.assert_array_equal(stable_rows(np.stack(rows)), expected)


def test_step_down_edge_cases():
    assert stable_rows([0.5])[0] and not stable_rows([1.0])[0]
    assert not stable_rows([0.0, 1.1])[0]  # poles at +-sqrt(1.1)
    assert stable_rows(np.zeros(24))[0]
    assert not stable_rows([0.5, np.nan])[0]
    assert not stable_rows([np.inf, 0.1])[0]
    # Levinson-Durbin output is minimum phase
    rng = np.random.default_rng(14)
    frames = np.stack([levinson_durbin(autocorrelate(rng.standard_normal(300), 16),
                                       16).coefficients
                       for _ in range(20)])
    assert stable_rows(frames).all()


def _per_frame_autocorrelate(frame, max_lag):
    """The np.correlate autocorrelation of one frame that the track code
    replaced, kept as the reference it must match bit for bit."""
    x = np.asarray(frame, dtype=np.float64)
    n = len(x)
    return np.correlate(x, x, mode="full")[n - 1:n + max_lag] / n


def _per_frame_levinson(r, order):
    """The one-frame Levinson-Durbin recursion that the track code
    replaced: (coefficients, gain, degenerate), the reference it must match
    bit for bit."""
    a = np.zeros(order)
    if r[0] <= vconv.lpc.SILENCE_FLOOR:
        return a, 0.0, False
    energy = r[0]
    for i in range(1, order + 1):
        acc = np.dot(a[:i - 1], r[i - 1:0:-1])
        k = (r[i] - acc) / energy
        if abs(k) >= 1.0:
            a[i - 1:] = 0.0
            return a, float(np.sqrt(energy)), True
        a[:i - 1] = a[:i - 1] - k * a[:i - 1][::-1]
        a[i - 1] = k
        energy *= 1.0 - k * k
    return a, float(np.sqrt(max(energy, 0.0))), False


def _assert_track_matches_reference(lags, order):
    track = levinson_durbin(lags, order)
    expected = [_per_frame_levinson(r, order) for r in lags]
    np.testing.assert_array_equal(track.coefficients,
                                  np.stack([e[0] for e in expected]))
    np.testing.assert_array_equal(track.gains, [e[1] for e in expected])
    np.testing.assert_array_equal(track.degenerate, [e[2] for e in expected])
    return track


def _edge_frames(rate, seconds=0.1):
    """Windowed frames of the edge inputs at one sample rate: silence, a
    pure tone, a clipped square, white noise and an impulse train."""
    rng = np.random.default_rng(rate)
    t = np.arange(int(seconds * rate)) / rate
    signals = [np.zeros_like(t),
               0.5 * np.sin(2 * np.pi * 440.0 * t),
               np.clip(3.0 * np.sign(np.sin(2 * np.pi * 150.0 * t)), -1.0, 1.0),
               rng.standard_normal(len(t)),
               (np.arange(len(t)) % (rate // 100) == 0).astype(float)]
    return np.concatenate([frame_signal(Waveform(samples=s, sample_rate=rate)).frames
                           for s in signals])


@pytest.mark.parametrize("rate", [8000, 11025, 48000])
def test_track_analysis_matches_per_frame_reference(rate):
    frames = _edge_frames(rate)
    for order in (2, 16, 24):
        lags = autocorrelate(frames, order)
        np.testing.assert_array_equal(
            lags, np.stack([_per_frame_autocorrelate(f, order) for f in frames]))
        track = _assert_track_matches_reference(lags, order)
        np.testing.assert_array_equal(track.coefficients,
                                      analyze_track(frames, order).coefficients)
        # a lone frame is a one-row call of the same code
        for i in (0, len(frames) // 2, len(frames) - 1):
            single = levinson_durbin(autocorrelate(frames[i], order), order)
            np.testing.assert_array_equal(single.coefficients,
                                          track.coefficients[i])
            assert single.gain == track.gains[i]
            assert single.degenerate == track.degenerate[i]


def test_track_flags_only_its_degenerate_rows():
    rng = np.random.default_rng(15)
    order = 16
    lags = autocorrelate(rng.standard_normal((30, 300)), order)
    lags[3] = 0.0
    lags[3, :2] = [1.0, 1.5]  # |k_1| = 1.5: stops before any coefficient
    lags[11] = 0.0
    lags[11, :3] = [1.0, 0.5, 1.0]  # k_1 = 0.5, then k_2 = 1: keeps a_1
    lags[20] = 0.0  # silence: zero coefficients and gain, not degenerate
    track = _assert_track_matches_reference(lags, order)
    assert np.flatnonzero(track.degenerate).tolist() == [3, 11]
    assert track.coefficients[11, 0] == 0.5 and track.gains[20] == 0.0
    # the other rows are what they are without the odd ones
    keep = np.setdiff1d(np.arange(30), [3, 11, 20])
    alone = levinson_durbin(lags[keep], order)
    np.testing.assert_array_equal(alone.coefficients, track.coefficients[keep])
    np.testing.assert_array_equal(alone.gains, track.gains[keep])


def test_track_analysis_shapes():
    assert autocorrelate(np.ones((3, 10)), 4).shape == (3, 5)
    assert levinson_durbin(np.zeros((0, 5)), 4).coefficients.shape == (0, 4)
    with pytest.raises(ValueError):
        autocorrelate(np.ones((2, 3, 10)), 4)
    with pytest.raises(ValueError):
        levinson_durbin(np.ones((3, 4)), 4)


def _segment_loop(filt, segments, coeffs, state):
    """A track filtered one segment at a time: the reference a whole-track
    call must match bit for bit."""
    rows = []
    for seg, a in zip(segments, coeffs):
        out, state = filt(seg[None], a[None], state)
        rows.append(out[0])
    return np.stack(rows), state


@pytest.mark.parametrize("order", [2, 16, 24])
def test_track_filters_match_segment_loop(order):
    rng = np.random.default_rng(order)
    coeffs = analyze_track(rng.standard_normal((12, 275)), order).coefficients
    segments = rng.standard_normal((12, 55))
    state = rng.standard_normal(order)
    for filt in (inverse_filter, synthesis_filter):
        out, last = filt(segments, coeffs, state)
        ref_out, ref_last = _segment_loop(filt, segments, coeffs, state)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(last, ref_last)


def test_track_synthesis_restarts_after_unstable_row():
    rng = np.random.default_rng(60)
    coeffs = analyze_track(rng.standard_normal((5, 275)), 6).coefficients
    coeffs[2] = 0.0
    coeffs[2, 0] = 2.0  # a pole at z = 2
    segments = rng.standard_normal((5, 55))
    out, last = synthesis_filter(segments, coeffs, np.zeros(6))
    assert np.isnan(out[2]).all()
    assert not np.isnan(np.delete(out, 2, axis=0)).any()
    head, _ = synthesis_filter(segments[:2], coeffs[:2], np.zeros(6))
    np.testing.assert_array_equal(out[:2], head)
    # after the blown-up row the stream goes on from a zero state
    tail, tail_last = synthesis_filter(segments[3:], coeffs[3:], np.zeros(6))
    np.testing.assert_array_equal(out[3:], tail)
    np.testing.assert_array_equal(last, tail_last)


def test_track_filters_need_one_filter_per_segment():
    coeffs = np.zeros((3, 4))
    for filt in (inverse_filter, synthesis_filter):
        with pytest.raises(ValueError, match="3 filters vs 2 segments"):
            filt(np.ones((2, 10)), coeffs, np.zeros(4))


def _loop_synthesis(segments, coeffs, state):
    """The per-sample recursion that the block form replaced, one np.dot
    per output sample, kept as the reference it must match closely."""
    coeffs = np.array(coeffs, dtype=np.float64, ndmin=2)
    rows = np.array(segments, dtype=np.float64, ndmin=2)
    state = np.asarray(state, dtype=np.float64)
    p = coeffs.shape[1]
    out = np.empty(rows.shape)
    for r, (a, e) in enumerate(zip(coeffs, rows)):
        n = len(e)
        buf = np.concatenate([state, np.zeros(n)])
        for i in range(n):
            buf[p + i] = e[i] + np.dot(a, buf[i:p + i][::-1])
        out[r] = buf[p:]
        state = buf[n:].copy()
        peak = np.max(np.abs(out[r])) if n else 0.0
        if not (np.isfinite(peak) and peak <= vconv.lpc.UNSTABLE_LIMIT):
            out[r] = np.nan
            state = np.zeros(p)
    return out, state


def _assert_matches_loop(segments, coeffs, state):
    out, last = synthesis_filter(segments, coeffs, state)
    ref_out, ref_last = _loop_synthesis(segments, coeffs, state)
    np.testing.assert_array_equal(np.isnan(out), np.isnan(ref_out))
    scale = np.nanmax(np.abs(ref_out))
    np.testing.assert_allclose(out, ref_out, rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(last, ref_last, rtol=1e-12, atol=1e-12 * scale)
    return out


@pytest.mark.parametrize("order", [2, 8, 16, 24])
@pytest.mark.parametrize("hop", [1, 5, 40, 55, 240])
def test_block_synthesis_matches_sample_loop(order, hop):
    rng = np.random.default_rng(100 * order + hop)
    frames = 70  # more than one block of rows
    # stable filters from LSF vectors with random spacings; the two forms
    # round differently, and with the lines much closer (resonances of a
    # pole radius near 0.999) both drift from exact arithmetic past 1e-12
    steps = 0.5 + rng.uniform(0.0, 1.0, (frames, order + 1))
    lsf = np.cumsum(steps, axis=1)[:, :order] * (np.pi / steps.sum(axis=1)[:, None])
    coeffs = lsf_to_lpc(lsf)
    segments = rng.standard_normal((frames, hop))
    _assert_matches_loop(segments, coeffs, rng.standard_normal(order))


def test_block_synthesis_mutes_as_the_sample_loop_does():
    rng = np.random.default_rng(61)
    coeffs = analyze_track(rng.standard_normal((6, 275)), 24).coefficients
    coeffs[[1, 2]] = 0.0
    coeffs[1, 0] = 3.0  # a pole at z = 3: 3^37 passes UNSTABLE_LIMIT
    coeffs[2, 0] = 2.0  # a pole at z = 2, from the zero state row 1 leaves
    segments = rng.standard_normal((6, 38))
    segments[2] = 0.0
    segments[2, 0] = 2.3e11 / 2.0 ** 37  # peaks at 2.3e11, under the limit
    out = _assert_matches_loop(segments, coeffs, rng.standard_normal(24))
    assert np.isnan(out[:, 0]).tolist() == [False, True] + [False] * 4
    assert np.max(np.abs(out[2])) == pytest.approx(2.3e11)


def _synthesis_peak_bytes(frames, hop=55, order=24):
    coeffs = np.tile(levinson_durbin(autocorrelate(np.arange(275.0) % 7, order),
                                     order).coefficients,
                     (frames, 1))
    segments = np.ones((frames, hop))
    tracemalloc.start()
    try:
        synthesis_filter(segments, coeffs, np.zeros(order))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_synthesis_working_set_is_bounded():
    # beyond its output rows a long track takes no more than a short one
    extra = _synthesis_peak_bytes(4096) - _synthesis_peak_bytes(64)
    assert extra <= 4096 * 55 * 8


def _poles_peak_bytes(frames, order=24):
    coeffs = np.random.default_rng(18).normal(0.0, 0.6, (frames, order))
    tracemalloc.start()
    try:
        lpc_poles(coeffs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_poles_working_set_is_bounded():
    # beyond its output rows a long track takes no more than a two-block one
    extra = _poles_peak_bytes(4096) - _poles_peak_bytes(128)
    assert extra <= 4096 * 24 * 16
