"""WAV round trips, pre/de-emphasis, Gaussian windows and framing."""

import struct

import numpy as np
import pytest
from scipy.signal import lfilter

from vconv.signal_io import (
    WavDataError,
    WavFormatError,
    Waveform,
    deemphasize,
    frame_signal,
    gaussian_window,
    hop_segments,
    preemphasize,
    read_wav,
    write_wav,
)


def _pcm_wav(int_samples, rate=11025, tag=1, channels=1, bits=16,
             truncate=0):
    """Raw RIFF bytes for hand-built decode tests."""
    payload = b"".join(struct.pack("<h", s) for s in int_samples)
    if truncate:
        payload_out = payload[:-truncate]
    else:
        payload_out = payload
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload_out), b"WAVE",
        b"fmt ", 16, tag, channels, rate,
        rate * channels * bits // 8, channels * bits // 8, bits,
        b"data", len(payload),
    )
    return header + payload_out


def test_read_scaling(tmp_path):
    """Integer sample k decodes to k / 32768."""
    path = tmp_path / "a.wav"
    path.write_bytes(_pcm_wav([16384, 0, -32768, 32767]))
    w = read_wav(path)
    assert w.sample_rate == 11025
    np.testing.assert_allclose(
        w.samples, [0.5, 0.0, -1.0, 32767 / 32768], atol=0)


def test_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(42)
    x = rng.uniform(-1.0, 32767 / 32768, size=4096)
    w = Waveform(samples=x, sample_rate=16000)
    path = tmp_path / "rt.wav"
    write_wav(w, path)
    back = read_wav(path)
    assert back.sample_rate == 16000
    assert len(back) == len(w)
    # quantization moves each sample by at most half a 16-bit step
    assert np.max(np.abs(back.samples - x)) <= 0.5 / 32768


def test_write_rounds_half_away_from_zero(tmp_path):
    path = tmp_path / "q.wav"
    write_wav(Waveform(np.array([0.5 / 32768, -0.5 / 32768]), 8000), path)
    back = read_wav(path)
    np.testing.assert_allclose(back.samples, [1 / 32768, -1 / 32768])


def test_write_clips_out_of_range(tmp_path):
    path = tmp_path / "clip.wav"
    write_wav(Waveform(np.array([2.0, -2.0]), 8000), path)
    back = read_wav(path)
    np.testing.assert_allclose(back.samples, [32767 / 32768, -1.0])


def test_write_rejects_non_finite(tmp_path):
    with pytest.raises(ValueError):
        write_wav(Waveform(np.array([0.0, np.nan]), 8000), tmp_path / "x.wav")
    with pytest.raises(ValueError):
        write_wav(Waveform(np.array([np.inf]), 8000), tmp_path / "y.wav")


def test_duration():
    w = Waveform(samples=np.zeros(6835), sample_rate=11025)
    assert len(w) == 6835
    assert w.duration == pytest.approx(0.62, abs=1e-4)


def test_read_rejects_non_riff(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"OggS" + b"\x00" * 40)
    with pytest.raises(WavFormatError):
        read_wav(path)


def test_read_rejects_float_pcm(tmp_path):
    path = tmp_path / "f32.wav"
    path.write_bytes(_pcm_wav([0, 0], tag=3))
    with pytest.raises(WavFormatError):
        read_wav(path)


def test_read_rejects_stereo(tmp_path):
    path = tmp_path / "st.wav"
    path.write_bytes(_pcm_wav([0, 0], channels=2))
    with pytest.raises(WavFormatError):
        read_wav(path)


def test_read_rejects_8_bit(tmp_path):
    path = tmp_path / "b8.wav"
    path.write_bytes(_pcm_wav([0, 0], bits=8))
    with pytest.raises(WavFormatError):
        read_wav(path)


def test_read_rejects_truncated_data(tmp_path):
    path = tmp_path / "tr.wav"
    path.write_bytes(_pcm_wav([1, 2, 3, 4], truncate=3))
    with pytest.raises(WavDataError):
        read_wav(path)


def test_read_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_wav(tmp_path / "nope.wav")


def test_preemphasis_hand_case():
    w = Waveform(samples=np.array([1.0, 1.0, 1.0]), sample_rate=8000)
    y = preemphasize(w, alpha=0.97)
    np.testing.assert_allclose(y.samples, [1.0, 0.03, 0.03])


def test_preemphasis_alpha_zero_is_identity():
    x = np.random.default_rng(0).standard_normal(100)
    y = preemphasize(Waveform(x, 8000), alpha=0.0)
    np.testing.assert_array_equal(y.samples, x)


def test_preemphasis_deemphasis_round_trip():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, size=100000)
    w = Waveform(samples=x, sample_rate=11025)
    back = deemphasize(preemphasize(w, 0.97), 0.97)
    assert np.max(np.abs(back.samples - x)) <= 1e-9


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.97, 0.999])
def test_deemphasis_matches_lfilter_bit_for_bit(alpha):
    rng = np.random.default_rng(int(alpha * 1000))
    for k in range(25):
        n = int(rng.integers(0, 5001)) if k else 0
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
        if k % 5 == 1:  # runs of exact zeros
            x[rng.random(n) < 0.3] = 0.0
        y = deemphasize(Waveform(x, 11025), alpha).samples
        np.testing.assert_array_equal(y, lfilter([1.0], [1.0, -alpha], x))


def test_preemphasis_zeros():
    y = preemphasize(Waveform(np.zeros(50), 8000))
    assert not np.any(y.samples)


@pytest.mark.parametrize("alpha", [-0.1, 1.0, 1.5])
def test_emphasis_alpha_range(alpha):
    w = Waveform(np.zeros(4), 8000)
    with pytest.raises(ValueError):
        preemphasize(w, alpha)
    with pytest.raises(ValueError):
        deemphasize(w, alpha)


def test_gaussian_window_length_one():
    np.testing.assert_array_equal(gaussian_window(1), [1.0])


def test_gaussian_window_hand_case():
    # L=3, sigma=0.4: edges sit at n=+-1 with half-width 1, so
    # exp(-0.5 * (1/0.4)^2) = exp(-3.125)
    w = gaussian_window(3, sigma=0.4)
    edge = np.exp(-3.125)
    np.testing.assert_allclose(w, [edge, 1.0, edge], rtol=1e-15)


def test_gaussian_window_symmetry():
    for length in range(1, 1025):
        w = gaussian_window(length, sigma=0.4)
        np.testing.assert_array_equal(w, w[::-1])
        assert np.all(w > 0) and np.all(w <= 1.0)


def test_gaussian_window_peak_at_center():
    w = gaussian_window(275, sigma=0.4)
    assert w[137] == 1.0
    assert np.argmax(w) == 137


def test_gaussian_window_bad_args():
    with pytest.raises(ValueError):
        gaussian_window(0)
    with pytest.raises(ValueError):
        gaussian_window(8, sigma=0.0)
    with pytest.raises(ValueError):
        gaussian_window(8, sigma=-1.0)


def test_frame_counts_default_geometry():
    # 0.62 s at 11025 Hz with 25 ms / 5 ms framing
    w = Waveform(samples=np.zeros(6835), sample_rate=11025)
    fs = frame_signal(w)
    assert fs.frame_length == 275
    assert fs.hop == 55
    assert len(fs) == (6835 - 275) // 55 + 1 == 120
    assert fs.source_length == 6835


def test_frame_contents_match_naive_loop():
    rng = np.random.default_rng(3)
    for rate, frame_ms, hop_ms in [(8000, 25.0, 5.0), (11025, 20.0, 10.0),
                                   (16000, 12.5, 2.5)]:
        n = int(rng.integers(2000, 4000))
        x = rng.standard_normal(n)
        fs = frame_signal(Waveform(x, rate), frame_ms, hop_ms, sigma=0.4)
        length = int(frame_ms * rate / 1000.0)
        hop = int(hop_ms * rate / 1000.0)
        window = gaussian_window(length, 0.4)
        expected = [x[s:s + length] * window
                    for s in range(0, n - length + 1, hop)]
        assert len(fs) == len(expected)
        np.testing.assert_array_equal(fs.frames, np.asarray(expected))


def test_frame_exact_single_frame():
    w = Waveform(samples=np.ones(275), sample_rate=11025)
    fs = frame_signal(w)
    assert len(fs) == 1
    np.testing.assert_array_equal(fs.frames[0], fs.window)


def test_frame_too_short_signal():
    with pytest.raises(ValueError):
        frame_signal(Waveform(np.zeros(100), 11025))


def test_frame_degenerate_hop():
    with pytest.raises(ValueError):
        frame_signal(Waveform(np.zeros(1000), 11025), 25.0, 0.01)


def test_hop_segments_cover_signal():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(613)
    segs = hop_segments(Waveform(x, 8000), hop=55, count=12)
    assert segs.shape == (12, 55)
    flat = segs.reshape(-1)
    np.testing.assert_array_equal(flat[:613], x[:613])
    # the tail past the signal end is zero padding
    assert not np.any(flat[613:])


def test_hop_segments_align_with_frames():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(6835)
    w = Waveform(x, 11025)
    fs = frame_signal(w)
    segs = hop_segments(w, fs.hop, len(fs))
    for i in range(len(fs)):
        np.testing.assert_array_equal(segs[i], x[i * 55:(i + 1) * 55])


def test_hop_segments_match_naive_loop():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(613)
    for hop, count in [(55, 12), (55, 11), (55, 3), (1, 613), (700, 2), (55, 0)]:
        expected = np.zeros((count, hop))
        for i in range(count):
            seg = x[i * hop:(i + 1) * hop]
            expected[i, :len(seg)] = seg
        np.testing.assert_array_equal(hop_segments(Waveform(x, 8000), hop, count),
                                      expected)
