"""WAV ingestion/emission, pre-emphasis, framing and Gaussian windowing.

Only RIFF/WAVE with format tag 1 (integer PCM), 16 bits, mono is supported.
Samples are scaled by 1/32768 on read so the in-memory range is [-1, 1);
on write they are quantized with round-half-away-from-zero and clipped to
the 16-bit range.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_SCALE = 32768.0


class WavFormatError(ValueError):
    """File is not a mono 16-bit PCM RIFF/WAVE container."""


class WavDataError(WavFormatError):
    """The data chunk is shorter than its declared size."""


@dataclass
class Waveform:
    """Mono sample sequence plus its sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __len__(self):
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass
class FrameSequence:
    """Fixed-length windowed analysis frames taken every `hop` samples.

    Frame i covers samples [i*hop, i*hop + frame_length) of the input and
    has already been multiplied by `window`.  A tail shorter than one full
    frame is discarded.
    """

    frames: np.ndarray  # (n_frames, frame_length)
    hop: int
    window: np.ndarray
    source_length: int

    @property
    def frame_length(self) -> int:
        return self.frames.shape[1]

    def __len__(self):
        return len(self.frames)


def read_wav(path) -> Waveform:
    """Read a mono 16-bit PCM WAV file into a float waveform in [-1, 1)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    declared = None
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + size]
        if cid == b"fmt ":
            if len(body) < 16:
                raise WavFormatError(f"{path}: fmt chunk too short")
            tag, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", body, 0)
            fmt = (tag, channels, rate, bits)
        elif cid == b"data":
            payload = body
            declared = size
        pos += 8 + size + (size & 1)  # chunks are word aligned

    if fmt is None or payload is None:
        raise WavFormatError(f"{path}: missing fmt or data chunk")
    tag, channels, rate, bits = fmt
    if tag != 1:
        raise WavFormatError(f"{path}: unsupported format tag {tag} (want PCM)")
    if channels != 1:
        raise WavFormatError(f"{path}: {channels} channels (only mono supported)")
    if bits != 16:
        raise WavFormatError(f"{path}: {bits}-bit samples (only 16-bit supported)")
    if len(payload) < declared or declared % 2 != 0:
        raise WavDataError(f"{path}: data chunk truncated "
                           f"({len(payload)} of {declared} bytes)")

    samples = np.frombuffer(payload, dtype="<i2").astype(np.float64) / _SCALE
    return Waveform(samples=samples, sample_rate=int(rate))


def write_wav(w: Waveform, path) -> None:
    """Write a waveform as mono 16-bit PCM, clipping out-of-range amplitudes."""
    x = np.asarray(w.samples, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot write non-finite samples")
    # round half away from zero, then clip into the representable range
    q = np.trunc(x * _SCALE + np.copysign(0.5, x))
    q = np.clip(q, -32768, 32767).astype("<i2")

    payload = q.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, 1, 1, w.sample_rate,
        w.sample_rate * 2, 2, 16,
        b"data", len(payload),
    )
    with open(path, "wb") as fh:
        fh.write(header + payload)


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"pre-emphasis coefficient must be in [0, 1), got {alpha}")


def preemphasize(w: Waveform, alpha: float = 0.97) -> Waveform:
    """First-order high-pass: y[n] = x[n] - alpha*x[n-1], y[0] = x[0]."""
    _check_alpha(alpha)
    x = np.asarray(w.samples, dtype=np.float64)
    y = np.empty_like(x)
    if len(x):
        y[0] = x[0]
        y[1:] = x[1:] - alpha * x[:-1]
    return Waveform(samples=y, sample_rate=w.sample_rate)


def deemphasize(w: Waveform, alpha: float = 0.97) -> Waveform:
    """Exact inverse of :func:`preemphasize`: y[n] = x[n] + alpha*y[n-1]."""
    _check_alpha(alpha)
    x = np.asarray(w.samples, dtype=np.float64)
    alpha = float(alpha)
    # one float recursion per sample, the arithmetic of lfilter([1], [1, -alpha])
    y = np.fromiter(accumulate(x.tolist(), lambda prev, v: v + alpha * prev),
                    dtype=np.float64, count=len(x))
    return Waveform(samples=y, sample_rate=w.sample_rate)


def gaussian_window(length: int, sigma: float = 0.4) -> np.ndarray:
    """Gaussian window; sigma is relative to the half-width (L-1)/2."""
    if length < 1:
        raise ValueError("window length must be >= 1")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if length == 1:
        return np.ones(1)
    half = (length - 1) / 2.0
    n = np.arange(length) - half
    return np.exp(-0.5 * (n / (sigma * half)) ** 2)


def frame_signal(w: Waveform, frame_ms: float = 25.0, hop_ms: float = 5.0,
                 sigma: float = 0.4) -> FrameSequence:
    """Slice a waveform into overlapping Gaussian-windowed frames.

    Frame and hop lengths are floor(ms * sample_rate / 1000) samples; any
    tail shorter than a full frame is discarded.
    """
    x = np.asarray(w.samples, dtype=np.float64)
    length = int(frame_ms * w.sample_rate / 1000.0)
    hop = int(hop_ms * w.sample_rate / 1000.0)
    if length < 1 or hop < 1:
        raise ValueError(f"frame/hop too short at {w.sample_rate} Hz: "
                         f"{frame_ms} ms / {hop_ms} ms")
    n = len(x)
    if n < length:
        raise ValueError(f"signal of {n} samples is shorter than one "
                         f"{length}-sample frame")
    window = gaussian_window(length, sigma)
    frames = sliding_window_view(x, length)[::hop] * window
    return FrameSequence(frames=frames, hop=hop, window=window, source_length=n)


def hop_segments(w: Waveform, hop: int, count: int) -> np.ndarray:
    """Contiguous hop-length segments aligned with the frame starts.

    Segment i covers samples [i*hop, (i+1)*hop); segments reaching past the
    end of the signal are zero padded.
    """
    x = np.asarray(w.samples, dtype=np.float64)
    out = np.zeros(count * hop)
    covered = min(len(x), len(out))
    out[:covered] = x[:covered]
    return out.reshape(count, hop)
