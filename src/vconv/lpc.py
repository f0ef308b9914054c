"""Linear predictive analysis: autocorrelation method, streaming filters, poles.

Sign convention, used everywhere in this package: the predictor is
s_hat(n) = sum_k a_k * s(n-k), so the analysis (inverse) filter is
A(z) = 1 - sum_k a_k z^-k and the synthesis filter is 1/A(z).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SILENCE_FLOOR = 1e-12
UNSTABLE_LIMIT = 1e12

# synthesis works on this many frames at a time, so its working set stays
# bounded whatever the track length: at order 24 and a 240-sample hop
# (48 kHz) a block's responses take 3.4 MB
_SYNTHESIS_BLOCK = 64
# frames per pole solve, for the same reason
_POLE_BLOCK = 64


@dataclass
class LpcFrame:
    """Order-p predictor: coefficients a_1..a_p plus the prediction gain.

    `gain` is sqrt of the final prediction-error power.  `degenerate` is set
    when the recursion hit a reflection coefficient of magnitude >= 1 and
    stopped early (remaining coefficients are zero).
    """

    coefficients: np.ndarray
    gain: float
    degenerate: bool = field(default=False)

    @property
    def order(self) -> int:
        return len(self.coefficients)


@dataclass
class LpcTrack:
    """The order-p predictors of a track, one row per frame, with the
    gains and degenerate flags that LpcFrame holds for one frame."""

    coefficients: np.ndarray  # (frames, order)
    gains: np.ndarray  # (frames,)
    degenerate: np.ndarray  # (frames,) bool


def autocorrelate(frame: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased autocorrelation r[tau] = (1/N) sum_t x[t] x[t+tau], tau = 0..max_lag.

    The 1/N normalization makes the Toeplitz system positive semidefinite,
    which keeps the resulting predictor minimum phase.  A (frames, N)
    array gives one row of lags per frame.
    """
    x = np.ascontiguousarray(frame, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError(f"expected a frame or a (frames, length) array, got shape {x.shape}")
    rows = np.atleast_2d(x)
    n = rows.shape[1]
    if not 0 <= max_lag < n:
        raise ValueError(f"max_lag {max_lag} out of range for frame of {n} samples")
    # each lag is one dot product per row: the ddot that np.correlate makes
    lags = np.empty((len(rows), max_lag + 1))
    for tau in range(max_lag + 1):
        lags[:, tau] = np.matmul(rows[:, None, tau:], rows[:, :n - tau, None])[:, 0, 0]
    lags /= n
    return lags if x.ndim == 2 else lags[0]


def levinson_durbin(r: np.ndarray, order: int):
    """Solve the Toeplitz normal equations by the Levinson-Durbin recursion.

    `r` is one autocorrelation vector, giving an LpcFrame, or a (frames,
    lags) array, giving an LpcTrack.  A (near-)silent frame (r[0] <=
    SILENCE_FLOOR) gets zero coefficients and zero gain.  If a reflection
    coefficient reaches magnitude 1 that frame's recursion stops and the
    frame is flagged degenerate.
    """
    lags = np.asarray(r, dtype=np.float64)
    rows = lags.reshape(1, -1) if lags.ndim == 1 else lags
    if rows.ndim != 2 or rows.shape[1] < order + 1:
        raise ValueError(f"need {order + 1} autocorrelation lags, got shape {lags.shape}")
    coeffs = np.zeros((len(rows), order))
    gains = np.zeros(len(rows))
    degenerate = np.zeros(len(rows), dtype=bool)

    live = np.flatnonzero(~(rows[:, 0] <= SILENCE_FLOOR))
    rr = rows[live]
    a = np.zeros((len(live), order))
    energy = rr[:, 0].copy()
    for i in range(1, order + 1):
        # a contiguous copy makes the dot product the ddot of a lone frame
        rev = np.ascontiguousarray(rr[:, i - 1:0:-1])
        acc = np.matmul(a[:, None, :i - 1], rev[:, :, None])[:, 0, 0]
        k = (rr[:, i] - acc) / energy
        stop = np.abs(k) >= 1.0
        if stop.any():  # freeze these rows; coefficients from i on stay 0
            coeffs[live[stop]] = a[stop]
            gains[live[stop]] = np.sqrt(energy[stop])
            degenerate[live[stop]] = True
            go = ~stop
            live, rr, a, energy, k = live[go], rr[go], a[go], energy[go], k[go]
        head = a[:, :i - 1]
        a[:, :i - 1] = head - k[:, None] * head[:, ::-1]
        a[:, i - 1] = k
        energy *= 1.0 - k * k
    coeffs[live] = a
    gains[live] = np.sqrt(np.maximum(energy, 0.0))

    if lags.ndim == 1:
        return LpcFrame(coefficients=coeffs[0], gain=float(gains[0]),
                        degenerate=bool(degenerate[0]))
    return LpcTrack(coefficients=coeffs, gains=gains, degenerate=degenerate)


def analyze_track(frames: np.ndarray, order: int) -> LpcTrack:
    """Autocorrelation analysis of every row of a (frames, length) array."""
    return levinson_durbin(autocorrelate(np.atleast_2d(frames), order), order)


def _filter_rows(signal, coefficients, state):
    """(coefficient rows, signal rows, state) of a filter call, as float64
    arrays checked against each other."""
    coeffs = np.ascontiguousarray(coefficients, dtype=np.float64)
    rows = np.asarray(signal, dtype=np.float64)
    if coeffs.ndim != 2 or rows.ndim != 2 or len(coeffs) != len(rows):
        raise ValueError(f"{len(coeffs)} filters vs {len(rows)} segments: need "
                         f"(frames, p) and (frames, hop), got {coeffs.shape} "
                         f"and {rows.shape}")
    state = np.asarray(state, dtype=np.float64)
    if len(state) != coeffs.shape[1]:
        raise ValueError(f"state length {len(state)} != filter order "
                         f"{coeffs.shape[1]}")
    return coeffs, rows, state


def inverse_filter(segments, coefficients, state):
    """Prediction error e[n] = s[n] - sum_k a_k s[n-k], streaming across segments.

    Row i of the (frames, p) coefficients filters row i of the (frames,
    hop) segments.  `state` holds the last p input samples (oldest first)
    before the first segment; the returned state continues the stream.
    """
    coeffs, rows, state = _filter_rows(segments, coefficients, state)
    p = coeffs.shape[1]
    residual = np.empty(rows.shape)
    for r, (a, seg) in enumerate(zip(coeffs, rows)):
        ext = np.concatenate([state, seg])
        kernel = np.concatenate([[1.0], -a])
        residual[r] = np.convolve(ext, kernel)[p:p + len(seg)]
        state = ext[len(seg):]
    return residual, state.copy()


def _hop_responses(coeffs, rows, buf):
    """Per filter row, over one hop: the zero-state response to its signal
    row, (frames, hop), and the responses to each of the p carried output
    samples set to one, (frames, p, hop).  Both are views of `buf`, scratch
    space of at least (frames, p + 1, p + hop).

    One recursion runs over the hop for every row at once, on p + 1
    channels: the signal from a zero state, and zero input from each unit
    state.  Each step is one stacked matrix-vector product, so a row's
    responses do not depend on the other rows of the call.
    """
    p = coeffs.shape[1]
    buf = buf[:len(coeffs)]
    buf[:] = 0.0
    buf[:, 0, p:] = rows
    buf[:, 1:, :p] = np.eye(p)
    reversed_coeffs = np.ascontiguousarray(coeffs[:, ::-1])[:, :, None]
    for i in range(rows.shape[1]):
        buf[:, :, p + i] += np.matmul(buf[:, :, i:p + i],
                                      reversed_coeffs)[:, :, 0]
    return buf[:, 0, p:], buf[:, 1:, p:]


def synthesis_filter(residual, coefficients, state):
    """All-pole synthesis s[n] = e[n] + sum_k a_k s[n-k], streaming across segments.

    The (frames, p) coefficients and (frames, hop) residual rows pair up as
    in inverse_filter; `state` holds the last p output samples (oldest
    first).  A segment whose output goes non-finite or beyond
    UNSTABLE_LIMIT in magnitude has blown up: its row is NaN and the next
    segment starts from a zero state.

    Block form: the responses of every filter over its hop come from
    _hop_responses, _SYNTHESIS_BLOCK rows at a time, and a pass over the
    rows adds the carried state's part, y = zero-state response + state @ Z.
    """
    coeffs, rows, state = _filter_rows(residual, coefficients, state)
    p, hop = coeffs.shape[1], rows.shape[1]
    out = np.empty(rows.shape)
    buf = np.empty((min(len(rows), _SYNTHESIS_BLOCK), p + 1, p + hop))
    # a blown-up filter may overflow its responses; the row is muted anyway
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(rows), _SYNTHESIS_BLOCK):
            block = slice(start, start + _SYNTHESIS_BLOCK)
            zero_state, carried = _hop_responses(coeffs[block], rows[block],
                                                 buf)
            for r, (y0, z) in enumerate(zip(zero_state, carried), start):
                out[r] = y0 + state @ z
                state = np.concatenate([state, out[r]])[hop:]
                peak = np.max(np.abs(out[r])) if hop else 0.0
                if not (np.isfinite(peak) and peak <= UNSTABLE_LIMIT):
                    out[r] = np.nan
                    state = np.zeros(p)
    return out, state


def stable_rows(coefficients) -> np.ndarray:
    """Per predictor row: True iff every pole of 1/A(z) lies strictly inside
    the unit circle.

    Step-down (backward Levinson) recursion: peel the reflection
    coefficients k_p, ..., k_1 off the predictor; the filter is stable iff
    every |k_i| < 1 (Markel & Gray, Linear Prediction of Speech, 1976,
    ch. 5).  O(p^2) per row with no iteration; a non-finite k_i makes its
    row unstable.  A 1-D input is one row.
    """
    a = np.array(coefficients, dtype=np.float64, ndmin=2)
    stable = np.ones(len(a), dtype=bool)
    # rows already found unstable may overflow or divide by zero below;
    # their verdict is settled, so the warnings carry nothing
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(a.shape[1], 0, -1):
            k = a[:, i - 1]
            stable &= np.abs(k) < 1.0
            head = a[:, :i - 1]
            a = (head + k[:, None] * head[:, ::-1]) / (1.0 - k * k)[:, None]
    return stable


def lpc_poles(lpc) -> np.ndarray:
    """Poles of 1/A(z): the roots of z^p - a_1 z^(p-1) - ... - a_p.

    `lpc` is one LpcFrame, giving its (p,) poles, or a track's (frames, p)
    coefficients, giving (frames, p) poles.  A row's poles are the
    eigenvalues of its companion matrix, first row a_1..a_p and ones on the
    subdiagonal (Edelman & Murakami, Math. Comp. 64, 1995), the matrix
    numpy.roots builds; they are sorted by real part, then imaginary part,
    and a complex pole's exact conjugate is in the same row.  A row with a
    non-finite coefficient gets NaN poles.  One np.linalg.eigvals call
    solves _POLE_BLOCK frames; LAPACK solves each matrix on its own, so a
    row's poles do not depend on the other rows.
    """
    single = isinstance(lpc, LpcFrame)
    coeffs = np.atleast_2d(np.asarray(lpc.coefficients if single else lpc,
                                      dtype=np.float64))
    if coeffs.ndim != 2:
        raise ValueError(f"expected a (frames, order) array, got shape {coeffs.shape}")
    n, p = coeffs.shape
    if p < 1:
        raise ValueError("need order >= 1 to compute poles")
    poles = np.empty((n, p), dtype=np.complex128)
    companion = np.zeros((min(n, _POLE_BLOCK), p, p))
    companion[:, 1:, :-1] = np.eye(p - 1)
    for start in range(0, n, _POLE_BLOCK):
        rows = coeffs[start:start + _POLE_BLOCK]
        finite = np.all(np.isfinite(rows), axis=1)
        block = companion[:len(rows)]
        block[:, 0] = np.where(finite[:, None], rows, 0.0)  # LAPACK rejects NaN
        roots = np.sort(np.linalg.eigvals(block), axis=1)
        roots[~finite] = np.nan
        poles[start:start + len(rows)] = roots
    return poles[0] if single else poles
