"""Output checks for the benchmark, computed apart from vconv.

Every reference here is written from the method's definitions with numpy
and scipy alone and imports nothing from vconv: pre-emphasis, Gaussian
framing, an LPC fit by `scipy.linalg.solve_toeplitz`, line spectral
frequencies as `numpy.roots` angles of the sum and difference polynomials,
a forward pass read straight from the model file, and a DTW and MCD of its
own.  Each check returns a list of problems, empty when the output passes.
"""

from __future__ import annotations

import numpy as np
from scipy.io import wavfile
from scipy.linalg import solve_toeplitz

# the analysis settings of the flow, which uses the verbs' defaults
ORDER = 24
FRAME_MS = 25.0
HOP_MS = 5.0
ALPHA = 0.97
SIGMA = 0.4

LSF_TOL = 1e-6  # rad, between vconv's LSF and the numpy.roots angles
GAIN_TOL = 1e-6  # relative
UNIT_CIRCLE_TOL = 1e-9  # frames this close to |z| = 1 are not counted either way
# the report prints six decimals, so a value can be off by half a unit in
# the last place on top of the 1e-9 relative agreement of the two methods
REPORT_TOL = 5e-7
REL_TOL = 1e-9
_DB = 10.0 / np.log(10.0)
_SILENCE = 1e-12
_ANGLE_EDGE = 1e-7  # roots at z = +1 and z = -1 are the trivial ones


def read_wav(path):
    """(sample rate, float samples in [-1, 1)) of a 16-bit mono WAV."""
    rate, data = wavfile.read(path)
    if data.dtype != np.int16 or data.ndim != 1:
        raise ValueError(f"{path}: not 16-bit mono PCM")
    return rate, data.astype(np.float64) / 32768.0


def frame_geometry(rate: int):
    """(frame length, hop) in samples."""
    return int(FRAME_MS * rate / 1000.0), int(HOP_MS * rate / 1000.0)


def analysis_frames(samples: np.ndarray, rate: int) -> np.ndarray:
    """Pre-emphasized, Gaussian-windowed frames; a short tail is dropped."""
    pre = np.concatenate([samples[:1], samples[1:] - ALPHA * samples[:-1]])
    length, hop = frame_geometry(rate)
    count = (len(pre) - length) // hop + 1
    half = (length - 1) / 2.0
    window = np.exp(-0.5 * ((np.arange(length) - half) / (SIGMA * half)) ** 2)
    starts = np.arange(count) * hop
    return pre[starts[:, None] + np.arange(length)] * window


def fit_lpc(frame: np.ndarray):
    """(predictor a_1..a_p, gain) of one frame, or None when the fit has no
    stable predictor (the frames Levinson-Durbin flags degenerate)."""
    n = len(frame)
    r = np.array([frame[:n - k] @ frame[k:] for k in range(ORDER + 1)]) / n
    if r[0] <= _SILENCE:
        return np.zeros(ORDER), 0.0
    a = solve_toeplitz(r[:ORDER], r[1:])
    power = r[0] - a @ r[1:]
    if power <= 0.0 or np.max(np.abs(np.roots(np.r_[1.0, -a]))) >= 1.0:
        return None
    return a, float(np.sqrt(power))


def lpc_to_lsf(a: np.ndarray):
    """Ascending angles in (0, pi) of the roots of P(z) = A(z) + z^-(p+1)A(1/z)
    and Q(z) = A(z) - z^-(p+1)A(1/z), or None if they are not all there."""
    ext = np.r_[1.0, -a, 0.0]
    angles = []
    for poly in (ext + ext[::-1], ext - ext[::-1]):
        theta = np.angle(np.roots(poly))
        theta = theta[(theta > _ANGLE_EDGE) & (theta < np.pi - _ANGLE_EDGE)]
        if len(theta) != len(a) // 2:
            return None
        angles.append(theta)
    return np.sort(np.concatenate(angles))


def lsf_to_lpc(lsf: np.ndarray) -> np.ndarray:
    """Predictor whose P and Q have the given unit-circle roots: even
    positions of the ascending vector belong to P, odd ones to Q."""
    p_roots = np.r_[-1.0, np.exp(1j * lsf[0::2]), np.exp(-1j * lsf[0::2])]
    q_roots = np.r_[1.0, np.exp(1j * lsf[1::2]), np.exp(-1j * lsf[1::2])]
    a_full = 0.5 * (np.poly(p_roots).real + np.poly(q_roots).real)
    return -a_full[1:len(lsf) + 1]


def analyze_wav(path):
    """Reference analysis of a WAV: rate, sample count, LSF rows and gains.

    Rows of frames without a stable predictor or a full set of roots are
    NaN, and such frames are exempt from comparison.
    """
    rate, samples = read_wav(path)
    frames = analysis_frames(samples, rate)
    lsf = np.full((len(frames), ORDER), np.nan)
    gains = np.full(len(frames), np.nan)
    for i, frame in enumerate(frames):
        fit = fit_lpc(frame)
        if fit is None:
            continue
        angles = lpc_to_lsf(fit[0])
        if angles is not None:
            lsf[i], gains[i] = angles, fit[1]
    return {"rate": rate, "samples": len(samples), "lsf": lsf, "gains": gains}


class References:
    """Reference analyses, computed once per WAV path."""

    def __init__(self):
        self._tracks = {}

    def track(self, path):
        key = str(path)
        if key not in self._tracks:
            self._tracks[key] = analyze_wav(path)
        return self._tracks[key]


# ---------------------------------------------------------------------------
# readers for the program's text outputs

def read_features(path):
    """(header dict, gains, LSF rows) of a feature CSV."""
    meta, rows = {}, []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                meta[key.strip()] = value.strip()
            elif line:
                rows.append([float(tok) for tok in line.split(",")])
    table = np.asarray(rows, dtype=np.float64)
    return meta, table[:, 0], table[:, 1:]


def read_model(path):
    """[(weights, biases), ...] of a VCMLP text model."""
    with open(path) as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    if lines[0] != ["VCMLP", "1"]:
        raise ValueError(f"{path}: unexpected model header {lines[0]}")
    sizes = [int(tok) for tok in lines[1]]
    layers, pos = [], 2
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        block = np.array(lines[pos:pos + fan_out], dtype=np.float64)
        layers.append((block[:, 1:], block[:, 0]))
        pos += fan_out
    return layers


def forward(layers, x: np.ndarray) -> np.ndarray:
    """tanh hidden layers, linear output."""
    for k, (w, b) in enumerate(layers):
        x = x @ w.T + b
        if k < len(layers) - 1:
            x = np.tanh(x)
    return x


def read_report(path):
    """{row name: [mcd_src_tgt, mcd_conv_tgt, mcd_src_conv, percent]}."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    return {cells[0]: [float(v) for v in cells[1:]]
            for cells in (ln.split(",") for ln in lines[1:])}


# ---------------------------------------------------------------------------
# DTW and MCD

def dtw_path(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-cost monotone path with steps (1,1), (1,0), (0,1) and
    Euclidean local cost, filled by anti-diagonals; the backtrace prefers
    the diagonal, then advancing in `a`, then advancing in `b`."""
    n, m = len(a), len(b)
    local = np.empty((n, m))
    for i in range(n):
        local[i] = np.sqrt(np.sum((b - a[i]) ** 2, axis=1))
    acc = np.full((n + 1, m + 1), np.inf)
    acc[0, 0] = 0.0
    for d in range(n + m - 1):
        i = np.arange(max(0, d - m + 1), min(d, n - 1) + 1)
        j = d - i
        acc[i + 1, j + 1] = local[i, j] + np.minimum(
            np.minimum(acc[i, j], acc[i, j + 1]), acc[i + 1, j])
    cost = acc[1:, 1:]
    i, j = n - 1, m - 1
    path = [(i, j)]
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag, up, left = cost[i - 1, j - 1], cost[i - 1, j], cost[i, j - 1]
            best = min(diag, up, left)
            if diag == best:
                i, j = i - 1, j - 1
            elif up == best:
                i -= 1
            else:
                j -= 1
        path.append((i, j))
    return np.asarray(path[::-1])


def mcd(a: np.ndarray, b: np.ndarray) -> float:
    """Mean of (10 / ln 10) * sqrt(2 * sum of squared differences) in dB
    over the DTW path from `a` to `b`."""
    path = dtw_path(a, b)
    diff = a[path[:, 0]] - b[path[:, 1]]
    return float(np.mean(_DB * np.sqrt(2.0 * np.sum(diff ** 2, axis=1))))


def _close(value: float, expected: float, slack: float = REPORT_TOL) -> bool:
    return abs(value - expected) <= slack + REL_TOL * abs(expected)


# ---------------------------------------------------------------------------
# checks

def check_corpus(manifest: dict, corpus_dir, pairs: int, rate: int,
                 duration_s: float) -> list:
    """gen-corpus wrote the requested pairs at the requested rate and length."""
    problems = []
    if len(manifest["pairs"]) != pairs:
        problems.append(f"{len(manifest['pairs'])} pairs, expected {pairs}")
    expected = int(duration_s * rate)
    for entry in manifest["pairs"]:
        for key in ("source", "target"):
            got_rate, samples = read_wav(corpus_dir / entry[key])
            if got_rate != rate or len(samples) != expected:
                problems.append(f"{entry[key]}: {len(samples)} samples at "
                                f"{got_rate} Hz, expected {expected} at {rate}")
    return problems


def check_analyze(feature_path, wav_path, refs: References) -> list:
    """Rows strictly ascending in (0, pi); LSF within LSF_TOL of the
    reference and gains within GAIN_TOL, unless the file reports fallbacks."""
    meta, gains, lsf = read_features(feature_path)
    ref = refs.track(wav_path)
    problems = []
    ascending = (lsf[:, 0] > 0.0) & (lsf[:, -1] < np.pi) \
        & np.all(np.diff(lsf, axis=1) > 0.0, axis=1)
    if not np.all(ascending):
        problems.append(f"frame {int(np.argmin(ascending))}: LSF row is not "
                        "strictly ascending in (0, pi)")
    if len(lsf) != len(ref["lsf"]):
        return problems + [f"{len(lsf)} frames, reference has {len(ref['lsf'])}"]
    if int(meta.get("fallbacks", 0)) > 0:
        return problems
    usable = ~np.isnan(ref["gains"])
    lsf_err = np.abs(lsf[usable] - ref["lsf"][usable])
    if lsf_err.size and lsf_err.max() > LSF_TOL:
        problems.append(f"LSF differs from numpy.roots angles by "
                        f"{lsf_err.max():.3g} rad (tol {LSF_TOL})")
    gain_err = np.abs(gains[usable] - ref["gains"][usable])
    if np.any(gain_err > GAIN_TOL * np.maximum(ref["gains"][usable], _SILENCE)):
        problems.append(f"gain differs from the Toeplitz fit by "
                        f"{gain_err.max():.3g}")
    return problems


def check_train(mse_path, max_epochs: int) -> list:
    """Finite MSE history, at most max_epochs long, ending below its start."""
    with open(mse_path) as fh:
        rows = [ln.strip().split(",") for ln in fh.readlines()[1:] if ln.strip()]
    history = np.array([float(r[1]) for r in rows])
    if not 1 <= len(history) <= max_epochs:
        return [f"{len(history)} epochs of history, limit {max_epochs}"]
    if not np.all(np.isfinite(history)):
        return ["MSE history holds non-finite values"]
    if not history[-1] < history[0]:
        return [f"final MSE {history[-1]:.6g} is not below the first "
                f"{history[0]:.6g}"]
    return []


def unstable_bounds(model_path, feature_path):
    """(least, most) mapped raw-LPC frames with a pole on or outside the
    unit circle; frames within UNIT_CIRCLE_TOL of it may go either way."""
    _, _, lsf = read_features(feature_path)
    coeffs = np.stack([lsf_to_lpc(row) for row in lsf])
    mapped = forward(read_model(model_path), coeffs)
    radius = np.array([np.max(np.abs(np.roots(np.r_[1.0, -a])))
                       for a in mapped])
    near = np.abs(radius - 1.0) < UNIT_CIRCLE_TOL
    least = int(np.sum((radius >= 1.0) & ~near))
    return least, least + int(np.sum(near))


def check_convert(counts: dict, in_wav, out_wav, refs: References,
                  raw_bounds=None) -> list:
    """Frame count and output length follow the framing; LSF mode has no
    unstable frame, raw-LPC mode counts the reference's unstable frames."""
    ref = refs.track(in_wav)
    _, hop = frame_geometry(ref["rate"])
    rate, samples = read_wav(out_wav)
    problems = []
    if counts["frames"] != len(ref["lsf"]):
        problems.append(f"{counts['frames']} frames, reference has "
                        f"{len(ref['lsf'])}")
    if rate != ref["rate"] or len(samples) != counts["frames"] * hop:
        problems.append(f"output holds {len(samples)} samples at {rate} Hz, "
                        f"expected {counts['frames']} x {hop}")
    if raw_bounds is None:
        if counts["unstable"] != 0:
            problems.append(f"LSF mode reports {counts['unstable']} unstable")
    elif not raw_bounds[0] <= counts["unstable"] <= raw_bounds[1]:
        problems.append(f"{counts['unstable']} unstable reported, reference "
                        f"counts {raw_bounds[0]} to {raw_bounds[1]}")
    return problems


def check_report_row(row, src_wav, tgt_wav, conv_wav, refs: References) -> list:
    """One report row against a recomputation from the three WAVs."""
    tracks = [refs.track(p)["lsf"] / np.pi for p in (src_wav, tgt_wav, conv_wav)]
    if any(np.isnan(t).any() for t in tracks):
        return ["a track has frames the reference cannot analyze"]
    src, tgt, conv = tracks
    st, ct, sc = mcd(src, tgt), mcd(conv, tgt), mcd(src, conv)
    expected = [st, ct, sc, 100.0 * (st - ct) / st]
    names = ("mcd_src_tgt", "mcd_conv_tgt", "mcd_src_conv", "percent_decrease")
    return [f"{name} {got:.6f}, recomputed {want:.9f}"
            for name, got, want in zip(names, row, expected)
            if not _close(got, want)]


def check_report_mean(report: dict) -> list:
    """MEAN row equals the column means; every direction's mean decrease > 0."""
    rows = {name: vals for name, vals in report.items() if name != "MEAN"}
    if "MEAN" not in report or not rows:
        return ["report lacks pair rows or the MEAN row"]
    means = np.mean(np.array(list(rows.values())), axis=0)
    problems = [f"MEAN column {k} is {got:.6f}, rows average {want:.6f}"
                for k, (got, want) in enumerate(zip(report["MEAN"], means))
                if not _close(got, want, 2 * REPORT_TOL)]
    by_direction = {}
    for name, vals in rows.items():
        by_direction.setdefault(name.split("_")[1], []).append(vals[3])
    problems += [f"direction {d}: mean percent decrease {np.mean(v):.2f} <= 0"
                 for d, v in sorted(by_direction.items()) if np.mean(v) <= 0.0]
    return problems
