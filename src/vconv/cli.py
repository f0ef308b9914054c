"""Batch pipeline and command-line front end.

Verbs: analyze, train, convert, evaluate, poles, gen-corpus.  All outputs
(feature files, model files, reports, WAVs) are deterministic functions of
the inputs and flags, so reruns are byte-identical.

Feature files are CSV with a `# key=value` header block and one row per
frame: gain followed by the LSF radians.  Residual files use the same
shape: header, one initial-state row, then one row of residual samples
per hop segment.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .align import dtw_align, pair_frames
from .eval import ConversionReport, conversion_report
from .lpc import (analyze_track, inverse_filter, lpc_poles, stable_rows,
                  synthesis_filter)
from .lsf import _ascending_rows, lpc_to_lsf, lsf_to_lpc, rectify_lsf
from .mlp import MlpModel, forward, init_mlp, load_model, save_model, train
from .signal_io import (Waveform, deemphasize, frame_signal, hop_segments,
                        preemphasize, read_wav, write_wav)
from .testkit import build_corpus

FEATURE_VERSION = 1
RESIDUAL_VERSION = 1

REPORT_HEADER = "pair,mcd_src_tgt,mcd_conv_tgt,mcd_src_conv,percent_decrease"
POLES_HEADER = "frame,re,im,magnitude"


class FeatureFormatError(ValueError):
    """Feature or residual file is malformed."""


@dataclass(frozen=True)
class AnalysisSettings:
    """How an utterance is analyzed; the fields in feature-header order."""

    frame_ms: float = 25.0
    hop_ms: float = 5.0
    order: int = 24
    alpha: float = 0.97  # pre-emphasis coefficient
    sigma: float = 0.4  # Gaussian window width factor

    @classmethod
    def from_args(cls, args) -> AnalysisSettings:
        return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


@dataclass
class FeatureTrack:
    """Per-frame (gain, LSF radians) plus the analysis settings that made it."""

    lsf: np.ndarray  # (frames, order), each row strictly ascending in (0, pi)
    gains: np.ndarray  # (frames,)
    sample_rate: int
    settings: AnalysisSettings
    fallbacks: int = 0  # frames that reused the previous frame's LSF
    degenerate: int = 0  # frames whose Levinson-Durbin recursion stopped early

    def __len__(self):
        return len(self.gains)

    @property
    def order(self) -> int:
        return self.settings.order

    @property
    def normalized(self) -> np.ndarray:
        """LSF divided by pi: the network's input/output domain."""
        return self.lsf / np.pi


@dataclass
class ResidualTrack:
    """Prediction-error samples per hop segment, for streaming resynthesis."""

    segments: np.ndarray  # (frames, hop)
    initial_state: np.ndarray  # (order,) input history before segment 0
    sample_rate: int
    alpha: float

    def __len__(self):
        return len(self.segments)

    @property
    def hop(self) -> int:
        return self.segments.shape[1]


def uniform_lsf(order: int) -> np.ndarray:
    """LSF vector of the trivial (all-zero) predictor: k*pi/(p+1)."""
    return np.arange(1, order + 1) * np.pi / (order + 1)


def analyze_waveform(wave: Waveform, settings: AnalysisSettings = AnalysisSettings()):
    """Full analysis: pre-emphasis, framing, LPC, LSF, residual extraction.

    Residuals are produced with each frame's LSF-reconstructed filter (the
    exact coefficients a reader of the feature file will rebuild), so
    resynthesis from the two artifacts reproduces the pre-emphasized
    signal.  Frames whose LSF conversion fails reuse the previous frame's
    vector and are counted in `fallbacks`.
    """
    order = settings.order
    if order < 2 or order % 2 != 0:
        raise ValueError(f"order must be a positive even number, got {order}")
    pre = preemphasize(wave, settings.alpha)
    frames = frame_signal(pre, settings.frame_ms, settings.hop_ms, settings.sigma)
    segments = hop_segments(pre, frames.hop, len(frames))

    lpc = analyze_track(frames.frames, order)
    lsf_rows = lpc_to_lsf(lpc.coefficients)
    failed = np.flatnonzero(np.isnan(lsf_rows[:, 0]))
    for i in failed:  # ascending, so row i - 1 is already filled
        lsf_rows[i] = lsf_rows[i - 1] if i else uniform_lsf(order)

    initial_state = np.zeros(order)
    residuals, _ = inverse_filter(segments, lsf_to_lpc(lsf_rows), initial_state)

    feats = FeatureTrack(lsf=lsf_rows, gains=lpc.gains, sample_rate=wave.sample_rate,
                         settings=settings, fallbacks=len(failed),
                         degenerate=int(np.count_nonzero(lpc.degenerate)))
    resid = ResidualTrack(segments=residuals, initial_state=initial_state,
                          sample_rate=wave.sample_rate, alpha=settings.alpha)
    return feats, resid


def synthesize(coeffs: np.ndarray, resid: ResidualTrack):
    """Stream the residual through one predictor per segment, a row of the
    (frames, order) `coeffs`; returns (waveform, muted segment count).

    The output stays in the pre-emphasized domain (apply deemphasize for
    audio).  A segment whose synthesis blows up is muted and the filter
    state reset.
    """
    out, _ = synthesis_filter(resid.segments, coeffs, resid.initial_state)
    muted = np.isnan(out).any(axis=1)
    out[muted] = 0.0
    wave = Waveform(samples=out.ravel(), sample_rate=resid.sample_rate)
    return wave, int(np.count_nonzero(muted))


def map_features(model: MlpModel, feats: FeatureTrack, raw_lpc: bool = False):
    """Map every frame through the network; returns the (frames, order)
    predictor coefficients.

    Default mode maps pi-normalized LSF and rectifies the output, so every
    produced filter is stable by construction.  raw_lpc mode maps the
    predictor coefficients directly with no validity repair; instability
    is counted, not fixed.
    """
    sizes = model.layer_sizes
    if sizes[0] != feats.order or sizes[-1] != feats.order:
        raise ValueError(f"model maps {sizes[0]}->{sizes[-1]} dims, "
                         f"features have order {feats.order}")
    if raw_lpc:
        return forward(model, lsf_to_lpc(feats.lsf))
    return lsf_to_lpc(rectify_lsf(forward(model, feats.normalized) * np.pi))


# ---------------------------------------------------------------------------
# file formats

def _g(value: float) -> str:
    return format(value, ".17g")


def _write_tagged_csv(path, meta: dict, rows) -> None:
    """`# key=value` header lines, then one CSV line per row."""
    lines = [f"# {key}={_g(value)}" for key, value in meta.items()]
    lines.extend(",".join(_g(v) for v in row) for row in rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_features(feats: FeatureTrack, path) -> None:
    meta = {"version": FEATURE_VERSION, "sample_rate": feats.sample_rate,
            **asdict(feats.settings), "fallbacks": feats.fallbacks,
            "degenerate": feats.degenerate}
    _write_tagged_csv(path, meta, np.column_stack([feats.gains, feats.lsf]))


def _read_tagged_csv(path, what: str):
    meta = {}
    rows = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" not in body:
                    raise FeatureFormatError(
                        f"{path}:{lineno}: malformed {what} header {line!r}")
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
                continue
            try:
                rows.append(np.array([float(tok) for tok in line.split(",")]))
            except ValueError as exc:
                raise FeatureFormatError(
                    f"{path}:{lineno}: unreadable {what} row") from exc
    return meta, rows


def _meta_value(meta: dict, key: str, cast, path) -> float:
    if key not in meta:
        raise FeatureFormatError(f"{path}: missing header key {key!r}")
    try:
        return cast(meta[key])
    except ValueError as exc:
        raise FeatureFormatError(f"{path}: bad header value for {key!r}") from exc


def read_features(path) -> FeatureTrack:
    meta, rows = _read_tagged_csv(path, "feature")
    version = _meta_value(meta, "version", int, path)
    if version != FEATURE_VERSION:
        raise FeatureFormatError(f"{path}: unsupported feature version {version}")
    settings = AnalysisSettings(**{
        f.name: _meta_value(meta, f.name, type(f.default), path)
        for f in fields(AnalysisSettings)})
    if not rows:
        raise FeatureFormatError(f"{path}: no frames")
    if settings.order < 1:
        raise FeatureFormatError(f"{path}: order {settings.order} is not positive")
    if any(len(r) != settings.order + 1 for r in rows):
        raise FeatureFormatError(f"{path}: rows must hold gain plus "
                                 f"{settings.order} LSF values")
    table = np.stack(rows)
    lsf = table[:, 1:]
    bad_gain = np.flatnonzero(~np.isfinite(table[:, 0]))
    if len(bad_gain):
        raise FeatureFormatError(f"{path}: frame {bad_gain[0]} gain is not finite")
    bad_lsf = np.flatnonzero(~_ascending_rows(lsf))
    if len(bad_lsf):
        raise FeatureFormatError(f"{path}: frame {bad_lsf[0]} LSF row is not "
                                 "strictly ascending in (0, pi)")
    counts = {key: _meta_value(meta, key, int, path)  # optional, default 0
              for key in ("fallbacks", "degenerate") if key in meta}
    return FeatureTrack(lsf=lsf, gains=table[:, 0], settings=settings,
                        sample_rate=_meta_value(meta, "sample_rate", int, path),
                        **counts)


def write_residuals(resid: ResidualTrack, path) -> None:
    meta = {"version": RESIDUAL_VERSION, "sample_rate": resid.sample_rate,
            "hop": resid.hop, "order": len(resid.initial_state),
            "alpha": resid.alpha}
    _write_tagged_csv(path, meta, [resid.initial_state, *resid.segments])


def read_residuals(path) -> ResidualTrack:
    meta, rows = _read_tagged_csv(path, "residual")
    version = _meta_value(meta, "version", int, path)
    if version != RESIDUAL_VERSION:
        raise FeatureFormatError(f"{path}: unsupported residual version {version}")
    hop = _meta_value(meta, "hop", int, path)
    order = _meta_value(meta, "order", int, path)
    if not rows:
        raise FeatureFormatError(f"{path}: missing initial-state row")
    if len(rows[0]) != order:
        raise FeatureFormatError(f"{path}: initial state has {len(rows[0])} "
                                 f"values, order says {order}")
    if any(len(r) != hop for r in rows[1:]):
        raise FeatureFormatError(f"{path}: segment rows must hold {hop} samples")
    for i, row in enumerate(rows):
        if not np.isfinite(row).all():
            what = f"segment {i - 1}" if i else "initial state"
            raise FeatureFormatError(f"{path}: {what} holds a non-finite value")
    segments = np.stack(rows[1:]) if len(rows) > 1 else np.empty((0, hop))
    return ResidualTrack(
        segments=segments, initial_state=rows[0],
        sample_rate=_meta_value(meta, "sample_rate", int, path),
        alpha=_meta_value(meta, "alpha", float, path),
    )


def write_report(entries, path) -> None:
    """entries: list of (pair name, ConversionReport); appends a MEAN row
    (column-wise mean, percent included)."""
    lines = [REPORT_HEADER]
    table = []
    for name, rep in entries:
        vals = [rep.mcd_source_target, rep.mcd_converted_target,
                rep.mcd_source_converted, rep.percent_decrease]
        table.append(vals)
        lines.append(name + "," + ",".join(f"{v:.6f}" for v in vals))
    if table:
        means = np.mean(np.asarray(table), axis=0)
        lines.append("MEAN," + ",".join(f"{v:.6f}" for v in means))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_poles(coeffs, path) -> None:
    """CSV of the pole coordinates of every row of a (frames, order)
    predictor track, each frame's poles in lpc_poles order."""
    lines = [POLES_HEADER]
    for i, poles in enumerate(lpc_poles(coeffs)):
        for z in poles:
            lines.append(f"{i},{_g(z.real)},{_g(z.imag)},{_g(abs(z))}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands

def _is_wav(path) -> bool:
    """True iff the file starts with the RIFF magic, whatever its name."""
    with open(path, "rb") as fh:
        return fh.read(4) == b"RIFF"


def _load_tracks(args, *paths):
    """Yield the feature tracks of one call, a list per position of the
    `paths` lists.  A WAV file is analyzed with the current flags; anything
    else is read as a feature file.  All must share their analysis
    settings."""
    settings = AnalysisSettings.from_args(args)
    first = None
    for group in zip(*paths):
        tracks = []
        for path in group:
            if _is_wav(path):
                feats, _ = analyze_waveform(read_wav(path), settings)
            else:
                feats = read_features(path)
            if feats.order != settings.order:
                raise ValueError(f"{path}: feature order {feats.order} does "
                                 f"not match --order {settings.order}")
            made = {"sample_rate": feats.sample_rate, **asdict(feats.settings)}
            first = first or (path, made)
            for key, value in made.items():
                if value != first[1][key]:
                    raise ValueError(f"{path}: {key} {value} does not match "
                                     f"{key} {first[1][key]} of {first[0]}")
            tracks.append(feats)
        yield tracks


def cmd_analyze(args) -> int:
    feats, resid = analyze_waveform(read_wav(args.input),
                                    AnalysisSettings.from_args(args))
    write_features(feats, args.features)
    if args.residuals:
        write_residuals(resid, args.residuals)
    print(f"{args.input}: {len(feats)} frames, order {feats.order}, "
          f"{feats.fallbacks} fallbacks")
    return 0


def cmd_train(args) -> int:
    if len(args.source) != len(args.target):
        raise ValueError(f"{len(args.source)} source vs {len(args.target)} "
                         "target utterances")
    sizes = args.arch
    if sizes[0] != args.order or sizes[-1] != args.order:
        raise ValueError(f"architecture {'-'.join(map(str, sizes))} does not "
                         f"map order-{args.order} features")
    pairs = []
    for fs, ft in _load_tracks(args, args.source, args.target):
        alignment = dtw_align(fs.normalized, ft.normalized)
        if args.raw_lpc:
            pairs.append(pair_frames(alignment, lsf_to_lpc(fs.lsf),
                                     lsf_to_lpc(ft.lsf)))
        else:
            pairs.append(pair_frames(alignment, fs.normalized, ft.normalized))
    x, t = (np.concatenate(side) for side in zip(*pairs))

    model = init_mlp(sizes, args.seed)
    trained, report = train(model, x, t, args.epochs)
    save_model(trained, args.model_out)
    mse_out = args.mse_out or str(args.model_out) + ".mse.csv"
    with open(mse_out, "w") as fh:
        fh.write("epoch,mse\n")
        for i, mse in enumerate(report.mse_history, 1):
            fh.write(f"{i},{_g(mse)}\n")
    print(f"{args.model_out}: {len(x)} pairs, {report.epochs_run} epochs, "
          f"final mse {report.final_mse:.6g}"
          + (" (converged)" if report.converged else ""))
    return 0


def cmd_convert(args) -> int:
    model = load_model(args.model)
    settings = AnalysisSettings.from_args(args)
    feats, resid = analyze_waveform(read_wav(args.input), settings)
    coeffs = map_features(model, feats, args.raw_lpc)
    synth, muted = synthesize(coeffs, resid)
    write_wav(deemphasize(synth, settings.alpha), args.output)
    if args.poles_out:
        write_poles(coeffs, args.poles_out)
    print(f"{args.output}: {len(coeffs)} frames, "
          f"{np.count_nonzero(~stable_rows(coeffs))} unstable, {muted} muted, "
          f"{feats.fallbacks} fallbacks")
    return 0


def cmd_evaluate(args) -> int:
    if not len(args.source) == len(args.target) == len(args.converted):
        raise ValueError("need equal counts of --source/--target/--converted")
    entries = []
    for src, (fs, ft, fc) in zip(args.source, _load_tracks(
            args, args.source, args.target, args.converted)):
        rep = conversion_report(fs.normalized, ft.normalized, fc.normalized)
        entries.append((Path(src).stem, rep))
    write_report(entries, args.out)
    mean_pct = float(np.mean([rep.percent_decrease for _, rep in entries]))
    print(f"{args.out}: {len(entries)} pairs, mean percent decrease "
          f"{mean_pct:.2f}")
    return 0


def cmd_poles(args) -> int:
    if _is_wav(args.input):
        settings = AnalysisSettings.from_args(args)
        pre = preemphasize(read_wav(args.input), settings.alpha)
        frames = frame_signal(pre, settings.frame_ms, settings.hop_ms,
                              settings.sigma)
        coeffs = analyze_track(frames.frames, settings.order).coefficients
    else:
        coeffs = lsf_to_lpc(read_features(args.input).lsf)
    write_poles(coeffs, args.out)
    print(f"{args.out}: {len(coeffs)} frames")
    return 0


def cmd_gen_corpus(args) -> int:
    manifest = build_corpus(args.out_dir, pairs=args.pairs,
                            duration_s=args.duration, sample_rate=args.rate,
                            seed=args.seed, snr_db=args.snr)
    print(f"{args.out_dir}: {len(manifest['pairs'])} pairs"
          + (f" at {args.snr} dB SNR" if args.snr is not None else ""))
    return 0


def _parse_arch(text: str):
    try:
        sizes = [int(tok) for tok in text.split("-")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad architecture {text!r}; "
                                         "expected e.g. 24-50-24")
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError(f"bad architecture {text!r}; "
                                         "need at least two positive sizes")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    defaults = AnalysisSettings()
    analysis = argparse.ArgumentParser(add_help=False)
    analysis.add_argument("--order", type=int, default=defaults.order,
                          help="LPC order (even; default 24)")
    analysis.add_argument("--frame-ms", type=float, default=defaults.frame_ms,
                          help="frame length in ms (default 25)")
    analysis.add_argument("--hop-ms", type=float, default=defaults.hop_ms,
                          help="frame step in ms (default 5)")
    analysis.add_argument("--alpha", type=float, default=defaults.alpha,
                          help="pre-emphasis coefficient (default 0.97)")
    analysis.add_argument("--sigma", type=float, default=defaults.sigma,
                          help="Gaussian window width factor (default 0.4)")

    parser = argparse.ArgumentParser(
        prog="vconv",
        description="LPC/LSF voice conversion: analysis, neural mapping, "
                    "resynthesis, evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[analysis],
                       help="extract LSF features and residuals from a WAV")
    p.add_argument("input")
    p.add_argument("--features", required=True, help="output feature CSV")
    p.add_argument("--residuals", help="output residual CSV")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("train", parents=[analysis],
                       help="train a mapping network on utterance pairs")
    p.add_argument("--source", nargs="+", required=True,
                   help="source WAVs or feature files")
    p.add_argument("--target", nargs="+", required=True,
                   help="target WAVs or feature files, same count")
    p.add_argument("--model-out", required=True)
    p.add_argument("--mse-out", help="epoch/MSE CSV (default MODEL.mse.csv)")
    p.add_argument("--arch", type=_parse_arch, default=[24, 50, 24],
                   help="layer sizes, e.g. 24-50-24")
    p.add_argument("--epochs", type=int, default=5000,
                   help="cap on L-BFGS iterations")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--raw-lpc", action="store_true",
                   help="map predictor coefficients instead of LSF")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("convert", parents=[analysis],
                       help="convert a WAV through a trained model")
    p.add_argument("model")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--raw-lpc", action="store_true",
                   help="map predictor coefficients instead of LSF")
    p.add_argument("--poles-out", help="CSV of mapped-filter poles")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("evaluate", parents=[analysis],
                       help="report spectral distortion for converted audio")
    p.add_argument("--source", nargs="+", required=True)
    p.add_argument("--target", nargs="+", required=True)
    p.add_argument("--converted", nargs="+", required=True)
    p.add_argument("--out", required=True, help="report CSV path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("poles", parents=[analysis],
                       help="dump per-frame filter poles to CSV")
    p.add_argument("input", help="WAV or feature file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_poles)

    p = sub.add_parser("gen-corpus",
                       help="write a synthetic speaker-pair corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--pairs", type=int, default=20)
    p.add_argument("--duration", type=float, default=0.62,
                   help="utterance length in seconds")
    p.add_argument("--rate", type=int, default=11025)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--snr", type=float, default=None,
                   help="add white noise at this SNR in dB")
    p.set_defaults(func=cmd_gen_corpus)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
