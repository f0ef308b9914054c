"""Pipeline functions, feature/residual/report files and the CLI verbs."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vconv.cli
from vconv.align import dtw_align
from vconv.cli import (
    AnalysisSettings,
    FeatureFormatError,
    analyze_waveform,
    build_parser,
    main,
    map_features,
    read_features,
    read_residuals,
    synthesize,
    uniform_lsf,
    write_features,
    write_residuals,
)
from vconv.lpc import stable_rows
from vconv.lsf import lsf_to_lpc, validate_lsf
from vconv.mlp import MlpModel, init_mlp, save_model
from vconv.signal_io import Waveform, preemphasize, read_wav
from vconv.testkit import synthesize_utterance, utterance_pair_specs


@pytest.fixture(scope="module")
def utterance():
    src, _ = utterance_pair_specs("M1", "M2", 0.3, 11025, pair_seed=42000)
    return synthesize_utterance(src, 0.3, 11025)


def _identity_model(order=24):
    """Single linear layer wired to the identity map."""
    return MlpModel(weights=[np.eye(order)], biases=[np.zeros(order)])


def _resynthesize(feats, resid):
    """The stored filters driven by the stored residual."""
    return synthesize(lsf_to_lpc(feats.lsf), resid)[0]


def test_cli_imports_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone
    src = str(Path(vconv.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, vconv, vconv.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_uniform_lsf():
    np.testing.assert_allclose(uniform_lsf(24),
                               np.arange(1, 25) * np.pi / 25)


def test_analyze_rejects_odd_order(utterance):
    with pytest.raises(ValueError):
        analyze_waveform(utterance, AnalysisSettings(order=23))
    with pytest.raises(ValueError):
        analyze_waveform(utterance, AnalysisSettings(order=0))


def test_analyze_geometry(utterance):
    feats, resid = analyze_waveform(utterance)
    assert len(feats) == len(resid)
    assert feats.order == 24
    assert feats.lsf.shape == (len(feats), 24)
    assert resid.segments.shape == (len(feats), 55)
    assert feats.normalized.max() < 1.0
    np.testing.assert_allclose(feats.normalized, feats.lsf / np.pi)


def test_analyze_resynthesize_identity(utterance):
    """The residuals are extracted with the stored filters, so resynthesis
    reproduces the pre-emphasized signal over the covered span."""
    feats, resid = analyze_waveform(utterance)
    out = _resynthesize(feats, resid)
    pre = preemphasize(utterance, feats.settings.alpha)
    covered = len(feats) * resid.hop
    assert np.max(np.abs(out.samples - pre.samples[:covered])) <= 1e-6


def test_feature_file_round_trip(tmp_path, utterance):
    feats, resid = analyze_waveform(utterance)
    fpath = tmp_path / "u.feat.csv"
    rpath = tmp_path / "u.resid.csv"
    write_features(feats, fpath)
    write_residuals(resid, rpath)

    feats2 = read_features(fpath)
    resid2 = read_residuals(rpath)
    np.testing.assert_array_equal(feats2.lsf, feats.lsf)
    np.testing.assert_array_equal(feats2.gains, feats.gains)
    np.testing.assert_array_equal(resid2.segments, resid.segments)
    assert feats2.sample_rate == feats.sample_rate
    assert feats2.settings == feats.settings
    assert feats2.fallbacks == feats.fallbacks

    # end to end through the text files: still bit-faithful resynthesis
    out = _resynthesize(feats2, resid2)
    pre = preemphasize(utterance, feats.settings.alpha)
    covered = len(feats2) * resid2.hop
    assert np.max(np.abs(out.samples - pre.samples[:covered])) <= 1e-6


def _edge_input(kind, rate, seconds=0.3):
    rng = np.random.default_rng(rate)
    t = np.arange(int(seconds * rate)) / rate
    samples = {
        "silence": np.zeros_like(t),
        "tone": 0.5 * np.sin(2 * np.pi * 440.0 * t),
        "clipped": np.clip(3.0 * np.sign(np.sin(2 * np.pi * 150.0 * t)), -0.9, 0.9),
        "noise": 0.3 * rng.standard_normal(len(t)),
    }[kind]
    return Waveform(samples=samples, sample_rate=rate)


@pytest.mark.parametrize("kind, rate", [
    ("silence", 11025), ("tone", 11025), ("clipped", 11025), ("noise", 11025),
    ("noise", 8000), ("noise", 48000)])
def test_analyze_edge_inputs(tmp_path, kind, rate):
    wave = _edge_input(kind, rate)
    feats, resid = analyze_waveform(wave)
    frame, hop = int(25.0 * rate / 1000), int(5.0 * rate / 1000)
    assert len(feats) == len(resid) == 1 + (len(wave) - frame) // hop
    assert np.isfinite(feats.gains).all() and np.isfinite(resid.segments).all()
    assert all(validate_lsf(row) for row in feats.lsf)
    assert feats.fallbacks == feats.degenerate == 0

    path = tmp_path / "edge.csv"
    write_features(feats, path)
    back = read_features(path)
    np.testing.assert_array_equal(back.lsf, feats.lsf)
    np.testing.assert_array_equal(back.gains, feats.gains)
    assert back.settings == feats.settings == AnalysisSettings()
    assert (back.sample_rate, back.fallbacks, back.degenerate) == (rate, 0, 0)


@pytest.mark.parametrize("argv", [
    ["analyze", "in.wav", "--features", "f.csv"],
    ["train", "--source", "s", "--target", "t", "--model-out", "m"],
    ["convert", "m", "in.wav", "out.wav"],
    ["evaluate", "--source", "s", "--target", "t", "--converted", "c", "--out", "r"],
    ["poles", "in.wav", "--out", "p.csv"]])
def test_parser_analysis_defaults_are_the_settings_defaults(argv):
    args = build_parser().parse_args(argv)
    assert AnalysisSettings.from_args(args) == AnalysisSettings()


def test_feature_file_layout(tmp_path, utterance):
    feats, _ = analyze_waveform(utterance)
    path = tmp_path / "u.feat.csv"
    write_features(feats, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# version=1"
    header = [ln for ln in lines if ln.startswith("#")]
    keys = [ln[2:].split("=")[0] for ln in header]
    for needed in ("version", "sample_rate", "frame_ms", "hop_ms", "order",
                   "alpha", "sigma"):
        assert needed in keys
    data = [ln for ln in lines if not ln.startswith("#")]
    assert len(data) == len(feats)
    assert all(len(ln.split(",")) == 25 for ln in data)


def test_read_features_rejects_bad_version(tmp_path, utterance):
    feats, _ = analyze_waveform(utterance)
    path = tmp_path / "u.feat.csv"
    write_features(feats, path)
    path.write_text(path.read_text().replace("# version=1", "# version=9", 1))
    with pytest.raises(FeatureFormatError):
        read_features(path)


def test_read_features_rejects_missing_key(tmp_path, utterance):
    feats, _ = analyze_waveform(utterance)
    path = tmp_path / "u.feat.csv"
    write_features(feats, path)
    lines = [ln for ln in path.read_text().splitlines()
             if not ln.startswith("# order=")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FeatureFormatError):
        read_features(path)


def test_read_features_rejects_short_row(tmp_path, utterance):
    feats, _ = analyze_waveform(utterance)
    path = tmp_path / "u.feat.csv"
    write_features(feats, path)
    lines = path.read_text().splitlines()
    lines[-1] = ",".join(lines[-1].split(",")[:-1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FeatureFormatError):
        read_features(path)


def test_read_features_rejects_invalid_lsf_row(tmp_path, utterance):
    feats, _ = analyze_waveform(utterance)
    path = tmp_path / "u.feat.csv"
    write_features(feats, path)
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[1], cells[2] = cells[2], cells[1]  # break the ascending order
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FeatureFormatError, match=f"frame {len(feats.lsf) - 1} "):
        read_features(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_read_features_rejects_non_finite_gain(tmp_path, utterance, value):
    feats, _ = analyze_waveform(utterance)
    path = tmp_path / "u.feat.csv"
    write_features(feats, path)
    lines = path.read_text().splitlines()
    lines[-1] = ",".join([value] + lines[-1].split(",")[1:])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FeatureFormatError):
        read_features(path)


def test_read_features_rejects_bad_fallbacks_header(tmp_path, utterance):
    feats, _ = analyze_waveform(utterance)
    path = tmp_path / "u.feat.csv"
    write_features(feats, path)
    path.write_text(path.read_text().replace("# fallbacks=0", "# fallbacks=x", 1))
    with pytest.raises(FeatureFormatError):
        read_features(path)


def test_read_features_rejects_zero_order(tmp_path, utterance):
    feats, _ = analyze_waveform(utterance)
    path = tmp_path / "u.feat.csv"
    write_features(feats, path)
    lines = [ln if ln.startswith("#") else ln.split(",")[0]  # gain only
             for ln in path.read_text().splitlines()]
    path.write_text("\n".join(lines).replace("# order=24", "# order=0") + "\n")
    with pytest.raises(FeatureFormatError, match="order 0"):
        read_features(path)


@pytest.mark.parametrize("row", [0, 1, -1])
def test_read_residuals_rejects_non_finite_values(tmp_path, utterance, row):
    _, resid = analyze_waveform(utterance)
    path = tmp_path / "u.resid.csv"
    write_residuals(resid, path)
    lines = path.read_text().splitlines()
    header = sum(ln.startswith("#") for ln in lines)
    rows = lines[header:]  # the initial state, then one row per segment
    cells = rows[row].split(",")
    cells[1] = "nan" if row else "inf"
    rows[row] = ",".join(cells)
    path.write_text("\n".join(lines[:header] + rows) + "\n")
    where = f"segment {row % len(rows) - 1}" if row else "initial state"
    with pytest.raises(FeatureFormatError, match=where):
        read_residuals(path)


def test_feature_file_counts_degenerate_frames(monkeypatch, tmp_path, utterance):
    real = vconv.cli.analyze_track

    def analyze_with_degenerate(frames, order):
        lpc = real(frames, order)
        lpc.degenerate[[2, 7]] = True
        return lpc

    clean, _ = analyze_waveform(utterance)
    assert clean.degenerate == 0
    monkeypatch.setattr(vconv.cli, "analyze_track", analyze_with_degenerate)
    feats, _ = analyze_waveform(utterance)
    assert feats.degenerate == 2
    path = tmp_path / "u.feat.csv"
    write_features(feats, path)
    text = path.read_text()
    assert "# degenerate=2\n" in text
    assert read_features(path).degenerate == 2
    # files written before the header existed read as 0
    path.write_text(text.replace("# degenerate=2\n", "", 1))
    assert read_features(path).degenerate == 0


def test_read_features_rejects_bad_degenerate_header(tmp_path, utterance):
    feats, _ = analyze_waveform(utterance)
    path = tmp_path / "u.feat.csv"
    write_features(feats, path)
    path.write_text(path.read_text().replace("# degenerate=0", "# degenerate=1.5", 1))
    with pytest.raises(FeatureFormatError):
        read_features(path)


@pytest.mark.parametrize("bad", [0, 5])
def test_analyze_falls_back_on_failed_frame(monkeypatch, utterance, bad):
    """A frame without an LSF vector reuses the previous frame's vector (the
    uniform vector for frame 0) and is counted; other frames are untouched."""
    clean, clean_resid = analyze_waveform(utterance)
    real = vconv.cli.analyze_track

    def analyze_with_one_unstable(frames, order):
        lpc = real(frames, order)
        lpc.coefficients[bad] = 0.0
        lpc.coefficients[bad, 1] = 1.1  # poles at +-sqrt(1.1), outside the unit circle
        lpc.gains[bad] = 0.5
        return lpc

    monkeypatch.setattr(vconv.cli, "analyze_track", analyze_with_one_unstable)
    feats, resid = analyze_waveform(utterance)
    assert feats.fallbacks == 1
    expected = clean.lsf[bad - 1] if bad else uniform_lsf(24)
    np.testing.assert_array_equal(feats.lsf[bad], expected)
    assert feats.gains[bad] == 0.5
    keep = np.arange(len(feats)) != bad
    np.testing.assert_array_equal(feats.lsf[keep], clean.lsf[keep])
    np.testing.assert_array_equal(resid.segments[:bad], clean_resid.segments[:bad])


def test_map_features_identity_model(utterance):
    feats, _ = analyze_waveform(utterance)
    coeffs = map_features(_identity_model(), feats)
    assert len(coeffs) == len(feats)
    assert stable_rows(coeffs).all()
    assert feats.fallbacks == 0
    # identity mapping reproduces the stored filters exactly when no
    # frequency pair needs rectification
    for i in (0, len(coeffs) // 2, len(coeffs) - 1):
        expected = lsf_to_lpc(feats.lsf[i], feats.gains[i])
        np.testing.assert_allclose(coeffs[i], expected.coefficients,
                                   atol=1e-9)


def test_map_features_dimension_mismatch(utterance):
    feats, _ = analyze_waveform(utterance)
    with pytest.raises(ValueError):
        map_features(init_mlp([12, 8, 12], seed=0), feats)


def test_map_features_rectifies_lsf_output(utterance):
    """A network emitting out-of-order frequencies still yields stable
    filters in LSF mode: rectification sorts and separates them."""
    feats, _ = analyze_waveform(utterance)
    junk = MlpModel(weights=[np.zeros((24, 24))],
                    biases=[np.linspace(0.9, 0.1, 24)])  # descending output
    coeffs = map_features(junk, feats)
    assert stable_rows(coeffs).all()
    assert len(coeffs) == len(feats)


def test_synthesize_mutes_overflow():
    from vconv.cli import ResidualTrack
    resid = ResidualTrack(segments=np.ones((3, 100)),
                          initial_state=np.zeros(1), sample_rate=8000,
                          alpha=0.97)
    coeffs = np.array([[0.5], [2.0], [0.5]])  # the middle pole is at z = 2
    wave, overflow = synthesize(coeffs, resid)
    assert overflow == 1
    assert not np.any(wave.samples[100:200])  # the bad segment is muted
    assert np.all(np.isfinite(wave.samples))
    assert len(wave) == 300


def test_cli_analyze_writes_files(tmp_path, utterance, capsys):
    from vconv.signal_io import write_wav
    wav = tmp_path / "u.wav"
    write_wav(utterance, wav)
    feat = tmp_path / "u.feat.csv"
    resid = tmp_path / "u.resid.csv"
    rc = main(["analyze", str(wav), "--features", str(feat),
               "--residuals", str(resid)])
    assert rc == 0
    assert feat.exists() and resid.exists()
    out = capsys.readouterr().out
    assert "frames" in out

    # the quantized WAV analyzes to the same frame count as the original
    feats = read_features(feat)
    assert len(feats) == len(analyze_waveform(utterance)[0])


def test_cli_convert_with_identity_model(tmp_path, utterance):
    from vconv.signal_io import write_wav
    from vconv.signal_io import deemphasize
    wav = tmp_path / "u.wav"
    write_wav(utterance, wav)
    model_path = tmp_path / "id.mlp"
    save_model(_identity_model(), model_path)
    out_path = tmp_path / "c.wav"
    rc = main(["convert", str(model_path), str(wav), str(out_path),
               "--poles-out", str(tmp_path / "p.csv")])
    assert rc == 0

    # identity mapping plus exact residuals: output approximates the input
    # round trip to within one quantization step
    feats, resid = analyze_waveform(read_wav(wav))
    baseline = deemphasize(_resynthesize(feats, resid), feats.settings.alpha)
    converted = read_wav(out_path)
    assert len(converted) == len(feats) * resid.hop
    assert np.max(np.abs(converted.samples - baseline.samples)) <= 1.5 / 32768

    poles_lines = (tmp_path / "p.csv").read_text().splitlines()
    assert poles_lines[0] == "frame,re,im,magnitude"
    assert len(poles_lines) == 1 + len(feats) * 24
    mags = [float(ln.split(",")[3]) for ln in poles_lines[1:]]
    assert max(mags) < 1.0


def test_cli_convert_is_deterministic(tmp_path, utterance):
    from vconv.signal_io import write_wav
    wav = tmp_path / "u.wav"
    write_wav(utterance, wav)
    model_path = tmp_path / "id.mlp"
    save_model(_identity_model(), model_path)
    out1 = tmp_path / "c1.wav"
    out2 = tmp_path / "c2.wav"
    assert main(["convert", str(model_path), str(wav), str(out1)]) == 0
    assert main(["convert", str(model_path), str(wav), str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_train_and_evaluate(tmp_path, capsys):
    from vconv.signal_io import write_wav
    src_spec, tgt_spec = utterance_pair_specs("M1", "M2", 0.3, 11025,
                                              pair_seed=43000)
    src = synthesize_utterance(src_spec, 0.3, 11025)
    tgt = synthesize_utterance(tgt_spec, 0.3, 11025)
    src_wav = tmp_path / "s.wav"
    tgt_wav = tmp_path / "t.wav"
    write_wav(src, src_wav)
    write_wav(tgt, tgt_wav)

    model_path = tmp_path / "net.mlp"
    rc = main(["train", "--source", str(src_wav), "--target", str(tgt_wav),
               "--model-out", str(model_path), "--arch", "24-10-24",
               "--epochs", "60"])
    assert rc == 0
    assert model_path.exists()
    mse_path = tmp_path / "net.mlp.mse.csv"
    assert mse_path.exists()
    mse_lines = mse_path.read_text().splitlines()
    assert mse_lines[0] == "epoch,mse"
    assert 2 <= len(mse_lines) <= 61
    mses = [float(ln.split(",")[1]) for ln in mse_lines[1:]]
    assert mses[-1] < mses[0]

    conv_wav = tmp_path / "c.wav"
    rc = main(["convert", str(model_path), str(src_wav), str(conv_wav)])
    assert rc == 0

    report = tmp_path / "report.csv"
    rc = main(["evaluate", "--source", str(src_wav), "--target", str(tgt_wav),
               "--converted", str(conv_wav), "--out", str(report)])
    assert rc == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "pair,mcd_src_tgt,mcd_conv_tgt,mcd_src_conv,percent_decrease"
    assert len(lines) == 3  # header, one pair, MEAN
    assert lines[1].startswith("s,")
    assert lines[2].startswith("MEAN,")
    pair_cells = lines[1].split(",")
    mean_cells = lines[2].split(",")
    # with a single pair the MEAN row repeats the pair row
    assert pair_cells[1:] == mean_cells[1:]
    capsys.readouterr()


@pytest.mark.parametrize("raw_lpc", [False, True])
def test_cli_train_counts_the_path_cells_of_every_pair(tmp_path, capsys,
                                                       raw_lpc):
    # two pairs of unequal lengths: the training set is both DTW paths
    from vconv.signal_io import write_wav
    sources, targets, cells = [], [], 0
    for k, seconds in enumerate((0.3, 0.2)):
        specs = utterance_pair_specs("F1", "M1", seconds, 11025,
                                     pair_seed=44000 + k)
        src, tgt = (synthesize_utterance(spec, seconds, 11025) for spec in specs)
        sources.append(str(tmp_path / f"s{k}.wav"))
        targets.append(str(tmp_path / f"t{k}.wav"))
        write_wav(src, sources[-1])
        write_wav(tgt, targets[-1])
        fs, ft = analyze_waveform(src)[0], analyze_waveform(tgt)[0]
        cells += len(dtw_align(fs.normalized, ft.normalized).path)
    rc = main(["train", "--source", *sources, "--target", *targets,
               "--model-out", str(tmp_path / "net.mlp"), "--arch", "24-4-24",
               "--epochs", "2"] + ["--raw-lpc"] * raw_lpc)
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith(f"{tmp_path / 'net.mlp'}: {cells} pairs, ")


def test_cli_f2f_model_converts_toward_the_target(tmp_path, capsys):
    # the F2F pairs of this 10-pair corpus once stopped training at a turning
    # point of the loss (epoch 113) and scored a -18.2 % mean decrease
    import json

    corpus = tmp_path / "corpus"
    assert main(["gen-corpus", "--out-dir", str(corpus), "--pairs", "10",
                 "--duration", "0.62", "--rate", "11025", "--seed", "105"]) == 0
    entries = [e for e in json.loads((corpus / "manifest.json").read_text())
               ["pairs"] if e["direction"] == "F2F"]
    assert len(entries) >= 2
    feats = {}
    for entry in entries:
        for key in ("source", "target"):
            feats[entry[key]] = tmp_path / (entry[key] + ".csv")
            assert main(["analyze", str(corpus / entry[key]),
                         "--features", str(feats[entry[key]])]) == 0
    model = tmp_path / "F2F.mlp"
    assert main(["train", "--source", *[str(feats[e["source"]]) for e in entries],
                 "--target", *[str(feats[e["target"]]) for e in entries],
                 "--model-out", str(model), "--epochs", "3000"]) == 0
    converted = []
    for entry in entries:
        converted.append(tmp_path / entry["source"].replace("_src", "_conv"))
        assert main(["convert", str(model), str(corpus / entry["source"]),
                     str(converted[-1])]) == 0
    report = tmp_path / "report.csv"
    assert main(["evaluate",
                 "--source", *[str(corpus / e["source"]) for e in entries],
                 "--target", *[str(corpus / e["target"]) for e in entries],
                 "--converted", *map(str, converted), "--out", str(report)]) == 0
    rows = [line.split(",") for line in report.read_text().splitlines()[1:]]
    decreases = [float(cells[4]) for cells in rows if cells[0] != "MEAN"]
    assert len(decreases) == len(entries)
    assert np.mean(decreases) > 0.0
    capsys.readouterr()


def test_cli_evaluate_perfect_conversion_scores_100(tmp_path, capsys):
    from vconv.signal_io import write_wav
    src_spec, tgt_spec = utterance_pair_specs("M1", "F1", 0.3, 11025,
                                              pair_seed=44000)
    src_wav = tmp_path / "s.wav"
    tgt_wav = tmp_path / "t.wav"
    write_wav(synthesize_utterance(src_spec, 0.3, 11025), src_wav)
    write_wav(synthesize_utterance(tgt_spec, 0.3, 11025), tgt_wav)
    report = tmp_path / "r.csv"
    rc = main(["evaluate", "--source", str(src_wav), "--target", str(tgt_wav),
               "--converted", str(tgt_wav), "--out", str(report)])
    assert rc == 0
    row = report.read_text().splitlines()[1].split(",")
    assert float(row[2]) == 0.0  # mcd(converted, target)
    assert float(row[4]) == pytest.approx(100.0)
    capsys.readouterr()


def test_cli_gen_corpus(tmp_path, capsys):
    out = tmp_path / "corpus"
    rc = main(["gen-corpus", "--out-dir", str(out), "--pairs", "2",
               "--duration", "0.1", "--seed", "5"])
    assert rc == 0
    assert (out / "manifest.json").exists()
    assert (out / "pair000_M2M_src.wav").exists()
    assert (out / "pair001_M2F_tgt.wav").exists()
    capsys.readouterr()


def test_cli_errors_return_one(tmp_path, utterance, capsys):
    from vconv.signal_io import write_wav
    wav = tmp_path / "u.wav"
    write_wav(utterance, wav)

    # missing input file
    rc = main(["analyze", str(tmp_path / "nope.wav"),
               "--features", str(tmp_path / "f.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err

    # source/target count mismatch
    rc = main(["train", "--source", str(wav), "--target", str(wav), str(wav),
               "--model-out", str(tmp_path / "m.mlp")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err

    # arch does not match the feature order
    rc = main(["train", "--source", str(wav), "--target", str(wav),
               "--model-out", str(tmp_path / "m.mlp"), "--arch", "12-8-12"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err

    # model trained for another order
    model_path = tmp_path / "id12.mlp"
    save_model(_identity_model(order=12), model_path)
    rc = main(["convert", str(model_path), str(wav),
               str(tmp_path / "c.wav")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err

    # evaluating a conversion against a zero baseline
    rc = main(["evaluate", "--source", str(wav), "--target", str(wav),
               "--converted", str(wav), "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_poles_subcommand(tmp_path, utterance, capsys):
    from vconv.signal_io import write_wav
    wav = tmp_path / "u.wav"
    write_wav(utterance, wav)
    out = tmp_path / "poles.csv"
    rc = main(["poles", str(wav), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "frame,re,im,magnitude"
    assert len(lines) > 1
    # analysis filters of clean synthetic speech are all stable
    mags = [float(ln.split(",")[3]) for ln in lines[1:]]
    assert max(mags) < 1.0

    # feature-file input goes through the stored LSF instead
    feat = tmp_path / "u.feat.csv"
    assert main(["analyze", str(wav), "--features", str(feat)]) == 0
    out2 = tmp_path / "poles2.csv"
    assert main(["poles", str(feat), "--out", str(out2)]) == 0
    assert out2.read_text().splitlines()[0] == "frame,re,im,magnitude"
    capsys.readouterr()


def test_cli_convert_mutes_every_blown_up_segment(tmp_path, utterance,
                                                  capsys):
    """A model whose every mapped predictor has a pole at z = 3: each
    segment blows up and is muted, so the converted WAV is silence.  (At
    z = 2 one segment of this utterance peaks at 2.3e11, under
    UNSTABLE_LIMIT, and is kept.)"""
    from vconv.signal_io import write_wav
    wav = tmp_path / "u.wav"
    write_wav(utterance, wav)
    bias = np.zeros(24)
    bias[0] = 3.0
    model_path = tmp_path / "unstable.mlp"
    save_model(MlpModel(weights=[np.zeros((24, 24))], biases=[bias]),
               model_path)
    out_path = tmp_path / "c.wav"
    capsys.readouterr()
    rc = main(["convert", str(model_path), str(wav), str(out_path),
               "--raw-lpc"])
    assert rc == 0
    n = len(analyze_waveform(read_wav(wav))[0])
    assert capsys.readouterr().out == (
        f"{out_path}: {n} frames, {n} unstable, {n} muted, 0 fallbacks\n")
    converted = read_wav(out_path)
    assert len(converted) == n * 55
    assert not np.any(converted.samples)


@pytest.mark.parametrize("weight, bias0", [(0.0, 3.0), (1.1, 0.0)],
                         ids=["pole_at_3", "scaled_1.1"])
def test_cli_poles_out_counts_the_unstable_frames(tmp_path, utterance, capsys,
                                                   weight, bias0):
    """The frames of --poles-out with a pole on or outside the unit circle
    are the frames that the convert line counts unstable: all of them for
    a_1 = 3, some of them for predictors scaled by 1.1."""
    from vconv.signal_io import write_wav
    wav = tmp_path / "u.wav"
    write_wav(utterance, wav)
    bias = np.zeros(24)
    bias[0] = bias0
    model_path = tmp_path / "raw.mlp"
    save_model(MlpModel(weights=[weight * np.eye(24)], biases=[bias]),
               model_path)
    poles_path = tmp_path / "p.csv"
    capsys.readouterr()
    assert main(["convert", str(model_path), str(wav), str(tmp_path / "c.wav"),
                 "--raw-lpc", "--poles-out", str(poles_path)]) == 0
    fields = capsys.readouterr().out.split(": ")[1].split(", ")
    frames, unstable = (int(f.split()[0]) for f in fields[:2])
    rows = np.loadtxt(poles_path, delimiter=",", skiprows=1)
    assert len(rows) == frames * 24
    outside = np.unique(rows[rows[:, 3] >= 1.0, 0])
    assert len(outside) == unstable
    assert 0 < unstable <= frames
    assert (unstable == frames) == (weight == 0.0)


def test_cli_rejects_mismatched_analysis_settings(tmp_path, capsys):
    from vconv.signal_io import write_wav
    src_spec, _ = utterance_pair_specs("M1", "M2", 0.3, 11025,
                                       pair_seed=45000)
    _, tgt_spec = utterance_pair_specs("M1", "M2", 0.3, 22050,
                                       pair_seed=45000)
    src_wav = tmp_path / "s.wav"
    tgt_wav = tmp_path / "t.wav"
    write_wav(synthesize_utterance(src_spec, 0.3, 11025), src_wav)
    write_wav(synthesize_utterance(tgt_spec, 0.3, 22050), tgt_wav)
    report = tmp_path / "r.csv"
    rc = main(["evaluate", "--source", str(src_wav), "--target", str(tgt_wav),
               "--converted", str(src_wav), "--out", str(report)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "sample_rate 22050 does not match sample_rate 11025" in err
    assert not report.exists()

    model_path = tmp_path / "m.mlp"
    rc = main(["train", "--source", str(src_wav), "--target", str(tgt_wav),
               "--model-out", str(model_path), "--epochs", "5"])
    assert rc == 1
    assert "sample_rate 22050 does not match" in capsys.readouterr().err
    assert not model_path.exists()

    # feature files made with another hop
    feat5 = tmp_path / "s5.csv"
    feat10 = tmp_path / "s10.csv"
    assert main(["analyze", str(src_wav), "--features", str(feat5)]) == 0
    assert main(["analyze", str(src_wav), "--features", str(feat10),
                 "--hop-ms", "10"]) == 0
    capsys.readouterr()
    rc = main(["evaluate", "--source", str(feat5), "--target", str(feat10),
               "--converted", str(feat5), "--out", str(report)])
    assert rc == 1
    assert "hop_ms 10.0 does not match hop_ms 5.0" in capsys.readouterr().err


def test_cli_tells_wav_from_features_by_content(tmp_path, utterance, capsys):
    from vconv.signal_io import write_wav
    wav = tmp_path / "src.audio"
    feat = tmp_path / "f.wav"
    write_wav(utterance, wav)
    assert main(["analyze", str(wav), "--features", str(feat)]) == 0
    frames = len(read_features(feat))
    for path in (wav, feat):
        out = tmp_path / (path.name + ".poles.csv")
        assert main(["poles", str(path), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + frames * 24
    rc = main(["train", "--source", str(wav), "--target", str(feat),
               "--model-out", str(tmp_path / "m.mlp"), "--arch", "24-4-24",
               "--epochs", "5"])
    assert rc == 0
    capsys.readouterr()


def test_readme_quickstart_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quickstart", 1)[1].split("```")[1]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("vconv ")]
    assert len(commands) >= 5
    for argv in commands:
        build_parser().parse_args(argv[1:])
