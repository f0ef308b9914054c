"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line with the measured quantities (the
line bypasses output capture so it is visible in any pytest run).  The
corpus-level criteria share one session-scoped pipeline run: generate the
synthetic corpus, analyze, train per direction, convert, evaluate; once on
clean audio, once at 20 dB SNR, plus raw-coefficient mapping and a full
repeat of both flows for the determinism check.
"""

import io
import json
import re
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.spatial.distance import cdist

from vconv.align import dtw_align
from vconv.cli import analyze_waveform, main, read_features, read_residuals, \
    synthesize, write_features, write_residuals
from vconv.eval import mcd_frame
from vconv.lpc import LpcFrame, levinson_durbin, lpc_poles
from vconv.lsf import lpc_to_lsf, lsf_to_lpc
from vconv.mlp import compute_gradients, forward, init_mlp
from vconv.signal_io import preemphasize
from vconv.testkit import DIRECTIONS, synthesize_utterance, utterance_pair_specs

TRAIN_EPOCHS = "10000"  # shared by LSF and raw-coefficient training


def _report(num, ok, detail, capsys):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _random_lsf(rng, order, jitter=0.45):
    """Ascending angles in (0, pi): a uniform lattice with bounded jitter.

    Gaps vary between 0.1x and 1.9x the lattice spacing but can never
    collapse further. Tight clusters near 0 or pi are excluded on purpose:
    their monic-coefficient form cannot carry the angles at full double
    precision, so no converter could round-trip them to 1e-6.
    """
    spacing = np.pi / (order + 1)
    return spacing * np.arange(1, order + 1) + rng.uniform(
        -jitter * spacing, jitter * spacing, size=order)


def _crowded_lsf(rng, order, margin=5e-3):
    """Ascending angles in (0, pi) with every gap (and both ends) >= margin.

    Heavy-tailed gaps pile up near the minimum; the stress regime for
    reconstruction stability.
    """
    raw = rng.exponential(size=order + 1)
    gaps = margin + raw * (np.pi - (order + 1) * margin) / raw.sum()
    return np.cumsum(gaps)[:-1]


def _run(args):
    """Invoke the CLI in process; returns its stdout."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(args)
    assert rc == 0, f"command failed: {args}\n{buf.getvalue()}"
    return buf.getvalue()


def _flow(root, snr=None):
    """gen-corpus -> analyze -> train per direction -> convert -> evaluate.

    Returns per-pair percent decreases keyed by direction, the per-convert
    unstable-frame counts, and the paths of every produced artifact.
    """
    root = Path(root)
    corpus = root / "corpus"
    gen = ["gen-corpus", "--out-dir", str(corpus), "--pairs", "20",
           "--seed", "42"]
    if snr is not None:
        gen += ["--snr", str(snr)]
    _run(gen)
    manifest = json.loads((corpus / "manifest.json").read_text())

    feat_dir = root / "features"
    feat_dir.mkdir()
    feat = {}
    for entry in manifest["pairs"]:
        for key in ("source", "target"):
            wav = corpus / entry[key]
            out = feat_dir / (wav.stem + ".csv")
            if out not in feat.values():
                _run(["analyze", str(wav), "--features", str(out)])
            feat[entry[key]] = out

    model_dir = root / "models"
    model_dir.mkdir()
    for label, _, _ in DIRECTIONS:
        entries = [e for e in manifest["pairs"] if e["direction"] == label]
        args = ["train",
                "--source", *[str(feat[e["source"]]) for e in entries],
                "--target", *[str(feat[e["target"]]) for e in entries],
                "--model-out", str(model_dir / f"{label}.mlp"),
                "--epochs", TRAIN_EPOCHS]
        _run(args)

    conv_dir = root / "converted"
    conv_dir.mkdir()
    unstable = []
    converted = {}
    for entry in manifest["pairs"]:
        out = conv_dir / entry["source"].replace("_src.wav", "_conv.wav")
        text = _run(["convert", str(model_dir / f"{entry['direction']}.mlp"),
                     str(corpus / entry["source"]), str(out)])
        unstable.append(int(re.search(r"(\d+) unstable", text).group(1)))
        converted[entry["source"]] = out

    report = root / "report.csv"
    _run(["evaluate",
          "--source", *[str(corpus / e["source"]) for e in manifest["pairs"]],
          "--target", *[str(corpus / e["target"]) for e in manifest["pairs"]],
          "--converted", *[str(converted[e["source"]])
                           for e in manifest["pairs"]],
          "--out", str(report)])

    percents = {}
    for line in report.read_text().splitlines()[1:]:
        cells = line.split(",")
        if cells[0] == "MEAN":
            continue
        direction = cells[0].split("_")[1]
        percents.setdefault(direction, []).append(float(cells[4]))
    artifacts = sorted(model_dir.glob("*")) + sorted(feat_dir.glob("*")) \
        + [report]
    return {"percents": percents, "unstable": unstable,
            "artifacts": artifacts, "root": root, "manifest": manifest,
            "features": feat, "models": model_dir}


def _raw_flow(clean):
    """Train and convert with raw predictor coefficients on the clean corpus."""
    root = clean["root"]
    corpus = root / "corpus"
    manifest = clean["manifest"]
    model_dir = root / "models_raw"
    model_dir.mkdir()
    for label, _, _ in DIRECTIONS:
        entries = [e for e in manifest["pairs"] if e["direction"] == label]
        _run(["train", "--raw-lpc",
              "--source", *[str(clean["features"][e["source"]])
                            for e in entries],
              "--target", *[str(clean["features"][e["target"]])
                            for e in entries],
              "--model-out", str(model_dir / f"{label}.mlp"),
              "--epochs", TRAIN_EPOCHS])
    conv_dir = root / "converted_raw"
    conv_dir.mkdir()
    unstable = []
    for entry in manifest["pairs"]:
        out = conv_dir / entry["source"].replace("_src.wav", "_conv.wav")
        text = _run(["convert", "--raw-lpc",
                     str(model_dir / f"{entry['direction']}.mlp"),
                     str(corpus / entry["source"]), str(out)])
        unstable.append(int(re.search(r"(\d+) unstable", text).group(1)))
    return unstable


@pytest.fixture(scope="session")
def corpus_flow(tmp_path_factory):
    t0 = time.monotonic()
    clean = _flow(tmp_path_factory.mktemp("flow_clean"))
    noisy = _flow(tmp_path_factory.mktemp("flow_noisy"), snr=20.0)
    elapsed = time.monotonic() - t0
    raw_unstable = _raw_flow(clean)
    return {"clean": clean, "noisy": noisy, "elapsed": elapsed,
            "raw_unstable": raw_unstable}


def test_criterion_01_levinson_matches_dense_solver(capsys):
    rng = np.random.default_rng(42)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        order = int(rng.integers(1, 25))
        x = rng.standard_normal(int(rng.integers(order + 1, 400)))
        n = len(x)
        r = np.correlate(x, x, mode="full")[n - 1:n + order] / n
        got = levinson_durbin(r, order).coefficients
        expected = np.linalg.solve(toeplitz(r[:order]), r[1:order + 1])
        worst = max(worst, float(np.max(np.abs(got - expected))))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(1, ok, f"1000 random systems, orders 1-24: max coefficient "
            f"deviation {worst:.3g} (tol 1e-9), {elapsed:.1f}s", capsys)


def test_criterion_02_lsf_round_trip(capsys):
    rng = np.random.default_rng(42)
    t0 = time.monotonic()
    worst = 0.0
    for order in (2, 8, 16, 24):
        for _ in range(1000):
            lsf = _random_lsf(rng, order)
            back = lpc_to_lsf(lsf_to_lpc(lsf))
            worst = max(worst, float(np.max(np.abs(back - lsf))))
    trivial_worst = 0.0
    for order in (2, 8, 16, 24):
        lsf = lpc_to_lsf(LpcFrame(coefficients=np.zeros(order), gain=1.0))
        expected = np.arange(1, order + 1) * np.pi / (order + 1)
        trivial_worst = max(trivial_worst,
                            float(np.max(np.abs(lsf - expected))))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and trivial_worst <= 1e-9 and elapsed < 30.0
    _report(2, ok, f"4000 round trips, orders {{2,8,16,24}}: max angle error "
            f"{worst:.3g} (tol 1e-6); trivial-predictor error "
            f"{trivial_worst:.3g} (tol 1e-9); {elapsed:.1f}s", capsys)


def test_criterion_03_reconstruction_stability(capsys):
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        lsf = _crowded_lsf(rng, 24)
        poles = lpc_poles(lsf_to_lpc(lsf))
        worst = max(worst, float(np.max(np.abs(poles))))
    ok = worst < 1.0
    _report(3, ok, f"1000 random valid order-24 vectors: max reconstructed "
            f"pole magnitude {worst:.6f} (< 1 required)", capsys)


def test_criterion_04_instability_contrast(corpus_flow, capsys):
    raw_total = sum(corpus_flow["raw_unstable"])
    lsf_total = sum(corpus_flow["clean"]["unstable"])
    ok = raw_total >= 1 and lsf_total == 0
    _report(4, ok, f"mapped frames on the clean corpus: raw-coefficient mode "
            f"{raw_total} unstable (>= 1 required), LSF mode {lsf_total} "
            f"(exactly 0 required)", capsys)


def test_criterion_05_dtw_matches_enumeration(capsys):
    rng = np.random.default_rng(42)

    def brute(local):
        n, m = local.shape
        best = [np.inf]

        def walk(i, j, acc):
            acc = acc + local[i, j]
            if i == n - 1 and j == m - 1:
                if acc < best[0]:
                    best[0] = acc
                return
            if i + 1 < n and j + 1 < m:
                walk(i + 1, j + 1, acc)
            if i + 1 < n:
                walk(i + 1, j, acc)
            if j + 1 < m:
                walk(i, j + 1, acc)

        walk(0, 0, 0.0)
        return best[0]

    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        a = rng.standard_normal((n, int(rng.integers(1, 4))))
        b = rng.standard_normal((m, a.shape[1]))
        if dtw_align(a, b).total_cost != brute(cdist(a, b)):
            mismatches += 1
    ok = mismatches == 0
    _report(5, ok, f"200 instances up to 8x8: {mismatches} cost mismatches "
            f"against exhaustive path enumeration (exact match required)",
            capsys)


def test_criterion_06_gradient_check(capsys):
    rng = np.random.default_rng(42)
    h = 1e-6
    worst = 0.0
    archs = ([24, 30, 24], [24, 50, 24], [24, 25, 25, 24],
             [24, 25, 50, 25, 24])
    for arch in archs:
        model = init_mlp(arch, seed=7)
        x = 0.5 * rng.standard_normal((20, arch[0]))
        t = 0.5 * rng.standard_normal((20, arch[-1]))
        grads = [compute_gradients(model, x[s], t[s])[:2] for s in range(20)]

        def losses():
            y = forward(model, x)
            return np.sum((y - t) ** 2, axis=1)

        for l in range(len(model.weights)):
            for idx in np.ndindex(model.weights[l].shape):
                model.weights[l][idx] += h
                up = losses()
                model.weights[l][idx] -= 2 * h
                down = losses()
                model.weights[l][idx] += h
                numeric = (up - down) / (2 * h)
                for s in range(20):
                    a = grads[s][0][l][idx]
                    ref = max(abs(a), abs(numeric[s]), 1e-3)
                    worst = max(worst, abs(a - numeric[s]) / ref)
            for u in range(len(model.biases[l])):
                model.biases[l][u] += h
                up = losses()
                model.biases[l][u] -= 2 * h
                down = losses()
                model.biases[l][u] += h
                numeric = (up - down) / (2 * h)
                for s in range(20):
                    a = grads[s][1][l][u]
                    ref = max(abs(a), abs(numeric[s]), 1e-3)
                    worst = max(worst, abs(a - numeric[s]) / ref)
    ok = worst <= 1e-4
    _report(6, ok, f"4 architectures x 20 samples, central differences at "
            f"step 1e-6: max relative gradient error {worst:.3g} "
            f"(tol 1e-4)", capsys)


def test_criterion_07_distortion_metric(capsys):
    unit = mcd_frame(np.zeros(24), np.concatenate([[1.0], np.zeros(23)]))
    zero = mcd_frame(np.full(24, 0.3), np.full(24, 0.3))
    rng = np.random.default_rng(42)
    asym = 0.0
    for _ in range(100):
        a = rng.uniform(0, 1, 24)
        b = rng.uniform(0, 1, 24)
        asym = max(asym, abs(mcd_frame(a, b) - mcd_frame(b, a)))
    ok = abs(unit - 6.141851) <= 1e-5 and zero == 0.0 and asym == 0.0
    _report(7, ok, f"unit difference {unit:.6f} dB (6.141851 +- 1e-5); "
            f"identical vectors {zero}; max asymmetry over 100 pairs {asym}",
            capsys)


def test_criterion_08_resynthesis_identity(tmp_path, capsys):
    worst = 0.0
    muted = 0
    for k in range(5):
        specs = utterance_pair_specs("M1", "F1", 0.62, 11025,
                                     pair_seed=50000 + k)
        for spec in specs:
            wave = synthesize_utterance(spec, 0.62, 11025)
            feats, resid = analyze_waveform(wave)
            fpath = tmp_path / f"{spec.seed}.feat.csv"
            rpath = tmp_path / f"{spec.seed}.resid.csv"
            write_features(feats, fpath)
            write_residuals(resid, rpath)
            out, mutes = synthesize(lsf_to_lpc(read_features(fpath).lsf),
                                    read_residuals(rpath))
            muted += mutes
            pre = preemphasize(wave)
            covered = len(feats) * resid.hop
            worst = max(worst, float(np.max(np.abs(
                out.samples - pre.samples[:covered]))))
    ok = worst <= 1e-6 and muted == 0
    _report(8, ok, f"10 synthetic utterances through feature/residual files: "
            f"max resynthesis deviation {worst:.3g} (tol 1e-6), "
            f"{muted} muted segments", capsys)


def test_criterion_09_conversion_quality(corpus_flow, capsys):
    clean = corpus_flow["clean"]["percents"]
    noisy = corpus_flow["noisy"]["percents"]
    clean_mean = float(np.mean([p for v in clean.values() for p in v]))
    noisy_mean = float(np.mean([p for v in noisy.values() for p in v]))
    clean_dirs = {d: float(np.mean(v)) for d, v in sorted(clean.items())}
    noisy_dirs = {d: float(np.mean(v)) for d, v in sorted(noisy.items())}
    elapsed = corpus_flow["elapsed"]
    ok = (clean_mean >= 50.0 and noisy_mean >= 20.0
          and all(m > 0.0 for m in clean_dirs.values())
          and all(m > 0.0 for m in noisy_dirs.values())
          and elapsed < 600.0)
    fmt = lambda d: ", ".join(f"{k} {v:.1f}" for k, v in d.items())
    _report(9, ok, f"mean distortion decrease: clean {clean_mean:.1f}% "
            f"(>= 50 required; {fmt(clean_dirs)}), 20 dB SNR "
            f"{noisy_mean:.1f}% (>= 20 required; {fmt(noisy_dirs)}); "
            f"{elapsed:.0f}s (< 600 required)", capsys)


def test_criterion_10_run_reproducibility(corpus_flow, tmp_path_factory,
                                          capsys):
    rerun_clean = _flow(tmp_path_factory.mktemp("rerun_clean"))
    rerun_noisy = _flow(tmp_path_factory.mktemp("rerun_noisy"), snr=20.0)
    differing = []
    for first, second in ((corpus_flow["clean"], rerun_clean),
                          (corpus_flow["noisy"], rerun_noisy)):
        a, b = first["artifacts"], second["artifacts"]
        assert [p.name for p in a] == [p.name for p in b]
        for pa, pb in zip(a, b):
            if pa.read_bytes() != pb.read_bytes():
                differing.append(pa.name)
    n = len(corpus_flow["clean"]["artifacts"]) \
        + len(corpus_flow["noisy"]["artifacts"])
    ok = not differing
    _report(10, ok, f"{n} model/feature/report files from a full repeat of "
            f"both flows: {len(differing)} byte-level differences "
            f"{differing if differing else ''}", capsys)
