"""Self-test of the benchmark: a tiny flow end to end, traced and untraced
artifacts byte for byte, and every output check against corrupted outputs.

    python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import numpy as np
import pytest

import bench
import checks
import flow
import tracing
from workloads import Workload

TINY = Workload("tiny", pairs=2, duration_s=0.3, rate=8000, epochs=3000,
                raw_lpc=False)
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """One untraced and one traced round of the tiny workload."""
    tmp = tmp_path_factory.mktemp("tiny")
    ledger = bench.Ledger()
    corpus, manifest, _ = bench.setup(TINY, 7, tmp, ledger)
    rounds = bench.measure(TINY, corpus, manifest, tmp, 0.0, ledger)
    refs = checks.References()
    bench.check_round(TINY, corpus, manifest, rounds[0], refs, ledger)
    tracer, values = bench.traced_round(TINY, 7, tmp, corpus, rounds[0],
                                        rounds[0].times["flow"], ledger)
    return {"tmp": tmp, "ledger": ledger, "corpus": corpus,
            "manifest": manifest, "round": rounds[0], "refs": refs,
            "tracer": tracer, "values": values}


def test_tiny_flow_passes_every_check(tiny):
    ledger = tiny["ledger"]
    assert ledger.failures == []
    # set-up: 5 gen-corpus, 2 checks; round: 9 verbs, 11 checks;
    # traced: 1 gen-corpus, 9 verbs, 1 check
    assert ledger.attempted == bench.SETUP_REPEATS + 2 + 9 + 11 + 1 + 9 + 1
    assert set(tiny["round"].times) == {*flow.STAGES, "flow"}


def test_traced_round_writes_the_same_bytes(tiny):
    tmp = tiny["tmp"]
    assert flow.digests(tmp / "traced_round") == flow.digests(tiny["round"].root)
    assert flow.digests(tmp / "traced_corpus") == flow.digests(tiny["corpus"])


def test_traced_round_reports_every_layer_metric(tiny):
    values = tiny["values"]
    assert list(values) == [name for name, _, _ in tracing.PER_LAYER]
    assert values["lsf.lpc_to_lsf.calls"] == values["lpc.analyze_frame.calls"]
    assert values["mlp.train.epochs"] <= 2 * TINY.epochs
    assert values["testkit.samples"] == 2 * TINY.pairs * int(
        TINY.duration_s * TINY.rate)
    calls = tiny["tracer"].layer_calls()
    assert all(calls[layer] > 0 for layer in bench.LAYERS)


def test_tracer_restores_every_binding():
    import vconv
    import vconv.cli
    before = (vconv.cli.lpc_to_lsf, vconv.lpc_to_lsf, vconv.cli.cmd_analyze)
    with tracing.Tracer():
        assert vconv.cli.lpc_to_lsf is not before[0]
        assert vconv.lpc_to_lsf is not before[1]
    assert (vconv.cli.lpc_to_lsf, vconv.lpc_to_lsf,
            vconv.cli.cmd_analyze) == before


def test_benchmark_json_names_every_metric():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracing.PER_LAYER)


def _rewrite_feature(src, dst, edit):
    lines = Path(src).read_text().splitlines()
    rows = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    cells = lines[rows[3]].split(",")
    edit(cells)
    lines[rows[3]] = ",".join(cells)
    Path(dst).write_text("\n".join(lines) + "\n")


def test_analyze_check_rejects_corrupted_features(tiny, tmp_path):
    rnd, refs = tiny["round"], tiny["refs"]
    wav = tiny["manifest"]["pairs"][0]["source"]
    good = rnd.feature(wav)
    assert checks.check_analyze(good, tiny["corpus"] / wav, refs) == []

    def swap(cells):
        cells[5], cells[6] = cells[6], cells[5]

    def nudge(cells):  # still ascending, but off the true root angle
        cells[5] = repr(float(cells[5]) + 5e-6)

    def gain(cells):
        cells[0] = repr(float(cells[0]) * 1.001)

    for edit in (swap, nudge, gain):
        bad = tmp_path / f"{edit.__name__}.csv"
        _rewrite_feature(good, bad, edit)
        assert checks.check_analyze(bad, tiny["corpus"] / wav, refs), edit


def test_train_check_rejects_bad_histories(tiny, tmp_path):
    label = next(iter(flow.directions(tiny["manifest"])))
    good = f"{tiny['round'].model(label)}.mse.csv"
    assert checks.check_train(good, TINY.epochs) == []
    lines = Path(good).read_text().splitlines()
    for name, body in (
            ("rising", [lines[0], "1,0.5", "2,0.7"]),
            ("nan", [lines[0], "1,0.5", "2,nan", "3,0.1"]),
            ("long", lines[:1] + [f"{i},{1.0 / i}"
                                  for i in range(1, TINY.epochs + 2)])):
        bad = tmp_path / f"{name}.csv"
        bad.write_text("\n".join(body) + "\n")
        assert checks.check_train(bad, TINY.epochs), name


def test_convert_check_rejects_wrong_counts(tiny):
    rnd, refs = tiny["round"], tiny["refs"]
    src = tiny["manifest"]["pairs"][0]["source"]
    counts = rnd.converts[src]
    args = (tiny["corpus"] / src, rnd.converted(src), refs)
    assert checks.check_convert(counts, *args) == []
    assert checks.check_convert({**counts, "unstable": 1}, *args)
    assert checks.check_convert({**counts, "frames": counts["frames"] - 1},
                                *args)
    # raw-LPC mode: the reported count must fall within the reference's
    assert checks.check_convert({**counts, "unstable": 4}, *args,
                                raw_bounds=(4, 4)) == []
    assert checks.check_convert({**counts, "unstable": 3}, *args,
                                raw_bounds=(4, 4))
    assert checks.check_convert({**counts, "unstable": 5}, *args,
                                raw_bounds=(4, 4))


def _constant_model(path, coefficients):
    """A 24-2-24 network whose output is `coefficients` for any input."""
    lines = ["VCMLP 1", "24 2 24"]
    lines += [" ".join(["0"] * 25)] * 2
    lines += [f"{c!r} 0 0" for c in map(float, coefficients)]
    Path(path).write_text("\n".join(lines) + "\n")


def test_unstable_reference_counts_mapped_poles(tiny, tmp_path):
    feature = tiny["round"].feature(tiny["manifest"]["pairs"][0]["source"])
    frames = len(checks.read_features(feature)[1])
    stable, unstable = tmp_path / "stable.mlp", tmp_path / "unstable.mlp"
    _constant_model(stable, np.r_[0.5, np.zeros(23)])  # pole at 0.5
    _constant_model(unstable, np.r_[1.5, np.zeros(23)])  # pole at 1.5
    assert checks.unstable_bounds(stable, feature) == (0, 0)
    assert checks.unstable_bounds(unstable, feature) == (frames, frames)


def test_evaluate_checks_reject_edited_report(tiny, tmp_path):
    rnd, refs, corpus = tiny["round"], tiny["refs"], tiny["corpus"]
    entry = tiny["manifest"]["pairs"][0]
    wavs = (corpus / entry["source"], corpus / entry["target"],
            rnd.converted(entry["source"]))
    report = checks.read_report(rnd.report)
    row = report[Path(entry["source"]).stem]
    assert checks.check_report_row(row, *wavs, refs) == []
    assert checks.check_report_mean(report) == []
    for k in range(4):
        edited = list(row)
        edited[k] += 2e-6
        assert checks.check_report_row(edited, *wavs, refs), k
    assert checks.check_report_mean({**report, "MEAN": [
        v + 1e-3 for v in report["MEAN"]]})
    worse = {name: vals[:3] + [-abs(vals[3])] for name, vals in report.items()}
    assert checks.check_report_mean(worse)
