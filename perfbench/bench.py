"""Set-up, measured rounds, traced round and output checks of one run.

A run is a closed loop with one caller: it writes the corpus several times
(set-up), then runs whole rounds of the flow while the measured flow time
plus one more round stays within --seconds (always at least one round),
then checks every round's outputs.  With tracing on it adds one traced
round, gen-corpus included, whose artifacts must match the first round's
byte for byte.  An operation is one verb call or one output check.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
from pathlib import Path

import numpy as np
import scipy

import checks
import flow
import tracing
from workloads import LAYERS

SETUP_REPEATS = 5  # gen-corpus runs whose median goes into setup_s
END_TO_END = (
    ("setup_s", "s"), ("analyze_s", "s"), ("train_s", "s"),
    ("convert_s", "s"), ("evaluate_s", "s"), ("flow_s", "s"),
    ("peak_rss_mb", "MB"), ("mcd_decrease_pct", "%"),
)


class Ledger:
    """Operations attempted and the problems of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []  # (operation, problems)

    def verbs(self, count: int) -> None:
        self.attempted += count

    def check(self, operation: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failures.append((operation, problems))


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "machine": platform.machine()}


def setup(workload, seed: int, tmp: Path, ledger: Ledger):
    """Write the corpus SETUP_REPEATS times; returns (corpus dir, manifest,
    seconds per gen-corpus)."""
    seconds, dirs = [], []
    for k in range(SETUP_REPEATS):
        dirs.append(tmp / f"corpus{k}")
        manifest, took = flow.gen_corpus(workload, seed, dirs[-1])
        seconds.append(took)
    ledger.verbs(len(dirs))
    ledger.check("gen-corpus shape", checks.check_corpus(
        manifest, dirs[0], workload.pairs, workload.rate, workload.duration_s))
    first = flow.digests(dirs[0])
    ledger.check("gen-corpus repeatable",
                 [] if all(flow.digests(d) == first for d in dirs[1:])
                 else ["repeated gen-corpus runs differ"])
    return dirs[0], manifest, seconds


def measure(workload, corpus: Path, manifest: dict, tmp: Path,
            seconds: float, ledger: Ledger) -> list:
    """Whole rounds while the measured time plus one more round fits."""
    rounds, measured = [], 0.0
    while True:
        rnd = flow.run_round(workload, corpus, manifest,
                             tmp / f"round{len(rounds)}")
        ledger.verbs(rnd.verb_calls)
        rounds.append(rnd)
        measured += rnd.times["flow"]
        if measured + rnd.times["flow"] > seconds:
            return rounds


def check_round(workload, corpus: Path, manifest: dict, rnd: flow.Round,
                refs: checks.References, ledger: Ledger) -> None:
    pairs = manifest["pairs"]
    for entry in pairs:
        for key in ("source", "target"):
            wav = entry[key]
            ledger.check(f"analyze {wav}", checks.check_analyze(
                rnd.feature(wav), corpus / wav, refs))
    for label in flow.directions(manifest):
        ledger.check(f"train {label}", checks.check_train(
            f"{rnd.model(label)}.mse.csv", workload.epochs))
    unstable = 0
    for entry in pairs:
        src = entry["source"]
        counts = rnd.converts[src]
        bounds = (checks.unstable_bounds(rnd.model(entry["direction"]),
                                         rnd.feature(src))
                  if workload.raw_lpc else None)
        ledger.check(f"convert {src}", checks.check_convert(
            counts, corpus / src, rnd.converted(src), refs, bounds))
        unstable += counts["unstable"]
    if workload.raw_lpc:
        ledger.check("raw-LPC unstable frames", [] if unstable >= 1 else
                     ["raw-LPC conversion reports no unstable frame"])
    report = checks.read_report(rnd.report)
    for entry in pairs:
        name = Path(entry["source"]).stem
        row = report.get(name)
        ledger.check(f"evaluate {name}", ["row missing"] if row is None else
                     checks.check_report_row(
                         row, corpus / entry["source"], corpus / entry["target"],
                         rnd.converted(entry["source"]), refs))
    ledger.check("evaluate MEAN", checks.check_report_mean(report))


def traced_round(workload, seed: int, tmp: Path, corpus: Path,
                 first: flow.Round, untraced_flow_s: float, ledger: Ledger):
    """gen-corpus and one round under the tracer; returns (tracer, metrics)."""
    traced_corpus = tmp / "traced_corpus"
    with tracing.Tracer() as tracer:
        manifest, _ = flow.gen_corpus(workload, seed, traced_corpus)
        rnd = flow.run_round(workload, traced_corpus, manifest,
                             tmp / "traced_round")
    ledger.verbs(1 + rnd.verb_calls)
    same = (flow.digests(traced_corpus) == flow.digests(corpus)
            and flow.digests(rnd.root) == flow.digests(first.root))
    ledger.check("traced artifacts identical", [] if same else
                 ["traced round wrote different bytes than the untraced one"])
    calls = tracer.layer_calls()
    idle = [layer for layer in LAYERS if calls[layer] == 0]
    if idle:
        raise RuntimeError(f"workload {workload.name}: traced round recorded "
                           f"no call into layer(s) {', '.join(idle)}")
    return tracer, tracer.metrics(rnd.times["flow"] - untraced_flow_s)


def run(workload, seed: int, seconds: float, trace: bool, tmp: Path,
        imports_s: float) -> dict:
    """One benchmark run; returns the result object of the last output line."""
    ledger = Ledger()
    corpus, manifest, gen_s = setup(workload, seed, tmp, ledger)
    rounds = measure(workload, corpus, manifest, tmp, seconds, ledger)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for k, rnd in enumerate(rounds):
        print(f"round {k}: " + ", ".join(f"{name} {t:.3f} s"
                                         for name, t in rnd.times.items()))

    def median(stage):
        return statistics.median(r.times[stage] for r in rounds)

    refs = checks.References()
    first = flow.digests(rounds[0].root)
    for k, rnd in enumerate(rounds):
        check_round(workload, corpus, manifest, rnd, refs, ledger)
        if k:
            ledger.check(f"round {k} repeats round 0",
                         [] if flow.digests(rnd.root) == first
                         else ["rerun wrote different bytes"])

    if trace:
        tracer, values = traced_round(workload, seed, tmp, corpus, rounds[0],
                                      median("flow"), ledger)
        calls, self_s = tracer.totals()
        for name in sorted(self_s, key=self_s.get, reverse=True):
            print(f"span {name}: {calls[name]} calls, self {self_s[name]:.3f} s")
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        values = {
            "setup_s": imports_s + statistics.median(gen_s),
            **{f"{stage}_s": median(stage) for stage in flow.STAGES},
            "flow_s": median("flow"),
            "peak_rss_mb": peak_rss_mb,
            "mcd_decrease_pct": checks.read_report(rounds[0].report)["MEAN"][3],
        }
        units = dict(END_TO_END)
    for operation, problems in ledger.failures:
        print(f"FAILED {operation}: {'; '.join(problems)}", file=sys.stderr)
    return {"correct": not ledger.failures, "attempted": ledger.attempted,
            "failed": len(ledger.failures),
            "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                        for name in units}}
