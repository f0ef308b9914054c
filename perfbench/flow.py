"""One round of the vconv flow, driven in-process through `vconv.cli.main`.

The verbs run one after another from a single caller, as the acceptance
flow runs them: analyze every WAV, train one model per direction, convert
every source WAV, then one evaluate over all pairs from the WAVs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from vconv.cli import main as vconv_main  # noqa: E402

STAGES = ("analyze", "train", "convert", "evaluate")
CONVERT_LINE = re.compile(
    r": (\d+) frames, (\d+) unstable, (\d+) muted, (\d+) fallbacks$")


class VerbFailed(RuntimeError):
    """A vconv verb returned a non-zero exit code."""


def call(argv) -> tuple:
    """Run one verb; returns (its stdout, seconds it took)."""
    argv = [str(a) for a in argv]
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = vconv_main(argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise VerbFailed(f"vconv {' '.join(argv)} exited with {code}")
    return out.getvalue(), elapsed


def gen_corpus(workload, seed: int, out_dir: Path) -> tuple:
    """Write the workload's corpus; returns (manifest, seconds)."""
    argv = ["gen-corpus", "--out-dir", out_dir, "--pairs", workload.pairs,
            "--duration", workload.duration_s, "--rate", workload.rate,
            "--seed", seed]
    _, seconds = call(argv)
    return json.loads((out_dir / "manifest.json").read_text()), seconds


@dataclass
class Round:
    root: Path
    times: dict = field(default_factory=dict)  # stage -> seconds, plus "flow"
    converts: dict = field(default_factory=dict)  # source WAV -> counts
    verb_calls: int = 0

    def feature(self, wav_name: str) -> Path:
        return self.root / "features" / (Path(wav_name).stem + ".csv")

    def model(self, direction: str) -> Path:
        return self.root / "models" / f"{direction}.mlp"

    def converted(self, source_wav: str) -> Path:
        return self.root / "converted" / source_wav.replace("_src.wav",
                                                            "_conv.wav")

    @property
    def report(self) -> Path:
        return self.root / "report.csv"


def directions(manifest: dict) -> dict:
    """{direction label: its manifest entries}, in first-seen order."""
    out = {}
    for entry in manifest["pairs"]:
        out.setdefault(entry["direction"], []).append(entry)
    return out


def run_round(workload, corpus: Path, manifest: dict, root: Path) -> Round:
    """analyze -> train -> convert -> evaluate; each stage timed on its own."""
    rnd = Round(root=root)
    for sub in ("features", "models", "converted"):
        (root / sub).mkdir(parents=True)
    raw = ["--raw-lpc"] if workload.raw_lpc else []
    wavs = [e[k] for e in manifest["pairs"] for k in ("source", "target")]
    flow_start = time.perf_counter()

    def stage(name, argvs):
        total = 0.0
        outputs = []
        for argv in argvs:
            text, seconds = call(argv)
            total += seconds
            outputs.append(text)
        rnd.times[name] = total
        rnd.verb_calls += len(argvs)
        return outputs

    stage("analyze", [["analyze", corpus / w, "--features", rnd.feature(w)]
                      for w in wavs])
    stage("train", [["train",
                     "--source", *[rnd.feature(e["source"]) for e in entries],
                     "--target", *[rnd.feature(e["target"]) for e in entries],
                     "--model-out", rnd.model(label),
                     "--epochs", workload.epochs, *raw]
                    for label, entries in directions(manifest).items()])
    outputs = stage("convert", [["convert", rnd.model(e["direction"]),
                                 corpus / e["source"],
                                 rnd.converted(e["source"]), *raw]
                                for e in manifest["pairs"]])
    stage("evaluate", [[
        "evaluate",
        "--source", *[corpus / e["source"] for e in manifest["pairs"]],
        "--target", *[corpus / e["target"] for e in manifest["pairs"]],
        "--converted", *[rnd.converted(e["source"]) for e in manifest["pairs"]],
        "--out", rnd.report]])
    rnd.times["flow"] = time.perf_counter() - flow_start

    for entry, text in zip(manifest["pairs"], outputs):
        match = CONVERT_LINE.search(text.strip())
        if match is None:
            raise VerbFailed(f"unexpected convert output {text!r}")
        rnd.converts[entry["source"]] = dict(zip(
            ("frames", "unstable", "muted", "fallbacks"),
            map(int, match.groups())))
    return rnd


def digests(root: Path) -> dict:
    """{relative path: sha256} of every file under root."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}
