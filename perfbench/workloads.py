"""The benchmark's workloads: corpus make-up, training length, mapping mode.

Each workload runs the same stages (gen-corpus, analyze, train, convert,
evaluate) on a corpus made from the benchmark's --seed.  The sizes are
scaled down from the acceptance flow (20 pairs, 10 000 epochs, 92 s) so that
a run stays under a minute; README.md records how and why.
"""

from __future__ import annotations

from dataclasses import dataclass

# every workload must exercise each of these layers in its traced round
LAYERS = ("lsf", "lpc", "mlp", "align", "eval", "signal_io", "testkit", "cli")


@dataclass(frozen=True)
class Workload:
    name: str
    pairs: int  # utterance pairs, round-robin over the four directions
    duration_s: float  # length of each utterance
    rate: int  # sample rate in Hz
    epochs: int  # --epochs passed to every train call
    raw_lpc: bool  # pass --raw-lpc to train and convert


WORKLOADS = {w.name: w for w in (
    Workload("flow_clean", pairs=10, duration_s=0.62, rate=11025,
             epochs=3000, raw_lpc=False),
    Workload("flow_raw_lpc", pairs=10, duration_s=0.62, rate=11025,
             epochs=3000, raw_lpc=True),
)}
