"""Spans around the calls into vconv's public functions, taken from outside.

Each traced function is found by the identity of its function object and
wrapped at every `vconv` module that binds it, so `vconv.cli.lpc_to_lsf`
and `vconv.lsf.lpc_to_lsf` are both traced, and so is any module that
imports the function later.  A span holds its name, start, end and parent;
spans stay in memory until the run ends.  Counters come from the traced
calls' arguments, return values and raised exceptions.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (span name, defining module, function); a span name joins the functions
# that share a layer metric
TARGETS = (
    ("lsf.lpc_to_lsf", "vconv.lsf", "lpc_to_lsf"),
    ("lsf.lsf_to_lpc", "vconv.lsf", "lsf_to_lpc"),
    ("lsf.rectify_lsf", "vconv.lsf", "rectify_lsf"),
    ("lpc.analyze_frame", "vconv.lpc", "analyze_frame"),
    ("lpc.inverse_filter", "vconv.lpc", "inverse_filter"),
    ("lpc.synthesis_filter", "vconv.lpc", "synthesis_filter"),
    ("lpc.lpc_poles", "vconv.lpc", "lpc_poles"),
    ("mlp.train", "vconv.mlp", "train"),
    ("mlp.forward", "vconv.mlp", "forward"),
    ("mlp.model_io", "vconv.mlp", "save_model"),
    ("mlp.model_io", "vconv.mlp", "load_model"),
    ("align.dtw_align", "vconv.align", "dtw_align"),
    ("align.pair_frames", "vconv.align", "pair_frames"),
    ("eval.conversion_report", "vconv.eval", "conversion_report"),
    ("eval.mcd_frame", "vconv.eval", "mcd_frame"),
    ("signal_io.read_wav", "vconv.signal_io", "read_wav"),
    ("signal_io.write_wav", "vconv.signal_io", "write_wav"),
    ("signal_io.frame_signal", "vconv.signal_io", "frame_signal"),
    ("signal_io.hop_segments", "vconv.signal_io", "hop_segments"),
    ("testkit.build_corpus", "vconv.testkit", "build_corpus"),
    ("cli.features_io", "vconv.cli", "write_features"),
    ("cli.features_io", "vconv.cli", "read_features"),
    ("cli.analyze", "vconv.cli", "cmd_analyze"),
    ("cli.train", "vconv.cli", "cmd_train"),
    ("cli.convert", "vconv.cli", "cmd_convert"),
    ("cli.evaluate", "vconv.cli", "cmd_evaluate"),
)

# (name, unit, better) of every metric a traced run reports
PER_LAYER = (
    ("lsf.lpc_to_lsf.calls", "count", "lower"),
    ("lsf.lpc_to_lsf.self_s", "s", "lower"),
    ("lsf.lpc_to_lsf.fallbacks", "count", "lower"),
    ("lsf.lpc_to_lsf.ok_ratio", "ratio", "higher"),
    ("lsf.lsf_to_lpc.calls", "count", "lower"),
    ("lsf.lsf_to_lpc.self_s", "s", "lower"),
    ("lsf.rectify_lsf.self_s", "s", "lower"),
    ("lpc.analyze_frame.calls", "count", "lower"),
    ("lpc.analyze_frame.self_s", "s", "lower"),
    ("lpc.degenerate_frames", "count", "lower"),
    ("lpc.inverse_filter.self_s", "s", "lower"),
    ("lpc.synthesis_filter.samples", "count", "lower"),
    ("lpc.synthesis_filter.self_s", "s", "lower"),
    ("lpc.synthesis_filter.muted", "count", "lower"),
    ("lpc.lpc_poles.calls", "count", "lower"),
    ("lpc.lpc_poles.self_s", "s", "lower"),
    ("lpc.lpc_poles.nonconverged", "count", "lower"),
    ("lpc.unstable_frames", "count", "lower"),
    ("mlp.train.self_s", "s", "lower"),
    ("mlp.train.epochs", "count", "lower"),
    ("mlp.train.pairs", "count", "lower"),
    ("mlp.train.epoch_ms", "ms", "lower"),
    ("mlp.train.converged", "count", "higher"),
    ("mlp.forward.self_s", "s", "lower"),
    ("mlp.model_io.self_s", "s", "lower"),
    ("align.dtw_align.calls", "count", "lower"),
    ("align.dtw_align.cells", "count", "lower"),
    ("align.dtw_align.self_s", "s", "lower"),
    ("align.dtw_align.ns_per_cell", "ns", "lower"),
    ("align.pair_frames.self_s", "s", "lower"),
    ("eval.conversion_report.self_s", "s", "lower"),
    ("eval.mcd_frame.calls", "count", "lower"),
    ("signal_io.read_wav.self_s", "s", "lower"),
    ("signal_io.write_wav.self_s", "s", "lower"),
    ("signal_io.frame_signal.self_s", "s", "lower"),
    ("signal_io.hop_segments.self_s", "s", "lower"),
    ("testkit.build_corpus.self_s", "s", "lower"),
    ("testkit.samples", "count", "lower"),
    ("cli.features_io.self_s", "s", "lower"),
    ("cli.features_bytes", "B", "lower"),
    ("cli.analyze.self_s", "s", "lower"),
    ("cli.train.self_s", "s", "lower"),
    ("cli.convert.self_s", "s", "lower"),
    ("cli.evaluate.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _nrows(seq) -> int:
    return int(np.shape(seq)[0]) if np.ndim(seq) > 1 else 1


def _observe(fn_name, args, result, error, counts: Counter) -> None:
    """Counters from one traced call."""
    exc_name = type(error).__name__ if error is not None else None
    if fn_name == "lpc_to_lsf":
        counts["lsf.lpc_to_lsf.fallbacks"] += exc_name == "LsfConversionError"
    elif fn_name == "analyze_frame" and error is None:
        counts["lpc.degenerate_frames"] += bool(result.degenerate)
    elif fn_name == "synthesis_filter":
        counts["lpc.synthesis_filter.samples"] += len(args[0])
        counts["lpc.synthesis_filter.muted"] += exc_name == "FilterUnstableError"
    elif fn_name == "lpc_poles":
        roots = getattr(error, "roots", None) if error is not None else result
        counts["lpc.lpc_poles.nonconverged"] += exc_name == "RootConvergenceError"
        if roots is not None:
            counts["lpc.unstable_frames"] += bool(np.any(np.abs(roots) >= 1.0))
    elif fn_name == "train" and error is None:
        counts["mlp.train.epochs"] += result[1].epochs_run
        counts["mlp.train.converged"] += bool(result[1].converged)
        counts["mlp.train.pairs"] += len(args[1])
    elif fn_name == "dtw_align":
        counts["align.dtw_align.cells"] += _nrows(args[0]) * _nrows(args[1])
    elif fn_name == "write_features" and error is None:
        counts["cli.features_bytes"] += os.path.getsize(args[1])
    elif fn_name == "build_corpus" and error is None:
        per_file = int(result["duration_s"] * result["sample_rate"])
        counts["testkit.samples"] += 2 * len(result["pairs"]) * per_file


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _wrap(self, span_name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [span_name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                _observe(fn.__name__, args, result, error, counts)
        return traced

    def __enter__(self):
        wrappers = {}
        for span_name, module, name in TARGETS:
            fn = getattr(importlib.import_module(module), name, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, self._wrap(span_name, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "vconv"
                                   or mod_name.startswith("vconv.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    def totals(self):
        """({span name: calls}, {span name: self seconds})."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[idx]
        return calls, self_s

    def layer_calls(self) -> dict:
        calls, _ = self.totals()
        layers = Counter()
        for name, n in calls.items():
            layers[name.split(".")[0]] += n
        return layers

    def metrics(self, overhead_s: float) -> dict:
        """{metric name: value} for every entry of PER_LAYER."""
        calls, self_s = self.totals()
        c = self.counts
        values = {f"{name}.calls": calls[name] for name in calls}
        values.update({f"{name}.self_s": self_s[name] for name in self_s})
        values.update(c)
        to_lsf = calls["lsf.lpc_to_lsf"]
        values["lsf.lpc_to_lsf.ok_ratio"] = (
            (to_lsf - c["lsf.lpc_to_lsf.fallbacks"]) / to_lsf if to_lsf else 0.0)
        values["mlp.train.epoch_ms"] = (
            1000.0 * self_s["mlp.train"] / max(c["mlp.train.epochs"], 1))
        values["align.dtw_align.ns_per_cell"] = (
            1e9 * self_s["align.dtw_align"] / max(c["align.dtw_align.cells"], 1))
        values["trace.overhead_s"] = overhead_s
        return {name: values.get(name, 0) for name, _, _ in PER_LAYER}
