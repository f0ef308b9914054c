"""Synthetic speaker-pair corpus with a known source->target relationship.

Each utterance pair shares one slowly drifting formant trajectory; the two
voices differ by a fixed warp of the formant centers and by pitch.  An
impulse-train excitation with a little seeded noise is shaped by a cascade
of second-order resonators that follows the trajectory step by step.
Everything is a pure function of the seeds, so the manifest written next
to the WAV files regenerates a corpus bit-exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lpc import synthesis_filter
from .signal_io import Waveform, hop_segments, write_wav

# fixture voices: (average pitch in Hz, formant-center warp factor)
SPEAKERS = {
    "M1": (120.86, 0.94),
    "M2": (102.89, 0.88),
    "F1": (245.68, 1.12),
    "F2": (226.32, 1.05),
}

# conversion directions: (label, source voice, target voice)
DIRECTIONS = [
    ("M2M", "M1", "M2"),
    ("M2F", "M1", "F1"),
    ("F2M", "F1", "M1"),
    ("F2F", "F1", "F2"),
]

RADIUS_CAP = 0.98  # resonator poles stay at or below this radius

_BASE_CENTERS = np.pi * np.array([0.20, 0.45, 0.70])
# radii near the cap give formant bandwidths comparable to real speech at
# 11 kHz; mapped-coefficient errors then matter, as they do on real data
_BASE_RADII = np.array([0.98, 0.97, 0.96])
_MOD_DEPTH = np.pi * 0.04  # peak trajectory drift around each base center
_STEP_MS = 5.0  # trajectory resolution; matches the default analysis hop
_EXCITATION_NOISE = 0.01
_PEAK = 0.5  # normalization target for synthesized utterances


@dataclass
class SyntheticSpeakerSpec:
    """A voice: pitch plus a per-step (center, radius) formant schedule."""

    pitch_hz: float
    formant_track: np.ndarray  # (steps, formants, 2), radians / pole radius
    seed: int

    def __post_init__(self):
        if not 50.0 <= self.pitch_hz <= 400.0:
            raise ValueError(f"pitch {self.pitch_hz} Hz outside [50, 400]")
        track = np.asarray(self.formant_track, dtype=np.float64)
        if track.ndim != 3 or track.shape[2] != 2 or track.shape[0] < 1:
            raise ValueError("formant_track must be (steps, formants, 2)")
        centers, radii = track[:, :, 0], track[:, :, 1]
        if np.any(centers <= 0.0) or np.any(centers >= np.pi):
            raise ValueError("formant centers must lie in (0, pi)")
        if np.any(radii <= 0.0) or np.any(radii > RADIUS_CAP):
            raise ValueError(f"pole radii must lie in (0, {RADIUS_CAP}]")
        self.formant_track = track


def generate_excitation(pitch_hz: float, duration_s: float, sample_rate: int,
                        noise_mix: float, seed: int) -> Waveform:
    """Unit impulse train at period round(sample_rate/pitch) plus seeded
    white noise scaled by noise_mix."""
    if not 0.0 < pitch_hz < sample_rate / 2.0:
        raise ValueError(f"pitch {pitch_hz} Hz out of range for "
                         f"{sample_rate} Hz sampling")
    if not 0.0 <= noise_mix <= 1.0:
        raise ValueError(f"noise_mix must be in [0, 1], got {noise_mix}")
    n = int(duration_s * sample_rate)
    if n < 1:
        raise ValueError("duration too short for even one sample")
    period = int(round(sample_rate / pitch_hz))
    x = np.zeros(n)
    x[::period] = 1.0
    if noise_mix > 0.0:
        rng = np.random.default_rng(seed)
        x = x + noise_mix * rng.standard_normal(n)
    return Waveform(samples=x, sample_rate=sample_rate)


def _shared_centers(steps: int, rng: np.random.Generator) -> np.ndarray:
    """One slow sinusoidal drift per formant, shared by both voices of a pair."""
    t = np.arange(steps) / max(steps, 1)
    centers = np.empty((steps, len(_BASE_CENTERS)))
    for f in range(len(_BASE_CENTERS)):
        cycles = rng.uniform(0.5, 2.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        centers[:, f] = _BASE_CENTERS[f] + _MOD_DEPTH * np.sin(
            2.0 * np.pi * cycles * t + phase)
    return centers


def speaker_spec(voice: str, shared_centers: np.ndarray,
                 seed: int) -> SyntheticSpeakerSpec:
    """Apply a fixture voice's warp and pitch to a shared trajectory."""
    pitch, warp = SPEAKERS[voice]
    centers = np.clip(shared_centers * warp, 0.02 * np.pi, 0.95 * np.pi)
    radii = np.broadcast_to(_BASE_RADII, centers.shape)
    track = np.stack([centers, radii], axis=2)
    return SyntheticSpeakerSpec(pitch_hz=pitch, formant_track=track, seed=seed)


def utterance_pair_specs(source_voice: str, target_voice: str,
                         duration_s: float, sample_rate: int,
                         pair_seed: int):
    """Specs for one pair: same trajectory, per-voice warp, distinct seeds."""
    step = max(1, int(_STEP_MS * sample_rate / 1000.0))
    steps = max(1, math.ceil(int(duration_s * sample_rate) / step))
    rng = np.random.default_rng(pair_seed)
    centers = _shared_centers(steps, rng)
    return (speaker_spec(source_voice, centers, pair_seed * 10 + 1),
            speaker_spec(target_voice, centers, pair_seed * 10 + 2))


def synthesize_utterance(spec: SyntheticSpeakerSpec, duration_s: float,
                         sample_rate: int,
                         noise_mix: float = _EXCITATION_NOISE) -> Waveform:
    """Drive the speaker's resonator cascade with its excitation; peak 0.5."""
    exc = generate_excitation(spec.pitch_hz, duration_s, sample_rate,
                              noise_mix, spec.seed)
    step = max(1, int(_STEP_MS * sample_rate / 1000.0))
    track = spec.formant_track
    cascades = np.empty((len(track), 2 * track.shape[1]))
    for i, formants in enumerate(track):
        poly = np.array([1.0])
        for center, radius in formants:
            poly = np.convolve(poly, [1.0, -2.0 * radius * np.cos(center),
                                      radius * radius])
        cascades[i] = -poly[1:]
    # one cascade per step, the last one holding past the trajectory's end;
    # the short last step is zero-padded and the padding trimmed off
    steps = -(-len(exc) // step)
    rows = cascades[np.minimum(np.arange(steps), len(track) - 1)]
    out, _ = synthesis_filter(hop_segments(exc, step, steps), rows,
                              np.zeros(cascades.shape[1]))
    out = out.ravel()[:len(exc)]
    peak = np.max(np.abs(out))
    if peak > 0.0:
        out *= _PEAK / peak
    return Waveform(samples=out, sample_rate=sample_rate)


def generate_utterance_pair(source: SyntheticSpeakerSpec,
                            target: SyntheticSpeakerSpec, duration_s: float,
                            sample_rate: int):
    """Render both voices of a pair; identical specs give identical audio."""
    return (synthesize_utterance(source, duration_s, sample_rate),
            synthesize_utterance(target, duration_s, sample_rate))


def add_noise(w: Waveform, snr_db: float, seed: int) -> Waveform:
    """Seeded white noise at the requested signal-to-noise ratio."""
    x = np.asarray(w.samples, dtype=np.float64)
    power = float(np.mean(x ** 2))
    if power <= 0.0:
        raise ValueError("cannot set an SNR against a silent signal")
    sigma = np.sqrt(power / 10.0 ** (snr_db / 10.0))
    rng = np.random.default_rng(seed)
    return Waveform(samples=x + sigma * rng.standard_normal(len(x)),
                    sample_rate=w.sample_rate)


def build_corpus(out_dir, pairs: int = 20, duration_s: float = 0.62,
                 sample_rate: int = 11025, seed: int = 42,
                 snr_db: float | None = None) -> dict:
    """Write `pairs` utterance pairs (round-robin over DIRECTIONS) plus a
    manifest.json that records every seed; returns the manifest dict."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(pairs):
        label, src_voice, tgt_voice = DIRECTIONS[i % len(DIRECTIONS)]
        pair_seed = seed * 1000 + i
        src_spec, tgt_spec = utterance_pair_specs(
            src_voice, tgt_voice, duration_s, sample_rate, pair_seed)
        wav_src, wav_tgt = generate_utterance_pair(
            src_spec, tgt_spec, duration_s, sample_rate)
        if snr_db is not None:
            wav_src = add_noise(wav_src, snr_db, pair_seed * 10 + 5)
            wav_tgt = add_noise(wav_tgt, snr_db, pair_seed * 10 + 6)
        src_file = f"pair{i:03d}_{label}_src.wav"
        tgt_file = f"pair{i:03d}_{label}_tgt.wav"
        write_wav(wav_src, out / src_file)
        write_wav(wav_tgt, out / tgt_file)
        entries.append({
            "index": i,
            "direction": label,
            "source_voice": src_voice,
            "target_voice": tgt_voice,
            "pair_seed": pair_seed,
            "source": src_file,
            "target": tgt_file,
        })
    manifest = {
        "sample_rate": sample_rate,
        "duration_s": duration_s,
        "seed": seed,
        "snr_db": snr_db,
        "pairs": entries,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
