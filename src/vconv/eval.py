"""Spectral distortion metrics for conversion quality.

The frame distance is the classic cepstral-distortion form
(10/ln 10) * sqrt(2 * sum of squared component differences), in dB.
Here it is applied to the 24-dimensional mapped parameter vectors
(pi-normalized line spectral frequencies), and sequences are compared
along a DTW path so durations need not match.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .align import dtw_align

_DB_FACTOR = 10.0 / np.log(10.0)


class ZeroBaselineError(ValueError):
    """Source and target tracks coincide; percent decrease is undefined."""


def mcd_frame(vec_t, vec_p) -> float:
    """Distortion in dB between two equal-length parameter vectors."""
    t = np.asarray(vec_t, dtype=np.float64)
    p = np.asarray(vec_p, dtype=np.float64)
    if t.shape != p.shape or t.ndim != 1:
        raise ValueError(f"need two equal-length vectors, got shapes "
                         f"{t.shape} and {p.shape}")
    return float(_DB_FACTOR * np.sqrt(2.0 * np.sum((t - p) ** 2)))


def mcd_sequences(seq_t, seq_p) -> float:
    """Mean frame distortion along the DTW path between two tracks: the
    mcd_frame of every path cell, computed for all cells at once."""
    t = np.atleast_2d(np.asarray(seq_t, dtype=np.float64))
    p = np.atleast_2d(np.asarray(seq_p, dtype=np.float64))
    i, j = dtw_align(t, p).path.T
    cell_mcd = _DB_FACTOR * np.sqrt(2.0 * np.sum((t[i] - p[j]) ** 2, axis=1))
    return float(np.mean(cell_mcd))


@dataclass
class ConversionReport:
    mcd_source_target: float
    mcd_converted_target: float
    mcd_source_converted: float
    percent_decrease: float  # positive when conversion moved toward the target


def conversion_report(source_feats, target_feats,
                      converted_feats) -> ConversionReport:
    """Pairwise sequence distortions plus the percent decrease
    100 * (d(source,target) - d(converted,target)) / d(source,target)."""
    st = mcd_sequences(source_feats, target_feats)
    ct = mcd_sequences(converted_feats, target_feats)
    sc = mcd_sequences(source_feats, converted_feats)
    if st == 0.0:
        raise ZeroBaselineError(
            "source and target tracks are identical; percent decrease undefined")
    return ConversionReport(
        mcd_source_target=st,
        mcd_converted_target=ct,
        mcd_source_converted=sc,
        percent_decrease=100.0 * (st - ct) / st,
    )
