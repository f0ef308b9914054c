"""Spectral distortion metric and conversion reports."""

import numpy as np
import pytest

from vconv.align import dtw_align
from vconv.eval import (
    ZeroBaselineError,
    conversion_report,
    mcd_frame,
    mcd_sequences,
)

_UNIT_DIFF_DB = (10.0 / np.log(10.0)) * np.sqrt(2.0)


def test_mcd_frame_identical_is_zero():
    v = np.linspace(0.1, 0.9, 24)
    assert mcd_frame(v, v) == 0.0


def test_mcd_frame_unit_difference():
    t = np.zeros(24)
    p = np.zeros(24)
    p[0] = 1.0
    assert mcd_frame(t, p) == pytest.approx(_UNIT_DIFF_DB, abs=1e-12)
    assert mcd_frame(t, p) == pytest.approx(6.141851, abs=1e-5)


def test_mcd_frame_symmetric():
    rng = np.random.default_rng(42)
    for _ in range(100):
        a = rng.uniform(0, 1, size=24)
        b = rng.uniform(0, 1, size=24)
        assert mcd_frame(a, b) == mcd_frame(b, a)


def test_mcd_frame_scales_with_distance():
    t = np.zeros(8)
    d = np.full(8, 0.25)
    assert mcd_frame(t, 2 * d) == pytest.approx(2 * mcd_frame(t, d), rel=1e-12)


def test_mcd_frame_length_mismatch():
    with pytest.raises(ValueError):
        mcd_frame(np.zeros(24), np.zeros(23))


def test_mcd_sequences_identical_is_zero():
    rng = np.random.default_rng(1)
    seq = rng.uniform(0, 1, size=(12, 24))
    assert mcd_sequences(seq, seq) == 0.0


def test_mcd_sequences_hand_case():
    # a constant 0.5 offset keeps the warp diagonal; per-frame distortion
    # is then (10/ln10) * sqrt(2 * 0.25)
    t = np.array([[0.0], [1.0], [2.0]])
    p = t + 0.5
    expected = (10.0 / np.log(10.0)) * np.sqrt(2.0 * 0.25)
    assert mcd_sequences(t, p) == pytest.approx(expected, rel=1e-12)


def test_mcd_sequences_aligns_lengths():
    # duplicated frames add zero-cost path cells, so the mean stays put
    t = np.array([[0.0], [1.0]])
    p = np.array([[0.0], [0.0], [1.0]])
    assert mcd_sequences(t, p) == 0.0


def test_mcd_sequences_equals_mean_of_path_cells_bit_for_bit():
    rng = np.random.default_rng(7)
    for _ in range(120):
        dims = int(rng.integers(1, 41))
        t = rng.uniform(0, 1, size=(int(rng.integers(1, 151)), dims))
        p = rng.uniform(0, 1, size=(int(rng.integers(1, 151)), dims))
        if rng.random() < 0.3:  # tie-heavy inputs
            t, p = np.round(t * 3) / 3, np.round(p * 3) / 3
        cells = dtw_align(t, p).path
        assert mcd_sequences(t, p) == float(
            np.mean([mcd_frame(t[i], p[j]) for i, j in cells]))


def test_conversion_report_perfect_conversion():
    src = np.array([[0.2, 0.4], [0.3, 0.5]])
    tgt = np.array([[0.6, 0.8], [0.7, 0.9]])
    rep = conversion_report(src, tgt, tgt.copy())
    assert rep.mcd_converted_target == 0.0
    assert rep.percent_decrease == pytest.approx(100.0)
    assert rep.mcd_source_target > 0.0


def test_conversion_report_identity_conversion():
    src = np.array([[0.2, 0.4], [0.3, 0.5]])
    tgt = np.array([[0.6, 0.8], [0.7, 0.9]])
    rep = conversion_report(src, tgt, src.copy())
    assert rep.percent_decrease == pytest.approx(0.0, abs=1e-12)
    assert rep.mcd_source_converted == 0.0


def test_conversion_report_regression_is_negative():
    src = np.array([[0.2]])
    tgt = np.array([[0.3]])
    conv = np.array([[0.5]])
    rep = conversion_report(src, tgt, conv)
    assert rep.percent_decrease == pytest.approx(-100.0, rel=1e-9)


def test_conversion_report_zero_baseline():
    same = np.array([[0.2, 0.4]])
    with pytest.raises(ZeroBaselineError):
        conversion_report(same, same.copy(), np.array([[0.3, 0.5]]))
