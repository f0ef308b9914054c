"""LPC <-> LSF conversion, validation and rectification."""

import tracemalloc
import warnings

import numpy as np
import pytest

from vconv.lpc import LpcFrame, autocorrelate, levinson_durbin, lpc_poles
from vconv.signal_io import frame_signal, preemphasize
from vconv.testkit import synthesize_utterance, utterance_pair_specs
from vconv.lsf import (
    MIN_GAP,
    LsfConversionError,
    lpc_to_lsf,
    lsf_to_lpc,
    rectify_lsf,
    validate_lsf,
)


def _random_lsf(rng, order, jitter=0.45):
    """Ascending angles in (0, pi): a uniform lattice with bounded jitter.

    Gaps vary between 0.1x and 1.9x the lattice spacing but can never
    collapse further. Tight angle clusters near 0 or pi are excluded on
    purpose: their monic-coefficient form cannot carry the angles at full
    double precision, so no converter could round-trip them to 1e-6.
    """
    spacing = np.pi / (order + 1)
    return spacing * np.arange(1, order + 1) + rng.uniform(
        -jitter * spacing, jitter * spacing, size=order)


def _crowded_lsf(rng, order, margin=5e-3):
    """Ascending angles in (0, pi) with every gap (and both ends) >= margin.

    Heavy-tailed gaps pile up near the minimum, which stresses stability
    of the reconstruction but is too ill-conditioned for precise angle
    recovery; round-trip precision tests use _random_lsf instead.
    """
    raw = rng.exponential(size=order + 1)
    gaps = margin + raw * (np.pi - (order + 1) * margin) / raw.sum()
    return np.cumsum(gaps)[:-1]


def test_trivial_predictor_gives_uniform_angles():
    for order in (2, 8, 16, 24):
        lpc = LpcFrame(coefficients=np.zeros(order), gain=1.0)
        lsf = lpc_to_lsf(lpc)
        expected = np.arange(1, order + 1) * np.pi / (order + 1)
        assert np.max(np.abs(lsf - expected)) <= 1e-9


def test_second_order_hand_case():
    # A(z) = 1 - 1.2 z^-1 + 0.72 z^-2; deflating the sum/difference
    # polynomials by hand leaves 2cos(w) = 1.48 and 2cos(w) = 0.92
    lpc = LpcFrame(coefficients=np.array([1.2, -0.72]), gain=1.0)
    lsf = lpc_to_lsf(lpc)
    np.testing.assert_allclose(lsf, [np.arccos(0.74), np.arccos(0.46)],
                               atol=1e-9)


def test_round_trip_from_lsf():
    rng = np.random.default_rng(42)
    for order in (2, 8, 16, 24):
        for _ in range(100):
            lsf = _random_lsf(rng, order)
            back = lpc_to_lsf(lsf_to_lpc(lsf))
            assert np.max(np.abs(back - lsf)) <= 1e-6


def test_round_trip_from_coefficients():
    rng = np.random.default_rng(43)
    for _ in range(50):
        lpc = levinson_durbin(autocorrelate(rng.standard_normal(400), 12), 12)
        rebuilt = lsf_to_lpc(lpc_to_lsf(lpc), lpc.gain)
        assert np.max(np.abs(rebuilt.coefficients - lpc.coefficients)) <= 1e-9


def test_uniform_angles_give_trivial_predictor():
    lsf = np.arange(1, 25) * np.pi / 25
    lpc = lsf_to_lpc(lsf)
    assert np.max(np.abs(lpc.coefficients)) <= 1e-9


def test_gain_is_carried_not_converted():
    lsf = np.array([np.pi / 3, 2 * np.pi / 3])
    assert lsf_to_lpc(lsf).gain == 1.0
    assert lsf_to_lpc(lsf, gain=2.5).gain == 2.5


def test_odd_order_rejected():
    with pytest.raises(ValueError):
        lpc_to_lsf(LpcFrame(coefficients=np.zeros(3), gain=1.0))
    with pytest.raises(ValueError):
        lsf_to_lpc(np.array([0.5, 1.0, 1.5]))
    with pytest.raises(ValueError):
        lpc_to_lsf(LpcFrame(coefficients=np.zeros(0), gain=1.0))


def test_unstable_predictor_rejected():
    # poles at +-sqrt(1.1) sit outside the unit circle
    lpc = LpcFrame(coefficients=np.array([0.0, 1.1]), gain=1.0)
    with pytest.raises(LsfConversionError):
        lpc_to_lsf(lpc)


def test_invalid_lsf_vector_rejected():
    with pytest.raises(ValueError):
        lsf_to_lpc(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        lsf_to_lpc(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        lsf_to_lpc(np.array([0.5, np.pi]))


def test_reconstruction_is_always_stable():
    rng = np.random.default_rng(44)
    for _ in range(50):
        lsf = _crowded_lsf(rng, 24)
        poles = lpc_poles(lsf_to_lpc(lsf))
        assert np.all(np.abs(poles) < 1.0)


def test_validate_lsf():
    assert validate_lsf([0.5, 1.0, 2.0])
    assert not validate_lsf([1.0, 1.0])
    assert not validate_lsf([2.0, 1.0])
    assert not validate_lsf([0.0, 1.0])
    assert not validate_lsf([0.5, np.pi])
    assert not validate_lsf([])
    assert not validate_lsf([0.5, np.nan])
    assert not validate_lsf([-0.5, 1.0])


def test_rectify_identity_on_well_spaced_input():
    lsf = np.array([0.4, 0.9, 1.8, 2.6])
    np.testing.assert_array_equal(rectify_lsf(lsf), lsf)


def test_rectify_sorts():
    np.testing.assert_allclose(rectify_lsf([2.0, 1.0]), [1.0, 2.0])


def test_rectify_separates_duplicates():
    np.testing.assert_allclose(rectify_lsf([0.5, 0.5]), [0.5, 0.5 + MIN_GAP])


def test_rectify_clamps_to_open_interval():
    out = rectify_lsf([-1.0, 4.0])
    np.testing.assert_allclose(out, [MIN_GAP, np.pi - MIN_GAP])


def test_rectify_replaces_non_finite():
    out = rectify_lsf([np.nan, 1.0, np.inf])
    assert validate_lsf(out)
    # non-finite entries land mid-band before sorting
    assert np.any(np.isclose(out, 0.5 * np.pi))


def test_rectify_backward_sweep_keeps_order():
    # everything pinned at the top forces the downward pass
    out = rectify_lsf(np.full(5, np.pi))
    assert validate_lsf(out)
    assert out[-1] == pytest.approx(np.pi - MIN_GAP)
    np.testing.assert_allclose(np.diff(out), MIN_GAP)


def test_rectify_total_and_idempotent():
    rng = np.random.default_rng(45)
    for _ in range(200):
        raw = rng.uniform(-10, 10, size=int(rng.integers(1, 25)))
        raw[rng.uniform(size=len(raw)) < 0.1] = np.nan
        raw[rng.uniform(size=len(raw)) < 0.1] = np.inf
        out = rectify_lsf(raw)
        assert validate_lsf(out)
        assert np.all(np.diff(out) >= MIN_GAP - 1e-12)
        np.testing.assert_array_equal(rectify_lsf(out), out)


def test_rectified_perturbations_convert_stably():
    """Rectifying a noisy but near-valid vector (the mapping-network output
    regime) keeps the reconstructed filter numerically stable."""
    rng = np.random.default_rng(46)
    for _ in range(50):
        noisy = _crowded_lsf(rng, 24) + rng.normal(0.0, 1e-3, size=24)
        out = rectify_lsf(noisy)
        assert np.all(np.abs(lpc_poles(lsf_to_lpc(out))) < 1.0)


def _roots_lsf(coeffs):
    """Reference LSF: angles of the numpy.roots of P and Q in (0, pi)."""
    a_ext = np.concatenate([[1.0], -coeffs, [0.0]])
    angles = np.angle(np.concatenate([np.roots(a_ext + a_ext[::-1]),
                                      np.roots(a_ext - a_ext[::-1])]))
    return np.sort(angles[(angles > 1e-9) & (angles < np.pi - 1e-9)])


def _noise_track(seed, frames=40, order=24):
    rng = np.random.default_rng(seed)
    return np.stack([levinson_durbin(autocorrelate(rng.standard_normal(400), order),
                                     order).coefficients
                     for _ in range(frames)])


def _assert_track_matches_frames_and_numpy_roots(track):
    lsf = lpc_to_lsf(track)
    assert lsf.shape == track.shape
    for row, coeffs in zip(lsf, track):
        # a track row is the one-frame result bit for bit
        np.testing.assert_array_equal(
            row, lpc_to_lsf(LpcFrame(coefficients=coeffs, gain=1.0)))
        assert np.max(np.abs(row - _roots_lsf(coeffs))) <= 1e-12


def test_track_matches_single_frames_and_numpy_roots():
    rng = np.random.default_rng(47)
    lattice = np.stack([_random_lsf(rng, 24) for _ in range(20)])
    _assert_track_matches_frames_and_numpy_roots(
        np.concatenate([_noise_track(48), lsf_to_lpc(lattice)]))


def test_track_matches_per_frame_reference_bit_for_bit():
    """Speech and noise frames in one track: each row is the one-frame
    conversion bit for bit and numpy.roots within 1e-12."""
    src, _ = utterance_pair_specs("M1", "F2", 0.3, 11025, pair_seed=52)
    speech = frame_signal(preemphasize(synthesize_utterance(src, 0.3, 11025)))
    _assert_track_matches_frames_and_numpy_roots(np.concatenate([
        np.stack([levinson_durbin(autocorrelate(f, 24), 24).coefficients
                  for f in speech.frames]),
        _noise_track(53)]))


def test_ill_conditioned_rows_round_trip():
    """Rows of multiples of pi/4096 with wide, nearly equal gaps; their
    coefficients carry the angles to only about 1e-8."""
    omega = np.linspace(0.0, np.pi, 4097)
    rng = np.random.default_rng(55)
    points = rng.integers(1, 37, size=(200, 1)) + 111 * np.arange(1, 25)
    lsf = lpc_to_lsf(lsf_to_lpc(omega[points]))
    assert np.max(np.abs(lsf - omega[points])) <= 1e-7


def test_close_roots_round_trip():
    """rectify_lsf spreads collapsed frequencies MIN_GAP apart, which puts
    two roots of one polynomial 2e-4 apart.  Clusters sit above pi/2: below
    it the coefficients carry such angles to only about 1e-9."""
    rng = np.random.default_rng(57)
    raw = np.stack([_random_lsf(rng, 24) for _ in range(10)])
    for row, start in zip(raw, range(12, 22)):
        row[start:start + 3] = row[start]  # three frequencies collapse
    lsf = rectify_lsf(raw)
    back = lpc_to_lsf(lsf_to_lpc(lsf))
    assert not np.any(np.isnan(back))
    assert np.max(np.abs(back - lsf)) <= 1e-10


def test_rectify_track_matches_rows():
    rng = np.random.default_rng(56)
    track = rng.uniform(-1.0, 4.5, size=(300, 24))
    track[rng.uniform(size=track.shape) < 0.05] = np.nan
    track[rng.uniform(size=track.shape) < 0.1] = np.pi
    track[rng.uniform(size=track.shape) < 0.1] = np.pi - 1e-5
    np.testing.assert_array_equal(rectify_lsf(track),
                                  np.stack([rectify_lsf(row) for row in track]))
    assert rectify_lsf(np.zeros((0, 24))).shape == (0, 24)


def test_track_marks_only_the_failed_frame():
    track = _noise_track(49, frames=20)
    track[7] = 0.0
    track[7, 1] = 1.1  # poles at +-sqrt(1.1), outside the unit circle
    lsf = lpc_to_lsf(track)
    failed = np.isnan(lsf)
    assert np.all(failed[7])
    assert not np.any(np.delete(failed, 7, axis=0))
    np.testing.assert_array_equal(np.delete(lsf, 7, axis=0),
                                  lpc_to_lsf(np.delete(track, 7, axis=0)))


def test_non_finite_rows_are_nan_without_warnings():
    track = _noise_track(58, frames=10)
    bad = track.copy()
    bad[3, 5] = np.nan
    bad[6, 0] = np.inf
    bad[8] = 1e308  # finite, but its cosine forms overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lsf = lpc_to_lsf(bad)
    np.testing.assert_array_equal(np.isnan(lsf).all(axis=1),
                                  np.isin(np.arange(10), [3, 6, 8]))
    np.testing.assert_array_equal(
        np.delete(lsf, [3, 6, 8], axis=0),
        lpc_to_lsf(np.delete(track, [3, 6, 8], axis=0)))


def test_track_conversion_is_repeatable():
    track = _noise_track(50)
    first = lpc_to_lsf(track)
    assert first.tobytes() == lpc_to_lsf(track).tobytes()
    assert lsf_to_lpc(first).tobytes() == lsf_to_lpc(first).tobytes()


def _conversion_peak_bytes(track):
    tracemalloc.start()
    try:
        lpc_to_lsf(track)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_track_working_set_is_bounded():
    rng = np.random.default_rng(54)
    track = lsf_to_lpc(np.stack([_random_lsf(rng, 24) for _ in range(512)]))
    lpc_to_lsf(track[:16])  # build the cached grid table first
    short = _conversion_peak_bytes(track[:16])
    # beyond the first block, a longer track only adds its output rows
    assert _conversion_peak_bytes(track) - short < 2 * track.nbytes


def test_empty_track():
    assert lpc_to_lsf(np.zeros((0, 24))).shape == (0, 24)
    assert lsf_to_lpc(np.zeros((0, 24))).shape == (0, 24)


def _convolve_lsf_to_lpc(omegas):
    """The one-vector polynomial expansion by np.convolve that the track
    code replaced, kept as the reference it must match bit for bit."""
    def expand(angles, trivial):
        poly = np.array(trivial, dtype=np.float64)
        for w in angles:
            poly = np.convolve(poly, [1.0, -2.0 * np.cos(w), 1.0])
        return poly

    a_full = 0.5 * (expand(omegas[0::2], [1.0, 1.0])
                    + expand(omegas[1::2], [1.0, -1.0]))
    return -a_full[1:len(omegas) + 1]


def test_track_back_conversion_matches_convolve_reference():
    rng = np.random.default_rng(51)
    for order in (2, 16, 24):
        lattice = np.stack([_random_lsf(rng, order) for _ in range(200)]
                           + [_crowded_lsf(rng, order) for _ in range(200)])
        coeffs = lsf_to_lpc(lattice)
        for row, vector in zip(coeffs, lattice):
            reference = _convolve_lsf_to_lpc(vector)
            np.testing.assert_array_equal(row, reference)
            np.testing.assert_array_equal(lsf_to_lpc(vector).coefficients,
                                          reference)


def test_invalid_row_in_track_rejected():
    lattice = np.tile(np.arange(1, 9) * np.pi / 9, (3, 1))
    lattice[1, [2, 3]] = lattice[1, [3, 2]]
    with pytest.raises(ValueError, match="vector 1"):
        lsf_to_lpc(lattice)
