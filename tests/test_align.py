"""Dynamic time warping: hand cases, brute-force oracle, frame pairing."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from vconv.align import (DtwAlignment, StaleAlignmentError, _euclidean_distances,
                         dtw_align, pair_frames)


def _brute_force_cost(local):
    """Minimum path cost by enumerating every monotone path."""
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


def _path_is_admissible(path, n, m):
    if path[0].tolist() != [0, 0] or path[-1].tolist() != [n - 1, m - 1]:
        return False
    steps = {(1, 1), (1, 0), (0, 1)}
    return all(tuple(step) in steps for step in np.diff(path, axis=0))


def test_identical_sequences_align_diagonally():
    rng = np.random.default_rng(42)
    seq = rng.standard_normal((10, 3))
    alignment = dtw_align(seq, seq)
    assert alignment.total_cost == 0.0
    assert alignment.path.dtype == np.intp
    np.testing.assert_array_equal(alignment.path, [(i, i) for i in range(10)])


def test_hand_case():
    alignment = dtw_align([[0.0], [1.0]], [[0.0], [2.0]])
    np.testing.assert_array_equal(alignment.path, [(0, 0), (1, 1)])
    assert alignment.total_cost == pytest.approx(1.0)


def test_insertion_hand_case():
    # the middle frame of B has no counterpart in A and pairs with a repeat
    alignment = dtw_align([[0.0], [4.0]], [[0.0], [0.0], [4.0]])
    np.testing.assert_array_equal(alignment.path, [(0, 0), (0, 1), (1, 2)])
    assert alignment.total_cost == pytest.approx(0.0)


def test_matches_brute_force_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        a = rng.standard_normal((n, 2))
        b = rng.standard_normal((m, 2))
        alignment = dtw_align(a, b)
        expected = _brute_force_cost(cdist(a, b))
        assert alignment.total_cost == expected
        assert _path_is_admissible(alignment.path, n, m)


def test_cost_is_symmetric():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = rng.standard_normal((int(rng.integers(2, 12)), 4))
        b = rng.standard_normal((int(rng.integers(2, 12)), 4))
        assert dtw_align(a, b).total_cost == pytest.approx(
            dtw_align(b, a).total_cost, rel=1e-12)


def test_path_length_bounds():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((15, 2))
    b = rng.standard_normal((9, 2))
    path = dtw_align(a, b).path
    assert max(15, 9) <= len(path) <= 15 + 9 - 1


def test_zero_cost_only_for_matching_content():
    a = np.array([[0.0, 1.0], [2.0, 3.0]])
    b = np.array([[0.0, 1.0], [2.0, 3.0], [2.0, 3.0]])
    alignment = dtw_align(a, b)
    assert alignment.total_cost == 0.0
    for i, j in alignment.path:
        np.testing.assert_array_equal(a[i], b[j])


def test_empty_sequence_rejected():
    with pytest.raises(ValueError):
        dtw_align(np.zeros((0, 2)), np.zeros((3, 2)))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        dtw_align(np.zeros((3, 2)), np.zeros((3, 5)))


def test_pair_frames_diagonal():
    rng = np.random.default_rng(10)
    seq = rng.standard_normal((6, 3))
    alignment = dtw_align(seq, seq)
    x, t = pair_frames(alignment, seq, seq)
    np.testing.assert_array_equal(x, seq)
    np.testing.assert_array_equal(t, seq)


def test_pair_frames_repeats_on_insertion():
    a = np.array([[0.0], [4.0]])
    b = np.array([[0.0], [0.0], [4.0]])
    x, t = pair_frames(dtw_align(a, b), a, b)
    assert x.shape == t.shape == (3, 1)
    np.testing.assert_array_equal(x[0], a[0])
    np.testing.assert_array_equal(x[1], a[0])  # a[0] reused
    np.testing.assert_array_equal(x[2], a[1])
    np.testing.assert_array_equal(t, b)


def test_pair_frames_stale_alignment():
    long_seq = np.zeros((8, 2))
    short_seq = np.zeros((3, 2))
    alignment = dtw_align(long_seq, long_seq)
    with pytest.raises(StaleAlignmentError):
        pair_frames(alignment, short_seq, long_seq)
    with pytest.raises(StaleAlignmentError):
        pair_frames(alignment, long_seq, short_seq)


def test_stale_alignment_is_an_index_error():
    alignment = DtwAlignment(path=np.array([(0, 0), (5, 5)], dtype=np.intp),
                             total_cost=0.0)
    with pytest.raises(IndexError):
        pair_frames(alignment, np.zeros((2, 1)), np.zeros((2, 1)))


def _double_loop_dtw(a, b):
    """The cell-by-cell fill and backtrace that the anti-diagonal fill
    replaced, kept as the reference it must match exactly."""
    local = cdist(a, b)
    n, m = local.shape
    acc = np.empty((n, m))
    acc[0, :] = np.cumsum(local[0, :])
    acc[:, 0] = np.cumsum(local[:, 0])
    for i in range(1, n):
        for j in range(1, m):
            acc[i, j] = local[i, j] + min(acc[i - 1, j - 1], acc[i - 1, j],
                                          acc[i, j - 1])
    path = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            best = min(acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1])
            if acc[i - 1, j - 1] == best:
                i, j = i - 1, j - 1
            elif acc[i - 1, j] == best:
                i -= 1
            else:
                j -= 1
        path.append((i, j))
    return path[::-1], float(acc[n - 1, m - 1])


@pytest.mark.parametrize("ties", [False, True])
def test_anti_diagonal_fill_matches_double_loop(ties):
    rng = np.random.default_rng(11 + ties)
    shapes = [(1, 1), (1, 9), (9, 1), (2, 2), (2, 17), (17, 2), (40, 38),
              (120, 118)] + [tuple(rng.integers(1, 30, 2)) for _ in range(40)]
    for n, m in shapes:
        if ties:  # small integer vectors: many equal distances and costs
            a = rng.integers(0, 3, (n, 2)).astype(float)
            b = rng.integers(0, 3, (m, 2)).astype(float)
        else:
            a = rng.standard_normal((n, 3))
            b = rng.standard_normal((m, 3))
        alignment = dtw_align(a, b)
        path, cost = _double_loop_dtw(a, b)
        np.testing.assert_array_equal(alignment.path, path)
        assert alignment.total_cost == cost


@pytest.mark.parametrize("ties", [False, True])
def test_local_distances_match_cdist_bit_for_bit(ties):
    # dtw_align sums the squared differences itself; criterion 05 compares
    # total_cost with !=, so each distance must be the one cdist gives
    rng = np.random.default_rng(21 + ties)
    shapes = [(1, 1), (1, 17), (17, 1)] + [
        tuple(rng.integers(1, 40, 2)) for _ in range(100)]
    for k, (n, m) in enumerate(shapes):
        dims = 1 if k % 10 == 0 else int(rng.integers(1, 30))
        if ties:  # small integers: many equal distances, exact zeros
            a = rng.integers(-2, 3, (n, dims)).astype(float)
            b = rng.integers(-2, 3, (m, dims)).astype(float)
        else:
            scale = 10.0 ** rng.integers(-3, 4)
            a = rng.standard_normal((n, dims)) * scale
            b = rng.standard_normal((m, dims)) * scale
        np.testing.assert_array_equal(_euclidean_distances(a, b), cdist(a, b))


@pytest.mark.parametrize("m", [3000, 70000])
def test_banded_distances_match_cdist_across_bands(m):
    # 3000 columns make bands of 21 rows, the last one short; past 65536
    # columns every band is one row
    rng = np.random.default_rng(m)
    a = rng.standard_normal((50 if m < 65536 else 3, 5))
    b = rng.standard_normal((m, 5))
    np.testing.assert_array_equal(_euclidean_distances(a, b), cdist(a, b))


def test_distance_scratch_stays_bounded():
    import tracemalloc

    rng = np.random.default_rng(5)
    a = rng.standard_normal((1000, 24))
    b = rng.standard_normal((1000, 24))
    tracemalloc.start()
    try:
        local = _euclidean_distances(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result plus one band of about 64 K cells and numpy's ufunc
    # buffers: 1 MB over the result, where a second n x m array is 8 MB
    assert peak <= local.nbytes + 2 * 8 * 65536
