"""Dynamic time warping over feature-vector sequences.

Monotone alignment with unit steps (1,1), (1,0), (0,1), Euclidean local
distance, endpoints pinned at both ends.  Ties during backtrace resolve
diagonal first, then the A-advance step, then the B-advance step, so the
path is a deterministic function of the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class StaleAlignmentError(IndexError):
    """An alignment was applied to sequences it was not computed from."""


@dataclass
class DtwAlignment:
    path: np.ndarray  # (cells, 2) intp (i, j) rows, both columns non-decreasing
    total_cost: float  # sum of local distances over the path cells


_BAND_CELLS = 65536  # distance cells per band of rows


def _euclidean_distances(a, b) -> np.ndarray:
    """(n, m) distances between the rows of a and of b: the squares are
    summed one dimension at a time, in the order cdist sums them, over
    bands of rows that share one scratch array of about _BAND_CELLS."""
    local = np.zeros((a.shape[0], b.shape[0]))
    rows = max(1, _BAND_CELLS // b.shape[0])
    scratch = np.empty((min(rows, a.shape[0]), b.shape[0]))
    for start in range(0, a.shape[0], rows):
        band = local[start:start + rows]
        d = scratch[:band.shape[0]]
        for k in range(a.shape[1]):
            np.subtract.outer(a[start:start + rows, k], b[:, k], out=d)
            d *= d
            band += d
    return np.sqrt(local, out=local)


def dtw_align(seq_a, seq_b) -> DtwAlignment:
    """Align two (frames, dims) arrays / vector lists of equal dimension."""
    a = np.atleast_2d(np.asarray(seq_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(seq_b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("cannot align an empty sequence")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    n, m = a.shape[0], b.shape[0]

    local = _euclidean_distances(a, b)
    acc = np.empty((n, m))
    # edge cells accumulate in path order so costs match a step-by-step sum
    acc[0, :] = np.cumsum(local[0, :])
    acc[:, 0] = np.cumsum(local[:, 0])
    # inner cells fill one anti-diagonal i + j = d at a time; in the flat
    # arrays a diagonal and its three predecessors are slices of step m - 1
    flat, cost = acc.reshape(-1), local.reshape(-1)
    for d in range(2, n + m - 1) if n > 1 and m > 1 else ():
        first = d + max(1, d - m + 1) * (m - 1)
        last = d + min(n - 1, d - 1) * (m - 1)
        cells = slice(first, last + 1, m - 1)
        best = np.minimum(flat[first - m - 1:last - m:m - 1],
                          flat[first - m:last - m + 1:m - 1])
        flat[cells] = cost[cells] + np.minimum(best, flat[first - 1:last:m - 1])

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
    return DtwAlignment(path=np.array(path[::-1], dtype=np.intp),
                        total_cost=float(acc[n - 1, m - 1]))


def pair_frames(alignment: DtwAlignment, seq_a, seq_b) -> tuple:
    """The frames of a and of b on each path cell, in path order: two
    (cells, dims) arrays, row k of each from cell k."""
    a = np.atleast_2d(np.asarray(seq_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(seq_b, dtype=np.float64))
    i, j = alignment.path.T
    if i.max() >= a.shape[0] or j.max() >= b.shape[0]:
        raise StaleAlignmentError(
            f"path indexes up to ({i.max()}, {j.max()}) but "
            f"sequences have {a.shape[0]} and {b.shape[0]} frames")
    return a[i], b[j]
