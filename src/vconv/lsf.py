"""LPC <-> line spectral frequency conversion and rectification.

For the inverse filter A(z) = 1 - sum a_k z^-k of even order p, form

    P(z) = A(z) + z^-(p+1) A(1/z)      (palindromic)
    Q(z) = A(z) - z^-(p+1) A(1/z)      (antipalindromic)

P carries a trivial root at z = -1 and Q one at z = +1; after deflating
those, each polynomial has p/2 conjugate root pairs exactly on the unit
circle whose angles interleave.  The merged ascending angles are the LSF
vector; the filter is stable iff the angles are strictly ascending in
(0, pi).  On the unit circle each deflated polynomial is, up to a phase
factor, a cosine form G(w) = sum_k g_k cos(k w) = sum_k g_k T_k(x), a
Chebyshev series in x = cos(w) (Kabal & Ramachandran, IEEE TASSP 34(6),
1986).  Its roots x are the eigenvalues of the series' colleague matrix
(I. J. Good, Q. J. Math. 12, 1961); the root angles are arccos(x).

Both directions work on a whole track, a (frames, order) array, at once;
a single frame is a one-row track of the same code.
"""

from __future__ import annotations

import numpy as np

from .lpc import LpcFrame

MIN_GAP = 1e-4  # smallest admissible spacing between adjacent frequencies
_BLOCK_FRAMES = 32  # frames per solve: bounds the working set of a track


class LsfConversionError(ValueError):
    """The frame has no valid LSF representation (unstable or defective)."""


def _check_order(p: int) -> None:
    if p % 2 != 0 or p == 0:
        raise ValueError(f"only even orders are supported, got {p}")


def _cosine_forms(coeffs: np.ndarray) -> np.ndarray:
    """Weights g with G(w) = sum_k g[k] cos(k*w) matching each frame's
    deflated P (row 2f) and Q (row 2f + 1) on the unit circle, up to a
    phase factor."""
    n, p = coeffs.shape
    a_ext = np.zeros((n, p + 2))
    a_ext[:, 0] = 1.0
    a_ext[:, 1:p + 1] = -coeffs
    psum = a_ext + a_ext[:, ::-1]
    qdiff = a_ext - a_ext[:, ::-1]

    # deflate the trivial roots: P by (1 + z^-1), Q by (1 - z^-1)
    sym = np.empty((n, 2, p + 1))
    sym[:, 0, 0] = psum[:, 0]
    sym[:, 1, 0] = qdiff[:, 0]
    for i in range(1, p + 1):
        sym[:, 0, i] = psum[:, i] - sym[:, 0, i - 1]
        sym[:, 1, i] = qdiff[:, i] + sym[:, 1, i - 1]
    sym = sym.reshape(2 * n, p + 1)

    m = p // 2
    g = np.empty((2 * n, m + 1))
    g[:, 0] = sym[:, m]
    g[:, 1:] = 2.0 * sym[:, m - 1::-1]
    return g


def _cosine_roots(g: np.ndarray):
    """Ascending angles in (0, pi) where each row's cosine form vanishes.

    A row whose form has a root off the real segment -1 < x < 1 is a NaN
    row.  The colleague matrices are, up to rounding, the ones
    numpy.polynomial.chebyshev.chebcompanion builds, one per row; their
    divisor, the leading weight g[:, -1], is 2 in every row.  LAPACK solves
    each matrix on its own, so a row gets the same roots, bit for bit,
    whatever rows share its call.
    """
    m = g.shape[1] - 1
    scale = np.full(m, np.sqrt(0.5))
    scale[0] = 1.0  # x T_0 = T_1 lacks the 1/2 of x T_k = (T_k-1 + T_k+1) / 2
    colleague = np.zeros((len(g), m, m))
    i = np.arange(m - 1)
    colleague[:, i, i + 1] = colleague[:, i + 1, i] = scale[:-1] * scale[1:]
    colleague[:, :, -1] -= g[:, :-1] / g[:, -1:] * (scale * scale[-1])
    x = np.linalg.eigvals(colleague)
    real = np.all((x.imag == 0.0) & (np.abs(x.real) < 1.0), axis=1)
    angles = np.full((len(g), m), np.nan)
    angles[real] = np.sort(np.arccos(x[real].real), axis=1)
    return angles


def _block_to_lsf(coeffs: np.ndarray) -> np.ndarray:
    """LSF rows of a block of frames; a frame that fails a check is a NaN row."""
    # non-finite coefficients give non-finite forms, and so may huge finite
    # ones by overflow; such a frame reaches no solver and stays NaN
    with np.errstate(over="ignore", invalid="ignore"):
        g = _cosine_forms(coeffs)
    finite = np.all(np.isfinite(g).reshape(len(coeffs), -1), axis=1)
    solve = np.repeat(finite, 2)  # rows 2f and 2f + 1 of g are frame f's
    angles = np.full((len(g), g.shape[1] - 1), np.nan)
    angles[solve] = _cosine_roots(g[solve])
    omegas_p, omegas_q = angles[0::2], angles[1::2]
    lsf = np.empty(coeffs.shape)
    lsf[:, 0::2] = omegas_p
    lsf[:, 1::2] = omegas_q
    valid = (np.all(omegas_p < omegas_q, axis=1)  # P and Q roots interleave
             & np.all(omegas_q[:, :-1] < omegas_p[:, 1:], axis=1)
             & _ascending_rows(lsf))
    lsf[~valid] = np.nan
    return lsf


def lpc_to_lsf(lpc):
    """Line spectral frequencies of stable even-order predictors, ascending.

    `lpc` is one LpcFrame, or the (frames, order) predictor coefficients of
    a track.  One frame gives its LSF vector and raises LsfConversionError
    when it has none.  A track gives a (frames, order) array in which every
    frame without a valid LSF vector is a row of NaN.
    """
    single = isinstance(lpc, LpcFrame)
    coeffs = np.asarray(lpc.coefficients if single else lpc, dtype=np.float64)
    coeffs = coeffs.reshape(1, -1) if single else coeffs
    if coeffs.ndim != 2:
        raise ValueError(f"expected a (frames, order) array, got shape {coeffs.shape}")
    _check_order(coeffs.shape[1])
    lsf = np.empty(coeffs.shape)
    for start in range(0, len(coeffs), _BLOCK_FRAMES):
        block = slice(start, start + _BLOCK_FRAMES)
        lsf[block] = _block_to_lsf(coeffs[block])
    if not single:
        return lsf
    if np.isnan(lsf[0, 0]):
        raise LsfConversionError(
            "no valid LSF vector: the filter is unstable or not finite, "
            "or its root angles do not interleave")
    return lsf[0]


def lsf_to_lpc(lsf, gain: float = 1.0):
    """Rebuild predictors from ascending line spectral frequencies.

    One LSF vector gives an LpcFrame carrying `gain`; a (frames, order)
    track gives the (frames, order) predictor coefficients.  Even positions
    (0-based) of an ascending vector belong to the palindromic polynomial,
    odd positions to the antipalindromic one.
    """
    omegas = np.asarray(lsf, dtype=np.float64)
    rows = omegas.reshape(1, -1) if omegas.ndim == 1 else omegas
    if rows.ndim != 2:
        raise ValueError(f"expected an LSF vector or track, got shape {omegas.shape}")
    n, p = rows.shape
    _check_order(p)
    bad = np.flatnonzero(~_ascending_rows(rows))
    if len(bad):
        raise ValueError(f"LSF vector {bad[0]} must be strictly ascending in (0, pi)")

    def expand(angles, trivial):
        # multiply in each factor 1 - 2 cos(w) z^-1 + z^-2
        poly = np.tile(trivial, (n, 1))
        for b in (-2.0 * np.cos(angles)).T:
            prev = poly
            poly = np.zeros((n, prev.shape[1] + 2))
            poly[:, 2:] = prev
            poly[:, 1:-1] += b[:, None] * prev
            poly[:, :-2] += prev
        return poly

    psum = expand(rows[:, 0::2], [1.0, 1.0])
    qdiff = expand(rows[:, 1::2], [1.0, -1.0])
    coeffs = -0.5 * (psum + qdiff)[:, 1:p + 1]  # degree p+1; trailing ~0
    if omegas.ndim == 1:
        return LpcFrame(coefficients=coeffs[0], gain=float(gain))
    return coeffs


def _ascending_rows(om: np.ndarray) -> np.ndarray:
    """Per row: finite, strictly ascending and inside (0, pi)."""
    return (np.all(np.isfinite(om), axis=1) & (om[:, 0] > 0.0)
            & (om[:, -1] < np.pi) & np.all(np.diff(om, axis=1) > 0.0, axis=1))


def validate_lsf(omegas) -> bool:
    """True iff strictly ascending and inside the open interval (0, pi)."""
    om = np.asarray(omegas, dtype=np.float64)
    if om.ndim != 1 or len(om) == 0:
        return False
    return bool(_ascending_rows(om.reshape(1, -1))[0])


def rectify_lsf(raw) -> np.ndarray:
    """Force an arbitrary real vector, or each row of a track, into a valid
    LSF vector.

    Clamps into [MIN_GAP, pi - MIN_GAP], sorts, then sweeps forward pushing
    each value at least MIN_GAP above its predecessor; where the forward
    sweep overshoots the upper bound a backward sweep pulls values down.
    Each sweep runs column by column over all rows.  Total and idempotent.
    """
    x = np.asarray(raw, dtype=np.float64)
    x = np.where(np.isfinite(x), x, 0.5 * np.pi)
    x = np.sort(np.clip(x, MIN_GAP, np.pi - MIN_GAP))
    rows = np.atleast_2d(x)  # a view: sweeps write through to x
    for i in range(1, rows.shape[1]):
        rows[:, i] = np.maximum(rows[:, i], rows[:, i - 1] + MIN_GAP)
    over = np.any(rows[:, -1:] > np.pi - MIN_GAP, axis=1)
    np.minimum(rows[:, -1:], np.pi - MIN_GAP, out=rows[:, -1:])
    for i in range(rows.shape[1] - 2, -1, -1):
        np.minimum(rows[:, i], rows[:, i + 1] - MIN_GAP, out=rows[:, i],
                   where=over)
    return x
