"""Matrix-valued tap sequences, their transforms, the rank check and the pseudoinverse.

A tap sequence is a finite matrix-valued impulse response: one matrix per
integer delay on a contiguous range.  Everything downstream (channels,
combiners, effective responses) is a tap sequence, so the transforms here
carry explicit delay offsets instead of assuming causal indexing.  Log-dets
live in ``metrics.spectral_rates``, the one rate kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative threshold of the rank check: the smallest singular value must
# exceed this fraction of the largest.
SINGULARITY_RTOL = 1e-10
# Gram-eigenvalue screen of the rank check.  Forming ``A^H A`` (error about
# rows * eps * sigma_max^2) and ``eigvalsh`` (about eps * lambda_max) cannot
# lift ``lambda_min`` past this fraction of ``lambda_max`` unless the true
# ``sigma_min / sigma_max`` is about 1e-4 or more, far above
# ``SINGULARITY_RTOL``; so a matrix passing the screen passes the SVD test.
GRAM_SCREEN_RTOL = 1e-8


class SingularMatrixError(np.linalg.LinAlgError):
    """A matrix required to be invertible is rank deficient within tolerance."""

    def __init__(self, message: str, subcarrier: int | None = None):
        super().__init__(message)
        self.subcarrier = subcarrier


@dataclass
class TapSequence:
    """Matrices on a contiguous delay range ``offset .. offset + span - 1``.

    ``taps[i]`` is the matrix at delay ``offset + i``; all taps share one
    shape.  The sequence is zero outside the stored range.
    """

    offset: int
    taps: np.ndarray

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=complex)
        if taps.ndim != 3 or taps.shape[0] < 1:
            raise ValueError("taps must be (n_taps, rows, cols) with n_taps >= 1")
        if not np.all(np.isfinite(taps)):
            raise ValueError("taps contain non-finite entries")
        self.taps = taps
        self.offset = int(self.offset)

    @property
    def span(self) -> int:
        return self.taps.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.taps.shape[1], self.taps.shape[2]

    @property
    def delays(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + self.span)

    def tap(self, delay: int) -> np.ndarray:
        """Matrix at a given delay, zero outside the stored range."""
        if self.offset <= delay < self.offset + self.span:
            return self.taps[delay - self.offset]
        return np.zeros(self.shape, dtype=complex)


def dft_of_taps(seq: TapSequence, num_subcarriers: int) -> np.ndarray:
    """Per-subcarrier frequency response of a tap sequence.

    Returns a ``(num_subcarriers, rows, cols)`` array whose slice ``k`` is
    ``sum_n taps(n) * exp(-2j*pi*n*k/K)``.  The grid must be long enough to
    hold the sequence without wrap-around.
    """
    k = int(num_subcarriers)
    if k < 1:
        raise ValueError("num_subcarriers must be positive")
    if k < seq.span:
        raise ValueError(
            f"spectral aliasing: {seq.span} taps do not fit on a {k}-point grid"
        )
    phases = np.exp(-2j * np.pi * np.outer(seq.delays, np.arange(k)) / k)
    return (phases.T @ seq.taps.reshape(seq.span, -1)).reshape(k, *seq.shape)


def circular_convolve(a: TapSequence, b: TapSequence, num_subcarriers: int) -> TapSequence:
    """Matrix convolution of two tap sequences.

    Tap ``n`` of the result is ``sum_m a(m) @ b(n - m)``; offsets add.  The
    grid length only validates that the combined span fits without aliasing,
    so the result's spectrum is the entrywise product of the operands'.
    """
    rows_a, cols_a = a.shape
    rows_b, cols_b = b.shape
    if cols_a != rows_b:
        raise ValueError(
            f"dimension mismatch: ({rows_a}x{cols_a}) taps cannot multiply ({rows_b}x{cols_b}) taps"
        )
    out_span = a.span + b.span - 1
    if int(num_subcarriers) < out_span:
        raise ValueError(
            f"spectral aliasing: convolution spans {out_span} taps on a {int(num_subcarriers)}-point grid"
        )
    out = np.zeros((out_span, rows_a, cols_b), dtype=complex)
    for i in range(a.span):
        out[i : i + b.span] += a.taps[i] @ b.taps
    return TapSequence(a.offset + b.offset, out)


def gram_eigvals(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of ``A^H A`` for every matrix ``A`` of a ``(..., rows, cols)`` stack."""
    m = np.asarray(mat, dtype=complex)
    return np.linalg.eigvalsh(np.conj(np.swapaxes(m, -1, -2)) @ m)


def require_full_column_rank(mat: np.ndarray, gram: np.ndarray | None = None) -> None:
    """Raise ``SingularMatrixError`` unless every matrix of a stack has full column rank.

    ``mat`` is ``(rows, cols)`` or ``(..., rows, cols)``.  The test is the
    SVD's: the smallest singular value must exceed ``SINGULARITY_RTOL``
    times the largest.  ``gram``, the ascending ``gram_eigvals`` of
    ``mat``, screens first: a matrix with ``lambda_min > GRAM_SCREEN_RTOL *
    lambda_max`` passes without an SVD, and only the rest are decomposed,
    so every decision is the SVD test's.  For a stack, the error's
    ``subcarrier`` is the flat index of the first rank-deficient matrix.
    """
    m = np.asarray(mat, dtype=complex)
    if m.ndim < 2 or m.shape[-2] < m.shape[-1]:
        raise ValueError("full column rank needs a tall matrix (rows >= cols)")
    if gram is None:
        suspect = np.ones(m.shape[:-2], dtype=bool)
    else:
        lam = np.asarray(gram, dtype=float)
        suspect = ~(lam[..., 0] > GRAM_SCREEN_RTOL * lam[..., -1])
    if not np.any(suspect):
        return
    singvals = np.linalg.svd(m[suspect], compute_uv=False)
    bad = (singvals[..., 0] == 0.0) | (singvals[..., -1] < SINGULARITY_RTOL * singvals[..., 0])
    if np.any(bad):
        first = int(np.flatnonzero(suspect)[np.flatnonzero(bad)[0]]) if m.ndim > 2 else None
        raise SingularMatrixError("singular channel: matrix is rank deficient", subcarrier=first)


def pinv_tall(mat: np.ndarray) -> np.ndarray:
    """Left pseudoinverse of a tall full-column-rank matrix, or of a stack of them.

    ``mat`` is ``(rows, cols)`` or ``(..., rows, cols)``; the result has the
    last two axes swapped.  ``require_full_column_rank`` checks every rank
    with one batched SVD, and one batched solve of the normal equations
    gives every inverse.  For a stack, the raised
    ``SingularMatrixError.subcarrier`` is the flat index of the first
    rank-deficient matrix.
    """
    m = np.asarray(mat, dtype=complex)
    if m.ndim < 2 or m.shape[-2] < m.shape[-1]:
        raise ValueError("pinv_tall expects a tall matrix (rows >= cols)")
    require_full_column_rank(m)
    adjoint = np.conj(np.swapaxes(m, -1, -2))
    return np.linalg.solve(adjoint @ m, adjoint)
