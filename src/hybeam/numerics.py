"""Matrix-valued tap sequences, their transforms and Gram spectra, and the rank check.

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
# Gram-eigenvalue screen of the rank check, relative to the scale
# ``s = span * trace(R_0) = span * sum_i ||A_i||_F^2`` of the tap sequence.
# By Cauchy-Schwarz ``s`` bounds ``||A(k)||^2`` on every subcarrier, and it
# bounds the error of the Gram however it is formed: the lag products of
# ``gram_spectrum`` and the product of a DFT both err by about
# ``rows * eps * s``, and ``eigvalsh`` adds about ``eps * s``.  A subcarrier
# with ``lambda_min > GRAM_SCREEN_RTOL * s`` therefore has a true
# ``sigma_min^2`` of about ``GRAM_SCREEN_RTOL * s`` or more, so
# ``sigma_min / sigma_max`` is about 1e-4 or more, far above
# ``SINGULARITY_RTOL`` and the roundoff of the computed ``A(k)``: it passes
# the SVD test.  The scale must not be ``lambda_max(k)``: where ``A(k)``
# nearly vanishes (taps ``[a, -a]`` at ``k = 0``) the lag-formed Gram is
# roundoff of size ``eps * s``, and its ``lambda_min`` can pass against a
# ``lambda_max`` of the same size.
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


def dft_of_taps(
    seq: TapSequence, num_subcarriers: int, subcarriers: np.ndarray | None = None
) -> np.ndarray:
    """Per-subcarrier frequency response of a tap sequence.

    Returns a ``(num_subcarriers, rows, cols)`` array whose slice ``k`` is
    ``sum_n taps(n) * exp(-2j*pi*n*k/K)``, or only the slices listed in
    ``subcarriers``.  The grid must be long enough to hold the sequence
    without wrap-around.
    """
    k = int(num_subcarriers)
    if k < 1:
        raise ValueError("num_subcarriers must be positive")
    if k < seq.span:
        raise ValueError(
            f"spectral aliasing: {seq.span} taps do not fit on a {k}-point grid"
        )
    bins = np.arange(k) if subcarriers is None else np.asarray(subcarriers)
    phases = np.exp(-2j * np.pi * np.outer(seq.delays, bins) / k)
    return (phases.T @ seq.taps.reshape(seq.span, -1)).reshape(bins.size, *seq.shape)


def gram_spectrum(seq: TapSequence, num_subcarriers: int) -> np.ndarray:
    """``A(k)^H A(k)`` on every subcarrier, ``A(k)`` the frequency response of ``seq``.

    Returns a ``(num_subcarriers, cols, cols)`` array formed from the
    ``2S - 1`` lag products ``R_d = sum_i A_i^H A_{i+d}`` of the ``S`` taps:
    the Gram at ``k`` is ``sum_d R_d exp(-2j*pi*d*k/K)``, and the offset
    cancels.  That sum samples a trigonometric polynomial, so it is exact on
    any grid, one shorter than the sequence included.
    """
    k = int(num_subcarriers)
    if k < 1:
        raise ValueError("num_subcarriers must be positive")
    span = seq.span
    cols = seq.shape[1]
    taps = seq.taps
    adjoint = np.conj(np.swapaxes(taps, -1, -2))
    lags = np.zeros((2 * span - 1, cols, cols), dtype=complex)
    for i in range(span):
        # tap i against every tap j is lag j - i, stored at j - i + span - 1
        lags[span - 1 - i : 2 * span - 1 - i] += adjoint[i] @ taps
    turns = np.outer(np.arange(k), np.arange(1 - span, span)) % k
    phases = np.exp(-2j * np.pi * turns / k)
    return (phases @ lags.reshape(2 * span - 1, -1)).reshape(k, cols, cols)


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


def _rank_deficient(mat: np.ndarray) -> np.ndarray:
    """The SVD test per matrix of a stack: all zero, or ``sigma_min < SINGULARITY_RTOL * sigma_max``."""
    singvals = np.linalg.svd(mat, compute_uv=False)
    return (singvals[..., 0] == 0.0) | (singvals[..., -1] < SINGULARITY_RTOL * singvals[..., 0])


def require_full_column_rank(
    seq: TapSequence, num_subcarriers: int, gram: np.ndarray | None = None
) -> None:
    """Raise ``SingularMatrixError`` unless the frequency response of ``seq``
    has full column rank on every subcarrier.

    The test is the SVD's on ``A(k) = dft_of_taps(seq, num_subcarriers)[k]``:
    the smallest singular value must exceed ``SINGULARITY_RTOL`` times the
    largest.  ``gram``, the ``(K, cols)`` ascending eigenvalues of
    ``A(k)^H A(k)``, screens first: a subcarrier with ``lambda_min >
    GRAM_SCREEN_RTOL * span * trace(R_0)`` passes without an SVD, and only
    the rest get a DFT, evaluated at those subcarriers alone, and an SVD; so
    every decision is the SVD test's.  The error's ``subcarrier`` is the
    first rank-deficient one.
    """
    rows, cols = seq.shape
    if rows < cols:
        raise ValueError("full column rank needs a tall matrix (rows >= cols)")
    k = int(num_subcarriers)
    if gram is None:
        suspect = np.arange(k)
    else:
        scale = seq.span * np.vdot(seq.taps, seq.taps).real
        suspect = np.flatnonzero(~(np.asarray(gram)[:, 0] > GRAM_SCREEN_RTOL * scale))
    if suspect.size == 0:
        return
    bad = _rank_deficient(dft_of_taps(seq, k, suspect))
    if np.any(bad):
        first = int(suspect[np.flatnonzero(bad)[0]])
        raise SingularMatrixError(f"singular channel at subcarrier {first}", subcarrier=first)

