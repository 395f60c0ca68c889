"""Matrix-valued tap sequences, their transforms and Gram spectra, and the rank check.

A tap sequence is a finite matrix-valued impulse response: one matrix per
integer delay on a contiguous range.  Everything downstream (channels,
combiners, effective responses) is a tap sequence, so the transforms here
carry explicit delay offsets instead of assuming causal indexing.  A tap
sequence may carry leading axes, one sequence per index (the realizations
of a chunk), which the DFT, the Gram and the rank check keep.  The rank
check raises nothing: ``first_rank_deficient`` reports, per sequence, the
first subcarrier that fails it, so a caller can drop the failing sequences
of a stack and keep the rest.  ``ldl_pivots`` is the one factorization
behind the log-det rates of ``metrics``, their singular-noise mask and the
rank screen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative threshold of the rank check: the smallest singular value must
# exceed this fraction of the largest.
SINGULARITY_RTOL = 1e-10
# Gram screen of the rank check, relative to the scale
# ``s = span * trace(R_0) = span * sum_i ||A_i||_F^2`` of the tap sequence.
# A subcarrier passes when every pivot of ``G(k) - GRAM_SCREEN_RTOL * s * I``
# is positive: that is Cholesky's test, and the pivots of a Hermitian matrix
# are positive exactly when it is positive definite, so up to the
# factorization's backward error of ``O(n^2 * eps * s)`` a passing Gram has
# ``lambda_min > GRAM_SCREEN_RTOL * s``.  By Cauchy-Schwarz ``s`` bounds
# ``||A(k)||^2`` on every subcarrier, and it bounds the error of the Gram
# however it is formed: the lag products of ``gram_spectrum`` and the
# product of a DFT both err by about ``rows * eps * s``.  A passing
# subcarrier therefore has a true ``sigma_min^2`` of about
# ``GRAM_SCREEN_RTOL * s`` or more, so ``sigma_min / sigma_max`` is about
# 1e-4 or more, far above ``SINGULARITY_RTOL`` and the roundoff of the
# computed ``A(k)``: it passes the SVD test.  The scale must not be
# ``lambda_max(k)``: where ``A(k)`` nearly vanishes (taps ``[a, -a]`` at
# ``k = 0``) the lag-formed Gram is roundoff of size ``eps * s``, and its
# ``lambda_min`` can pass against a ``lambda_max`` of the same size.
GRAM_SCREEN_RTOL = 1e-8
# Largest matrix order whose log-det rates come from ``ldl_pivots``.  The
# unrolled factorization repeats its ``O(n^3)`` Python-level steps at every
# SNR point while ``eigvalsh`` runs once per matrix, so the pivots win only
# on small matrices; larger orders take the eigenvalue path.
LDL_MAX_ORDER = 7


class SingularMatrixError(np.linalg.LinAlgError):
    """A matrix required to be invertible is rank deficient within tolerance."""

    def __init__(self, message: str, subcarrier: int | None = None):
        super().__init__(message)
        self.subcarrier = subcarrier


@dataclass
class TapSequence:
    """Matrices on a contiguous delay range ``offset .. offset + span - 1``.

    ``taps[..., i, :, :]`` is the matrix at delay ``offset + i``; all taps
    share one shape.  The sequence is zero outside the stored range.  Axes
    before the delay axis, if any, index sequences that share the delays.
    """

    offset: int
    taps: np.ndarray

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=complex)
        if taps.ndim < 3 or taps.shape[-3] < 1:
            raise ValueError("taps must be (..., n_taps, rows, cols) with n_taps >= 1")
        if not np.all(np.isfinite(taps)):
            raise ValueError("taps contain non-finite entries")
        self.taps = taps
        self.offset = int(self.offset)

    @classmethod
    def stack(cls, seqs) -> "TapSequence":
        """One sequence with a leading axis over ``seqs``, which share offset and shape."""
        offsets = {seq.offset for seq in seqs}
        if len(offsets) != 1:
            raise ValueError(f"stacked sequences need one offset, got {sorted(offsets)}")
        return cls(offsets.pop(), np.stack([seq.taps for seq in seqs]))

    def __getitem__(self, index) -> "TapSequence":
        """The sequences at ``index`` of the leading axes."""
        return TapSequence(self.offset, self.taps[index])

    @property
    def span(self) -> int:
        return self.taps.shape[-3]

    @property
    def shape(self) -> tuple[int, int]:
        return self.taps.shape[-2], self.taps.shape[-1]

    @property
    def delays(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + self.span)

    def tap(self, delay: int) -> np.ndarray:
        """Matrix at a given delay, zero outside the stored range."""
        if self.offset <= delay < self.offset + self.span:
            return self.taps[..., delay - self.offset, :, :]
        return np.zeros(self.taps.shape[:-3] + self.shape, dtype=complex)


def dft_of_taps(seq: TapSequence, num_subcarriers: int) -> np.ndarray:
    """Per-subcarrier frequency response of a tap sequence.

    Returns a ``(..., num_subcarriers, rows, cols)`` array whose slice ``k``
    is ``sum_n taps(n) * exp(-2j*pi*n*k/K)``.  The grid must be long enough
    to hold the sequence without wrap-around.
    """
    k = int(num_subcarriers)
    if k < 1:
        raise ValueError("num_subcarriers must be positive")
    if k < seq.span:
        raise ValueError(
            f"spectral aliasing: {seq.span} taps do not fit on a {k}-point grid"
        )
    lead = seq.taps.shape[:-3]
    phases = np.exp(-2j * np.pi * np.outer(seq.delays, np.arange(k)) / k)
    flat = seq.taps.reshape(*lead, seq.span, -1)
    return (phases.T @ flat).reshape(*lead, k, *seq.shape)


def gram_spectrum(seq: TapSequence, num_subcarriers: int) -> np.ndarray:
    """``A(k)^H A(k)`` on every subcarrier, ``A(k)`` the frequency response of ``seq``.

    Returns a ``(..., num_subcarriers, cols, cols)`` array formed from the
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
    lead = taps.shape[:-3]
    adjoint = np.conj(np.swapaxes(taps, -1, -2))
    lags = np.zeros((*lead, 2 * span - 1, cols, cols), dtype=complex)
    for i in range(span):
        # tap i against every tap j is lag j - i, stored at j - i + span - 1
        lags[..., span - 1 - i : 2 * span - 1 - i, :, :] += adjoint[..., i : i + 1, :, :] @ taps
    turns = np.outer(np.arange(k), np.arange(1 - span, span)) % k
    phases = np.exp(-2j * np.pi * turns / k)
    flat = lags.reshape(*lead, 2 * span - 1, -1)
    return (phases @ flat).reshape(*lead, k, cols, cols)


def circular_convolve(a: TapSequence, b: TapSequence, num_subcarriers: int) -> TapSequence:
    """Matrix convolution of two tap sequences without leading axes.

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


def ldl_pivots(mat: np.ndarray, snrs=None, base: np.ndarray | None = None) -> np.ndarray:
    """Pivots ``d`` of the ``L D L^H`` factorization of Hermitian matrices.

    ``mat`` is a ``(..., n, n)`` stack read through its lower triangle.
    Without ``snrs`` the result is the ``(..., n)`` pivots of ``mat`` itself;
    with them it is the ``(len(snrs), ..., n)`` pivots of
    ``base + snr * mat`` for each ``snr``, ``base`` defaulting to the
    identity.  The product of the pivots is the determinant, and they are
    all positive exactly when the matrix is positive definite.  The
    elimination is unrolled over the ``n^2`` entries, each step one
    operation on the whole stack, and it never pivots: after a pivot that
    is not positive the later ones are meaningless (possibly NaN), which
    still leaves that matrix with a pivot that is not positive.
    """
    m = np.asarray(mat)
    n = m.shape[-1]
    lower = [(i, j) for i in range(n) for j in range(i + 1)]
    grid = [None] if snrs is None else [float(snr) for snr in snrs]
    pivots = np.empty((len(grid), *m.shape[:-2], n))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for p, snr in enumerate(grid):
            a = {}
            for i, j in lower:
                entry = m[..., i, j].real if i == j else m[..., i, j]
                if snr is not None:
                    entry = snr * entry
                    if base is not None:
                        entry = entry + (base[..., i, j].real if i == j else base[..., i, j])
                    elif i == j:
                        entry = entry + 1.0
                a[i, j] = entry
            for j in range(n):
                d = a[j, j]
                pivots[p, ..., j] = d
                for i in range(j + 1, n):
                    ratio = a[i, j] / d
                    a[i, i] = a[i, i] - (ratio * np.conj(a[i, j])).real
                    for c in range(j + 1, i):
                        a[i, c] = a[i, c] - ratio * np.conj(a[c, j])
    return pivots[0] if snrs is None else pivots


def _rank_deficient(mat: np.ndarray) -> np.ndarray:
    """The SVD test per matrix of a stack: all zero, or ``sigma_min < SINGULARITY_RTOL * sigma_max``."""
    singvals = np.linalg.svd(mat, compute_uv=False)
    return (singvals[..., 0] == 0.0) | (singvals[..., -1] < SINGULARITY_RTOL * singvals[..., 0])


def first_rank_deficient(
    seq: TapSequence, num_subcarriers: int, gram: np.ndarray | None = None
) -> np.ndarray:
    """For every sequence of the leading axes of ``seq``, the first subcarrier
    on which its frequency response loses full column rank, or -1.

    The result has the leading axes' shape.  The test is the SVD's on
    ``A(k) = dft_of_taps(seq, num_subcarriers)[k]``: the smallest singular
    value must exceed ``SINGULARITY_RTOL`` times the largest.  ``gram``, the
    ``(..., K, cols, cols)`` stack of ``A(k)^H A(k)``, screens first: a
    subcarrier passes without an SVD when ``gram`` minus
    ``GRAM_SCREEN_RTOL * span * trace(R_0)`` times the identity has only
    positive pivots.  That factors each matrix once, so it reads
    ``ldl_pivots`` at every order.  The rest get an SVD, on the full-grid DFT
    of their own sequence, so every decision is the SVD test's on the same
    ``A(k)`` whatever the screen doubted.
    """
    rows, cols = seq.shape
    if rows < cols:
        raise ValueError("full column rank needs a tall matrix (rows >= cols)")
    k = int(num_subcarriers)
    lead = seq.taps.shape[:-3]
    if gram is None:
        doubted = np.ones((*lead, k), dtype=bool)
    else:
        scale = seq.span * np.sum(np.abs(seq.taps) ** 2, axis=(-3, -2, -1))
        shift = (GRAM_SCREEN_RTOL * scale)[..., None, None, None] * np.eye(cols)
        doubted = ~np.all(ldl_pivots(np.asarray(gram) - shift) > 0.0, axis=-1)
    first = np.full(lead, -1)
    for index in np.ndindex(*lead):
        suspect = np.flatnonzero(doubted[index])
        if suspect.size == 0:
            continue
        bad = _rank_deficient(dft_of_taps(seq[index], k)[suspect])
        if np.any(bad):
            first[index] = suspect[np.argmax(bad)]
    return first
