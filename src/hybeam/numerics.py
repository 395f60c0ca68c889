"""Matrix-valued tap sequences, their transforms and Gram spectra, and the rank check.

A tap sequence is a finite matrix-valued impulse response: one matrix per
integer delay on a contiguous range.  Everything downstream (channels,
combiners, effective responses) is a tap sequence, so the transforms here
carry explicit delay offsets instead of assuming causal indexing.  A tap
sequence may carry leading axes, one sequence per index (the realizations
of a chunk), which the DFT, the Gram and the rank check keep.  The rank
check raises nothing: ``first_rank_deficient`` reports, per sequence, the
first subcarrier that fails it, so a caller can drop the failing sequences
of a stack and keep the rest.  The log-det rates of ``metrics`` read
``tridiagonalize``, an unrolled kernel whose every step is one operation on
a whole stack: it reduces each Hermitian matrix once, after which
``det(I + snr * T)`` and ``det(I + snr * T^2)`` for a whole SNR grid, and
the inertia that the rank screen reads, are ``O(n)`` recurrences
(``Tridiagonal``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

# Relative threshold of the rank check: the smallest singular value must
# exceed this fraction of a reference, the square root of the sequence's
# scale ``s`` (below) for ``first_rank_deficient`` and the largest singular
# value of the same matrix for ``zf_spectrum``, which has no taps.  Against
# its own largest singular value a response that has vanished to roundoff
# (taps ``[a, -2a, a]`` at ``k = 0``) would pass.
SINGULARITY_RTOL = 1e-10
# Gram screen of the rank check, relative to the scale
# ``s = span * trace(R_0) = span * sum_i ||A_i||_F^2`` of the tap sequence.
# A subcarrier passes when every pivot of ``T - GRAM_SCREEN_RTOL * s * I``
# is positive, ``T`` the tridiagonal to which ``G(k)`` reduces (or its
# eigenvalues): the pivots of a Hermitian matrix are positive exactly when
# it is positive definite, and ``T`` is unitarily similar to ``G(k)``.  So
# up to the backward error of the reduction, ``O(n^2 * eps * s)``, a passing Gram
# has ``lambda_min > GRAM_SCREEN_RTOL * s``.  By Cauchy-Schwarz ``s`` bounds
# ``||A(k)||^2`` on every subcarrier, and it bounds the error of the Gram
# however it is formed: the lag products of ``gram_of_lags`` and the
# product of a DFT both err by about ``rows * eps * s``.  A passing
# subcarrier therefore has a true ``sigma_min^2`` of about
# ``GRAM_SCREEN_RTOL * s`` or more, so ``sigma_min / sqrt(s)`` is about
# 1e-4 or more, far above ``SINGULARITY_RTOL`` and the roundoff of the
# computed ``A(k)``: it passes the SVD test.  The scale must not be
# ``lambda_max(k)``: where ``A(k)`` nearly vanishes (taps ``[a, -a]`` at
# ``k = 0``) the lag-formed Gram is roundoff of size ``eps * s``, and its
# ``lambda_min`` can pass against a ``lambda_max`` of the same size.
GRAM_SCREEN_RTOL = 1e-8
# Largest matrix order that ``metrics.hermitian_reduction``, the only code
# that reads this bound, reduces with the unrolled ``tridiagonalize``; larger
# orders take the eigenvalues of ``eigvalsh``.  Both read the whole SNR grid
# from one reduction per matrix, but the unrolled one costs ``O(n^3)``
# Python-level steps on the whole stack.  Timed on fig2 and fig8 at
# U = 6..12 (and fig2 at 14, 16 and 20), it was faster at every order, by a
# margin that narrows from about 45% to 10% at U = 20, so no crossover was
# found.  The bound is 12, the largest order timed on both presets, so that
# nothing above it takes the unrolled path untimed on fig8; the kernel's
# property tests run every order up to it.
LDL_MAX_ORDER = 12


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


@cache
def _lag_phases(num_subcarriers: int, span: int) -> np.ndarray:
    """``exp(-2j*pi*d*k/K)`` for ``k < K`` and lags ``|d| < span``, ascending."""
    turns = np.outer(np.arange(num_subcarriers), np.arange(1 - span, span)) % num_subcarriers
    return np.exp(-2j * np.pi * turns / num_subcarriers)


def lag_products(seq: TapSequence) -> np.ndarray:
    """The ``2S - 1`` lag products ``R_d = sum_i A_i^H A_{i+d}`` of the ``S`` taps of ``seq``.

    Returns a ``(..., 2S - 1, cols, cols)`` array, lags ``d = 1 - S .. S - 1``
    ascending.  One product ``X^H X`` of the taps side by side,
    ``X = [A_0 ... A_{S-1}]``, holds every ``A_i^H A_j``.
    """
    span = seq.span
    rows, cols = seq.shape
    lead = seq.taps.shape[:-3]
    side_by_side = np.moveaxis(seq.taps, -3, -2).reshape(*lead, rows, span * cols)
    products = np.conj(np.swapaxes(side_by_side, -1, -2)) @ side_by_side
    # (..., i, j, u, v): block (i, j) is A_i^H A_j
    products = np.swapaxes(products.reshape(*lead, span, cols, span, cols), -3, -2)
    lags = np.zeros((*lead, 2 * span - 1, cols, cols), dtype=complex)
    for i in range(span):
        # tap i against every tap j is lag j - i, stored at j - i + span - 1
        lags[..., span - 1 - i : 2 * span - 1 - i, :, :] += products[..., i, :, :, :]
    return lags


def gram_of_lags(lags: np.ndarray, num_subcarriers: int) -> np.ndarray:
    """The Gram ``sum_d R_d exp(-2j*pi*d*k/K)`` on every subcarrier, from ``lag_products``.

    ``lags`` is ``(..., 2S - 1, cols, cols)`` and the result
    ``(..., num_subcarriers, cols, cols)``.  The sum samples a trigonometric
    polynomial, so it is exact on any grid, one shorter than the sequence
    included.
    """
    k = int(num_subcarriers)
    if k < 1:
        raise ValueError("num_subcarriers must be positive")
    *lead, count, cols, _ = lags.shape
    flat = lags.reshape(*lead, count, cols * cols)
    phases = _lag_phases(k, (count + 1) // 2)
    return np.matmul(phases, flat).reshape(*lead, k, cols, cols)


def circular_convolve(a: TapSequence, b: TapSequence, num_subcarriers: int) -> TapSequence:
    """Matrix convolution of two tap sequences, whose leading axes broadcast.

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
    lead = np.broadcast_shapes(a.taps.shape[:-3], b.taps.shape[:-3])
    out = np.zeros((*lead, out_span, rows_a, cols_b), dtype=complex)
    for i in range(a.span):
        out[..., i : i + b.span, :, :] += a.taps[..., i : i + 1, :, :] @ b.taps
    return TapSequence(a.offset + b.offset, out)


def _lower_entries(m: np.ndarray) -> dict:
    """The lower triangle of a Hermitian stack, one ``(i, j)`` entry per key; the diagonal real."""
    n = m.shape[-1]
    return {(i, j): m[..., i, j].real if i == j else m[..., i, j] for i in range(n) for j in range(i + 1)}


@dataclass(frozen=True)
class Tridiagonal:
    """Real symmetric tridiagonal matrices, one per index of the leading axes.

    Entry first: ``diag[i]`` is the ``i``-th diagonal entry of every matrix
    (``diag`` is ``(n, ...)``) and ``off2[i]`` the squared magnitude of the
    entry below it (``off2`` is ``(n - 1, ...)``), all that the pivots and
    the determinants read.  A diagonal matrix has ``off2`` all zero.
    """

    diag: np.ndarray
    off2: np.ndarray

    def __getitem__(self, index) -> "Tridiagonal":
        """The matrices at ``index`` of the leading axes."""
        index = (slice(None), *(index if isinstance(index, tuple) else (index,)))
        return Tridiagonal(self.diag[index], self.off2[index])

    def _pivots(self, scale, shift):
        """Pivots of ``shift * I + scale * T``, one array per row, made one at a time.

        ``scale`` and ``shift`` broadcast against the leading axes, which
        they may extend on the left.  The recurrence is
        ``d_i = shift + scale * a_i - scale^2 * b_{i-1}^2 / d_{i-1}``: all
        pivots are positive exactly when the matrix is positive definite,
        and after one that is not the rest are meaningless.
        """
        scale = np.asarray(scale, dtype=float)
        d = shift + scale * self.diag[0]
        for i in range(1, len(self.diag)):
            yield d
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                d = shift + scale * self.diag[i] - (scale * scale) * self.off2[i - 1] / d
        yield d

    def positive_definite(self, shift) -> np.ndarray:
        """Whether ``T + shift * I`` is positive definite: all its pivots are positive."""
        pivots = self._pivots(1.0, shift)
        positive = next(pivots) > 0.0
        for pivot in pivots:
            positive &= pivot > 0.0
        return positive

    def log2dets(self, snrs) -> np.ndarray:
        """``log2 det(I + snr * T)`` for every linear SNR: ``(len(snrs), ...)``.

        The determinant is the product of the pivots (``_log2_product``).
        """
        snr = np.asarray(snrs, dtype=float).reshape(-1, *(1,) * (self.diag.ndim - 1))
        return _log2_product(lambda: self._pivots(snr, 1.0))

    def log2dets_of_square(self, snrs) -> np.ndarray:
        """``log2 det(I + snr * T^2)`` for every linear SNR: ``(len(snrs), ...)``.

        ``I + snr T^2 = (I + i c T)(I - i c T)`` for ``c = sqrt(snr)``, and
        the two factors are conjugate, so the determinant is
        ``|det(I + i c T)|^2``: the product of ``|d_i|^2`` over the pivots
        ``d_i = 1 + i c a_i + snr b_{i-1}^2 / d_{i-1}`` of ``_pivots``'
        recurrence with an imaginary scale, run on the real part ``x_i`` and
        the imaginary part ``y_i``.  Every ``x_i`` is at least 1, so the
        recurrence cannot break down.
        """
        snr = np.asarray(snrs, dtype=float).reshape(-1, *(1,) * (self.diag.ndim - 1))

        def magnitudes():
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                root = np.sqrt(snr)
                x, y = 1.0, root * self.diag[0]
                magnitude = 1.0 + y * y
            for i in range(1, len(self.diag)):
                yield magnitude
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    # snr b^2 / d = gain * (x - i y) for gain = snr b^2 / |d|^2
                    gain = snr * self.off2[i - 1] / magnitude
                    x, y = 1.0 + gain * x, root * self.diag[i] - gain * y
                    magnitude = x * x + y * y
            yield magnitude

        return _log2_product(magnitudes)


def _log2_product(factors) -> np.ndarray:
    """``log2`` of the product of the positive factors that ``factors()`` makes,
    the pivots of a determinant.

    The factors are multiplied as they are made, so none outlives its use,
    and one ``log2`` per matrix reads the product.  A matrix whose product is
    not finite (it overflows, or a factor is NaN) takes the sum of the
    ``log2`` of its factors instead, which ``factors()`` makes again, so
    every result depends on its own matrix alone.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        made = factors()
        dets = next(made)
        for factor in made:
            dets = dets * factor
        dets = np.log2(dets)
        spoiled = ~np.isfinite(dets)
        if np.any(spoiled):
            dets[spoiled] = sum(np.log2(factor[spoiled]) for factor in factors())
    return dets


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def tridiagonalize(a: dict) -> Tridiagonal:
    """The tridiagonal ``T = Q^H A Q`` of every Hermitian matrix of a ``(..., n, n)`` stack.

    ``a`` is the stack's lower triangle, the dict of ``_lower_entries``, and
    no matrix stack is held: the reduction consumes the dict, replacing each
    entry as it updates it and removing each column once reduced, so every
    entry is freed after its last read.  Householder reflections, one per
    column ``k < n - 2``, are unrolled over the entries: every step is one
    operation on the whole stack.  ``Q`` is unitary, so ``T`` has the
    eigenvalues, the determinant and the inertia of ``A``, and it does not
    depend on any SNR: ``det(I + snr A)`` is ``det(I + snr T)`` for the
    whole grid.  Reflection ``k`` maps the sub-column ``x`` of column ``k``
    onto its first entry, so the squared off-diagonal entry is ``||x||^2``;
    a sub-column already on its first entry (a zero one included) is left
    as it is.  The reduction is backward stable: ``T`` is exactly similar to
    ``A + E`` with ``||E|| = O(n^2 * eps * ||A||)``.
    """
    n = max(i for i, _ in a) + 1
    lead = a[0, 0].shape
    diag, off2 = [], []
    with np.errstate(all="ignore"):
        for k in range(n - 2):
            trail = range(k + 1, n)
            diag.append(a.pop((k, k)))
            x = {i: a.pop((i, k)) for i in trail}
            x0 = x[k + 1]
            tail = sum(_abs2(x[i]) for i in range(k + 2, n))
            size0 = np.abs(x0)
            norm2 = size0 * size0 + tail
            norm = np.sqrt(norm2)
            off2.append(norm2)
            # H = I - tau v v^H for v = x + phase(x0) ||x|| e_1, H x = -phase(x0) ||x|| e_1
            v = {k + 1: x0 + np.where(size0 > 0.0, x0 / size0, 1.0) * norm}
            v.update((i, x[i]) for i in range(k + 2, n))
            tau = np.where(tail > 0.0, 1.0 / (norm * (norm + size0)), 0.0)
            vc = {i: np.conj(v[i]) for i in trail}
            # H A H = A - v w^H - w v^H for p = tau A v and w = p - (tau/2)(v^H p) v
            w = {}
            for i in trail:
                acc = a[i, i] * v[i]
                for j in trail:
                    if j != i:
                        acc = acc + (a[i, j] if j < i else np.conj(a[j, i])) * v[j]
                w[i] = tau * acc
            half = 0.5 * tau * sum((vc[i] * w[i]).real for i in trail)
            for i in trail:
                w[i] -= half * v[i]
            wc = {i: np.conj(w[i]) for i in trail}
            for i in trail:
                a[i, i] = a[i, i] - 2.0 * (v[i] * wc[i]).real
                for j in range(k + 1, i):
                    a[i, j] = a[i, j] - (v[i] * wc[j] + w[i] * vc[j])
    if n >= 2:
        diag.append(a[n - 2, n - 2])
        off2.append(_abs2(a[n - 1, n - 2]))
    diag.append(a[n - 1, n - 1])
    off2 = np.stack(off2) if off2 else np.empty((0, *lead))
    return Tridiagonal(np.stack(diag), off2)


def _rank_deficient(mat: np.ndarray, reference: float | None = None) -> np.ndarray:
    """The SVD test per matrix of a stack: all zero, or
    ``sigma_min < SINGULARITY_RTOL * reference``, ``sigma_max`` by default."""
    singvals = np.linalg.svd(mat, compute_uv=False)
    reference = singvals[..., 0] if reference is None else reference
    return (singvals[..., 0] == 0.0) | (singvals[..., -1] < SINGULARITY_RTOL * reference)


def first_rank_deficient(
    seq: TapSequence, num_subcarriers: int, reduced: Tridiagonal | None = None
) -> np.ndarray:
    """For every sequence of the leading axes of ``seq``, the first subcarrier
    on which its frequency response loses full column rank, or -1.

    The result has the leading axes' shape.  The test is the SVD's on
    ``A(k) = dft_of_taps(seq, num_subcarriers)[k]``: ``A(k)`` must not be
    all zero, and its smallest singular value must exceed
    ``SINGULARITY_RTOL * sqrt(s)``, for the scale ``s = span * trace(R_0)``
    that bounds ``||A(k)||^2`` on every subcarrier.  ``reduced``, a
    ``(..., K)`` reduction of the Grams ``A(k)^H A(k)`` with their inertia
    (``metrics.hermitian_reduction``'s), screens first:
    a subcarrier passes without an SVD when ``reduced`` minus
    ``GRAM_SCREEN_RTOL * s`` times the identity has only positive pivots.
    The rest get an SVD, on the full-grid DFT of their own sequence, so
    every decision is the SVD test's on the same ``A(k)`` whatever the
    screen doubted.
    """
    rows, cols = seq.shape
    if rows < cols:
        raise ValueError("full column rank needs a tall matrix (rows >= cols)")
    k = int(num_subcarriers)
    lead = seq.taps.shape[:-3]
    scale = seq.span * np.sum(np.abs(seq.taps) ** 2, axis=(-3, -2, -1))
    if reduced is None:
        doubted = np.ones((*lead, k), dtype=bool)
    else:
        doubted = ~reduced.positive_definite(-GRAM_SCREEN_RTOL * scale[..., None])
    first = np.full(lead, -1)
    for index in map(tuple, np.argwhere(np.any(doubted, axis=-1))):
        suspect = np.flatnonzero(doubted[index])
        bad = _rank_deficient(dft_of_taps(seq[index], k)[suspect], np.sqrt(scale[index]))
        if np.any(bad):
            first[index] = suspect[np.argmax(bad)]
    return first
