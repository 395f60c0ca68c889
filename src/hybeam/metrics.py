"""Rate and dispersion metrics for raw and effective channels.

Every spectral rate has the form ``mean_k log2 det(I + snr * G(k))`` with an
SNR-independent Hermitian ``G(k)``, so one kernel serves all of them:
``hermitian_reduction``, the one entry point of every reduction and the only
reader of ``LDL_MAX_ORDER``, reduces each ``G(k)`` once, and the whole SNR
grid is read from the reduction (``reduced_rates``).  Up to
``LDL_MAX_ORDER`` the reduction is ``numerics.tridiagonalize``'s
tridiagonal ``T``, whose ``det(I + snr * T)`` is the product of the pivots
of an ``O(n)`` recurrence; larger orders take the eigenvalues of one
``eigvalsh`` per matrix.  It reduces one stack, or the Grams that a caller
makes one at a time (a chunk's, in the runner) on a new first axis.  The
same reduction of a Hermitian ``G(k)`` also gives the rates of
``G(k)^2`` (``squared_rates``), the Gram of the matched filter's effective
channel when ``G(k)`` is the raw one's.  Colored noise of covariance ``C``
is whitened first, in one place, ``whiten``, by LAPACK's Cholesky factor of
``C`` at every order.  ``spectral_rates`` whitens a signal grid against its
per-subcarrier ``C(k)``; the runner whitens the effective taps of a one-tap
combiner against the one ``C = W_0 W_0^H`` that every subcarrier shares, and
reads their lag Gram.  Either way the noise keeps its exact covariance, and
``whiten``, ``reduced_rates`` and ``spectral_rates`` take stacks with
leading axes.  The one factorization of ``C`` decides whether the noise
covariance is singular (the Cholesky factorization fails):
``spectral_rates`` marks such a grid of a stack with NaN rates instead of
raising, and the one-grid adapters ``rate_spectral`` and
``achievable_rate_hybrid`` raise ``SingularMatrixError`` for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .beamforming import EffectiveChannel
from .numerics import LDL_MAX_ORDER, SingularMatrixError, Tridiagonal, _lower_entries, tridiagonalize


def _adjoint(mats: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(mats, -1, -2))


@dataclass(frozen=True)
class LinkBudget:
    """Transmit power and noise variance; the SNR is their ratio."""

    transmit_power: float = 1.0
    noise_variance: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.transmit_power < np.inf or not 0.0 < self.noise_variance < np.inf:
            raise ValueError("transmit power and noise variance must be positive and finite")

    @property
    def snr(self) -> float:
        return self.transmit_power / self.noise_variance

    @classmethod
    def from_snr_db(cls, snr_db: float, noise_variance: float = 1.0) -> "LinkBudget":
        return cls(10.0 ** (snr_db / 10.0) * noise_variance, noise_variance)


def hermitian_reduction(grams, count: int | None = None) -> Tridiagonal:
    """The SNR-independent form of Hermitian ``(..., n, n)`` matrices that every rate reads.

    ``grams`` is one such stack; or, given their ``count``, an iterable that
    makes ``count`` stacks of one shape one at a time, whose forms are
    stacked on a new first axis.  Up to ``LDL_MAX_ORDER`` the form is
    ``numerics.tridiagonalize``'s tridiagonal; above, the eigenvalues from
    ``eigvalsh`` on the diagonal, with zeros off it.  Either has the
    determinants and the inertia of the matrices.  Of each made stack only
    its lower triangle (``_lower_entries``), copied into contiguous entries
    that ``tridiagonalize`` consumes and frees as it reduces them, or its
    eigenvalues are kept, and it is freed before the next is made: no
    stack of whole matrices sits beside the reduction.
    """
    if count is None:
        stack = np.asarray(grams)
        if stack.shape[-1] <= LDL_MAX_ORDER:
            return tridiagonalize(_lower_entries(stack))
        eigs = np.linalg.eigvalsh(stack)
    else:
        made, kept = iter(grams), {}
        for slot in range(count):
            gram = next(made)
            # up to the bound its lower entries, keyed (i, j); above, key None
            if gram.shape[-1] <= LDL_MAX_ORDER:
                own = _lower_entries(gram)
            else:
                own = {None: np.linalg.eigvalsh(gram)}
            for key, part in own.items():
                if not slot:
                    kept[key] = np.empty((count, *part.shape), dtype=part.dtype)
                kept[key][slot] = part
            # nothing, an enumerate's reused tuple included, holds this Gram
            # while the next is made
            del gram, own, part
        if None not in kept:
            return tridiagonalize(kept)
        eigs = kept[None]
    eigs = np.moveaxis(eigs, -1, 0)
    return Tridiagonal(eigs, np.zeros_like(eigs[1:]))


def reduced_rates(reduced: Tridiagonal, snrs) -> np.ndarray:
    """``mean_k log2 det(I + snr * T(k))`` of a reduced ``(..., K)`` stack: ``(len(snrs), ...)``."""
    return np.mean(reduced.log2dets(snrs), axis=-1)


def squared_rates(reduced: Tridiagonal, snrs) -> np.ndarray:
    """``mean_k log2 det(I + snr * T(k)^2)`` of a reduced ``(..., K)`` stack: ``(len(snrs), ...)``.

    The rates of the Grams ``G(k)^2`` of Hermitian ``G(k)``, read from the
    reduction of ``G(k)`` itself (``Tridiagonal.log2dets_of_square``).
    """
    return np.mean(reduced.log2dets_of_square(snrs), axis=-1)


def whiten(signal: np.ndarray, noise_cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The whitened signal ``A`` with ``A^H A = S^H C^{-1} S``, and where ``C`` is singular.

    ``signal`` (``S``) is a ``(..., rows, cols)`` stack and ``noise_cov``
    (``C``) a Hermitian ``(..., rows, rows)`` stack of its noise
    covariances; their leading axes broadcast, so one ``C`` can whiten a
    subcarrier grid or a tap sequence.  ``C`` is factored once, ``L L^H``
    by LAPACK's Cholesky from its lower triangle, and ``A = L^{-1} S`` by
    forward substitution, one row of the whole stack per step.  The mask, of
    ``C``'s leading shape, marks each ``C`` whose factorization fails (its
    factor is NaN); the whitened signal of a marked ``C`` reads zero.
    """
    a = np.asarray(signal, dtype=complex)
    # np.linalg.cholesky's own gufunc, without the error state that makes
    # one matrix it cannot factor raise for the whole stack: it leaves that
    # factor NaN, which the substitution carries without a warning, and the
    # other factors are the same bits
    with np.errstate(invalid="ignore"):
        chol = _umath_linalg.cholesky_lo(np.asarray(noise_cov, dtype=complex), signature="D->D")
        diag = np.diagonal(chol, axis1=-2, axis2=-1).real[..., None]
        white = np.empty(np.broadcast_shapes(a.shape[:-2], chol.shape[:-2]) + a.shape[-2:], dtype=complex)
        white[..., :1, :] = a[..., :1, :] / diag[..., :1, :]
        for i in range(1, a.shape[-2]):
            # Y_i = (S_i - L[i, :i] Y[:i]) / L_ii
            row = a[..., i : i + 1, :] - chol[..., i : i + 1, :i] @ white[..., :i, :]
            white[..., i : i + 1, :] = row / diag[..., i : i + 1, :]
    singular = np.any(np.isnan(diag), axis=(-2, -1))
    if np.any(singular):
        white = np.where(singular[..., None, None], 0.0, white)
    return white, singular


def spectral_rates(signal: np.ndarray, noise_cov: np.ndarray | None, snrs) -> np.ndarray:
    """``mean_k log2 det(I + snr * A(k)^H A(k))`` for every linear SNR in ``snrs``.

    ``signal`` is a ``(..., K, rows, cols)`` grid and the result is
    ``(len(snrs), ...)``.  ``A(k)`` is ``signal[k]`` itself in white noise
    (``noise_cov=None``) and, when the noise has covariance ``C(k)``, the
    signal whitened on each subcarrier (``whiten``); either way the rate is
    ``reduced_rates`` of the ``hermitian_reduction`` of ``A^H A``.  A grid
    whose ``C(k)`` ``whiten`` marks singular on some subcarrier has no rate:
    it reads NaN at every SNR, and the other grids of the stack keep the
    values they have alone.
    """
    a = np.asarray(signal, dtype=complex)
    if a.ndim < 3:
        raise ValueError("expected a (K, rows, cols) signal grid")
    if noise_cov is None:
        return reduced_rates(hermitian_reduction(_adjoint(a) @ a), snrs)
    white, singular = whiten(a, noise_cov)
    rates = reduced_rates(hermitian_reduction(_adjoint(white) @ white), snrs)
    return np.where(np.any(singular, axis=-1), np.nan, rates)


def _colored_rate(signal: np.ndarray, noise_cov: np.ndarray, link: LinkBudget) -> float:
    """The one-grid rate of ``spectral_rates`` at one link; a singular ``C`` raises."""
    rate = float(spectral_rates(signal, noise_cov, [link.snr])[0])
    if np.isnan(rate):
        raise SingularMatrixError("singular noise covariance")
    return rate


def capacity(spectrum: np.ndarray, link: LinkBudget) -> float:
    """Subcarrier-averaged log-det capacity of a channel spectrum in white noise.

    ``spectrum`` is ``(K, rows, users)``; the result is
    ``mean_k log2 det(I + snr * H(k)^H H(k))`` in bits per channel use.
    """
    return float(spectral_rates(spectrum, None, [link.snr])[0])


def rate_spectral(combiner_spectrum: np.ndarray, channel_spectrum: np.ndarray, link: LinkBudget) -> float:
    """Achievable sum rate of an arbitrary linear combiner given per-subcarrier grids.

    ``combiner_spectrum`` is ``(K, U, M)`` and ``channel_spectrum`` is
    ``(K, M, U)``; the signal is ``W(k) H(k)`` and the combined noise keeps
    its exact covariance ``W(k) W(k)^H``.
    """
    w = np.asarray(combiner_spectrum, dtype=complex)
    h = np.asarray(channel_spectrum, dtype=complex)
    if w.ndim != 3 or h.ndim != 3 or w.shape[0] != h.shape[0] or w.shape[2] != h.shape[1]:
        raise ValueError("combiner and channel grids do not align")
    return _colored_rate(w @ h, w @ _adjoint(w), link)


def achievable_rate_hybrid(
    effective: EffectiveChannel,
    baseband: np.ndarray | None,
    link: LinkBudget,
) -> float:
    """Sum rate through an effective channel, optionally after a baseband stage.

    With ``baseband=None`` the RF combiner output is used directly; otherwise
    the per-subcarrier baseband matrices multiply both signal and noise, so
    an invertible baseband leaves the rate unchanged.
    """
    signal = effective.spectrum
    cov = effective.noise_cov_spectrum
    if baseband is not None:
        bb = np.asarray(baseband, dtype=complex)
        if bb.shape[0] != effective.num_subcarriers or bb.shape[2] != signal.shape[1]:
            raise ValueError("baseband grid does not align with the effective channel")
        signal = bb @ signal
        cov = bb @ cov @ _adjoint(bb)
    return _colored_rate(signal, cov, link)


@dataclass(frozen=True)
class EffectivePdp:
    """Power profile of an effective channel: ``power[..., u, v, i]`` is the
    power coupling user ``v`` into output ``u`` at delay ``offset + i``, and
    leading axes index the draws of a stack."""

    power: np.ndarray
    offset: int


def pdp_of_effective(effective: EffectiveChannel) -> EffectivePdp:
    """Entrywise power of the effective taps, arranged per user pair."""
    power = np.abs(effective.taps.taps) ** 2
    return EffectivePdp(np.moveaxis(power, -3, -1), effective.taps.offset)


@dataclass(frozen=True)
class SinrBreakdown:
    """Per-user signal, self-interference, cross-user, and noise powers."""

    signal: np.ndarray
    isi: np.ndarray
    mui: np.ndarray
    noise: np.ndarray
    sinr: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in ("signal", "isi", "mui", "noise"):
            value = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, value)
        if np.any(self.noise <= 0.0):
            raise ValueError("noise power must be positive")
        object.__setattr__(self, "sinr", self.signal / (self.isi + self.mui + self.noise))


def _sinr_breakdown(pdp: EffectivePdp, noise_power: np.ndarray, pt) -> SinrBreakdown:
    """Breakdown at transmit power ``pt``: a scalar, or a ``(P, 1, ...)`` column
    of powers with one axis more than a per-user array."""
    zero = -pdp.offset
    if not 0 <= zero < pdp.power.shape[-1]:
        raise ValueError("delay 0 is outside the stored profile")
    own = np.einsum("...uun->...un", pdp.power)
    signal = pt * own[..., zero]
    isi = pt * (own.sum(axis=-1) - own[..., zero])
    totals = pdp.power.sum(axis=-1)
    mui = pt * (totals.sum(axis=-1) - np.einsum("...uu->...u", totals))
    return SinrBreakdown(signal=signal, isi=isi, mui=mui, noise=noise_power)


def sinr_from_pdp(pdp: EffectivePdp, noise_power: np.ndarray, link: LinkBudget) -> SinrBreakdown:
    """Symbol-level SINR when detection reads the delay-0 composite tap.

    Signal is the same-user power at delay 0; every other same-user delay is
    self-interference and every cross-user term is multiuser interference,
    each weighted by the transmit power.  ``noise_power`` is the per-user
    combined noise power.
    """
    return _sinr_breakdown(pdp, noise_power, link.transmit_power)


def sinr_sum_rates(pdp: EffectivePdp, noise_power: np.ndarray, transmit_powers) -> np.ndarray:
    """``sum_rate_from_sinr(sinr_from_pdp(...))`` for every transmit power at once.

    One breakdown with a leading power axis replaces one per link, with the
    same arithmetic; the result has one sum rate per transmit power, and
    then the leading axes of a stacked profile and its ``noise_power``.
    """
    pt = np.asarray(transmit_powers, dtype=float).reshape(-1, *(1,) * (pdp.power.ndim - 2))
    return np.sum(np.log2(1.0 + _sinr_breakdown(pdp, noise_power, pt).sinr), axis=-1)


def sum_rate_from_sinr(breakdown: SinrBreakdown) -> float:
    """Sum over users of ``log2(1 + sinr)``."""
    return float(np.sum(np.log2(1.0 + breakdown.sinr)))


def delay_moments(power: np.ndarray, first_delay: int) -> tuple[np.ndarray, np.ndarray]:
    """Power-weighted mean delay and RMS spread over the last axis of ``power``.

    Delays run from ``first_delay`` up.  The variance radicand is clamped at
    zero against roundoff; negative powers, a profile without positive mass
    and a radicand below ``-1e-12`` are errors.
    """
    if np.any(power < 0.0):
        raise ValueError("profile powers must be nonnegative")
    total = power.sum(axis=-1)
    if not np.all(total > 0.0):
        raise ValueError("profile has no positive mass")
    delays = np.arange(first_delay, first_delay + power.shape[-1], dtype=float)
    mean = (power * delays).sum(axis=-1) / total
    radicand = (power * delays**2).sum(axis=-1) / total - mean**2
    if np.any(radicand < -1e-12):
        raise ValueError("negative delay-spread radicand beyond roundoff")
    return mean, np.sqrt(np.maximum(radicand, 0.0))


def delay_spread_report(pdp: EffectivePdp) -> tuple[np.ndarray, np.ndarray]:
    """Per-user mean delay and RMS delay spread of the same-user effective profiles."""
    return delay_moments(np.einsum("...uun->...un", pdp.power), pdp.offset)
