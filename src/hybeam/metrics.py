"""Rate and dispersion metrics for raw and effective channels.

Every spectral rate has the form ``mean_k log2 det(I + snr * G(k))`` with an
SNR-independent Gram matrix ``G(k)``, so one kernel serves all of them.  Up
to ``LDL_MAX_ORDER`` it reads each log-det as the sum of the ``log2`` of the
pivots of ``I + snr * G(k)`` (``numerics.ldl_pivots``), and colored noise of
covariance ``C(k)`` costs no whitening: ``det(I + snr A^H C^{-1} A) =
det(C + snr A A^H) / det(C)``.  Larger orders take one eigendecomposition
per subcarrier, after whitening with a Cholesky factor, and evaluate the
whole SNR grid from its eigenvalues.  Either way the noise keeps its exact
covariance, and ``gram_rates`` and ``spectral_rates`` take stacks with
leading axes.  At every order the pivots of ``C(k)`` decide whether the
noise covariance is singular (above ``LDL_MAX_ORDER``, so does a failed
Cholesky factorization): ``spectral_rates`` marks such a grid of a stack
with NaN rates instead of raising, and the one-grid adapters
``rate_spectral`` and ``achievable_rate_hybrid`` raise
``SingularMatrixError`` for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .beamforming import EffectiveChannel
from .numerics import LDL_MAX_ORDER, SingularMatrixError, gram_eigvals, ldl_pivots


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


def _adjoint(mats: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(mats, -1, -2))


def rates_from_eigvals(eigvals: np.ndarray, snrs) -> np.ndarray:
    """``mean_k sum log2(1 + snr * lambda)`` of ``(..., K, cols)`` eigenvalues: ``(len(snrs), ...)``."""
    snr = np.asarray(snrs, dtype=float).reshape(-1, *(1,) * np.ndim(eigvals))
    return np.mean(np.sum(np.log2(1.0 + snr * eigvals), axis=-1), axis=-1)


def _log2dets(pivots: np.ndarray) -> np.ndarray:
    return np.sum(np.log2(pivots), axis=-1)


def gram_rates(gram: np.ndarray, snrs) -> np.ndarray:
    """``mean_k log2 det(I + snr * G(k))`` of a ``(..., K, n, n)`` Gram stack, per linear SNR.

    Returns ``(len(snrs), ...)``: pivots up to ``LDL_MAX_ORDER``, eigenvalues above.
    """
    g = np.asarray(gram)
    if g.shape[-1] <= LDL_MAX_ORDER:
        return np.mean(_log2dets(ldl_pivots(g, snrs)), axis=-1)
    return rates_from_eigvals(np.linalg.eigvalsh(g), snrs)


def spectral_rates(signal: np.ndarray, noise_cov: np.ndarray | None, snrs) -> np.ndarray:
    """``mean_k log2 det(I + snr * A(k)^H A(k))`` for every linear SNR in ``snrs``.

    ``signal`` is a ``(..., K, rows, cols)`` grid and the result is
    ``(len(snrs), ...)``.  ``A(k)`` is ``signal[k]`` itself in white noise
    (``noise_cov=None``) and ``L(k)^{-1} signal[k]`` when the noise has
    covariance ``C(k) = L(k) L(k)^H``.  With ``rows <= LDL_MAX_ORDER`` that
    rate is ``log2 det(C + snr * S S^H) - log2 det(C)`` for ``S = signal[k]``,
    from pivots.  A grid whose ``C(k)`` has a pivot that is not positive on
    some subcarrier, the singularity that stops a Cholesky factorization,
    has no rate: it reads NaN at every SNR, and the other grids of the stack
    keep the values they have alone.  Above ``LDL_MAX_ORDER`` a grid whose
    ``C(k)`` passes that test within rounding of singular, but which LAPACK's
    Cholesky still rejects, reads NaN as well.
    """
    a = np.asarray(signal, dtype=complex)
    if a.ndim < 3:
        raise ValueError("expected a (K, rows, cols) signal grid")
    if noise_cov is None:
        return gram_rates(_adjoint(a) @ a, snrs)
    cov = np.asarray(noise_cov, dtype=complex)
    base = ldl_pivots(cov)
    singular = ~np.all(base > 0.0, axis=(-2, -1))
    if a.shape[-2] <= LDL_MAX_ORDER:
        with np.errstate(divide="ignore", invalid="ignore"):
            colored = _log2dets(ldl_pivots(a @ _adjoint(a), snrs, cov)) - _log2dets(base)
        return np.where(singular, np.nan, np.mean(colored, axis=-1))
    # np.linalg.cholesky's own gufunc, without the error state that makes one
    # matrix it cannot factor (left NaN) raise for the whole stack: the other
    # factors are the same bits.  Such a grid has no rate either
    with np.errstate(invalid="ignore"):
        chol = _umath_linalg.cholesky_lo(0.5 * (cov + _adjoint(cov)), signature="D->D")
    singular |= np.any(np.isnan(chol), axis=(-3, -2, -1))
    chol = np.where(singular[..., None, None, None], np.eye(a.shape[-2]), chol)
    rates = rates_from_eigvals(gram_eigvals(np.linalg.solve(chol, a)), snrs)
    return np.where(singular, np.nan, rates)


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
    """Power profile of an effective channel: ``power[u, v, i]`` is the power
    coupling user ``v`` into output ``u`` at delay ``offset + i``."""

    power: np.ndarray
    offset: int


def pdp_of_effective(effective: EffectiveChannel) -> EffectivePdp:
    """Entrywise power of the effective taps, arranged per user pair."""
    power = np.abs(effective.taps.taps) ** 2
    return EffectivePdp(np.transpose(power, (1, 2, 0)), effective.taps.offset)


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
    """Breakdown at transmit power ``pt``: a scalar, or a ``(P, 1)`` column of powers."""
    zero = -pdp.offset
    if not 0 <= zero < pdp.power.shape[2]:
        raise ValueError("delay 0 is outside the stored profile")
    own = np.einsum("uun->un", pdp.power)
    signal = pt * own[:, zero]
    isi = pt * (own.sum(axis=1) - own[:, zero])
    totals = pdp.power.sum(axis=2)
    mui = pt * (totals.sum(axis=1) - np.einsum("uu->u", totals))
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
    same arithmetic; the result has one sum rate per transmit power.
    """
    pt = np.asarray(transmit_powers, dtype=float)[:, None]
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
    return delay_moments(np.einsum("uun->un", pdp.power), pdp.offset)
