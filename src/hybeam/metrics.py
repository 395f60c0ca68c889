"""Rate and dispersion metrics for raw and effective channels.

Every spectral rate has the form ``mean_k log2 det(I + snr * G(k))`` with an
SNR-independent Gram matrix ``G(k)``, so one kernel serves all of them: it
whitens colored noise exactly with a Cholesky factor (never approximating it
as white), takes one eigendecomposition per subcarrier, and evaluates the
whole SNR grid from those eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .beamforming import EffectiveChannel
from .numerics import SingularMatrixError


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


def spectral_rates(signal: np.ndarray, noise_cov: np.ndarray | None, snrs) -> np.ndarray:
    """``mean_k log2 det(I + snr * A(k)^H A(k))`` for every linear SNR in ``snrs``.

    ``signal`` is a ``(K, rows, cols)`` grid; ``A(k)`` is ``signal[k]``
    itself in white noise (``noise_cov=None``) and ``L(k)^{-1} signal[k]``
    when the noise has covariance ``L(k) L(k)^H``.  One eigendecomposition
    per subcarrier serves the whole SNR grid.
    """
    a = np.asarray(signal, dtype=complex)
    if a.ndim != 3:
        raise ValueError("expected a (K, rows, cols) signal grid")
    if noise_cov is not None:
        cov = np.asarray(noise_cov, dtype=complex)
        try:
            chol = np.linalg.cholesky(0.5 * (cov + _adjoint(cov)))
        except np.linalg.LinAlgError:
            raise SingularMatrixError("singular noise covariance") from None
        a = np.linalg.solve(chol, a)
    eigvals = np.linalg.eigvalsh(_adjoint(a) @ a)
    snr = np.asarray(snrs, dtype=float)[:, None, None]
    return np.mean(np.sum(np.log2(1.0 + snr * eigvals), axis=-1), axis=-1)


def capacity(spectrum: np.ndarray, link: LinkBudget) -> float:
    """Subcarrier-averaged log-det capacity of a channel spectrum in white noise.

    ``spectrum`` is ``(K, rows, users)``; the result is
    ``mean_k log2 det(I + snr * H(k)^H H(k))`` in bits per channel use.
    """
    return float(spectral_rates(spectrum, None, [link.snr])[0])


def combined_terms(
    combiner_spectrum: np.ndarray, channel_spectrum: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Signal ``W(k) H(k)`` and noise covariance ``W(k) W(k)^H`` of a linear combiner."""
    w = np.asarray(combiner_spectrum, dtype=complex)
    h = np.asarray(channel_spectrum, dtype=complex)
    if w.ndim != 3 or h.ndim != 3 or w.shape[0] != h.shape[0] or w.shape[2] != h.shape[1]:
        raise ValueError("combiner and channel grids do not align")
    return w @ h, w @ _adjoint(w)


def rate_spectral(combiner_spectrum: np.ndarray, channel_spectrum: np.ndarray, link: LinkBudget) -> float:
    """Achievable sum rate of an arbitrary linear combiner given per-subcarrier grids.

    ``combiner_spectrum`` is ``(K, U, M)`` and ``channel_spectrum`` is
    ``(K, M, U)``; the combined noise keeps its exact covariance
    ``W(k) W(k)^H``.
    """
    signal, cov = combined_terms(combiner_spectrum, channel_spectrum)
    return float(spectral_rates(signal, cov, [link.snr])[0])


def hybrid_terms(
    effective: EffectiveChannel, baseband: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Signal and noise covariance grids after an optional baseband stage."""
    signal = effective.spectrum
    cov = effective.noise_cov_spectrum
    if baseband is not None:
        bb = np.asarray(baseband, dtype=complex)
        if bb.shape[0] != effective.num_subcarriers or bb.shape[2] != signal.shape[1]:
            raise ValueError("baseband grid does not align with the effective channel")
        signal = bb @ signal
        cov = bb @ cov @ _adjoint(bb)
    return signal, cov


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
    signal, cov = hybrid_terms(effective, baseband)
    return float(spectral_rates(signal, cov, [link.snr])[0])


@dataclass(frozen=True)
class EffectivePdp:
    """Power profile of an effective channel: ``power[u, v, i]`` is the power
    coupling user ``v`` into output ``u`` at delay ``offset + i``."""

    power: np.ndarray
    offset: int

    @property
    def num_users(self) -> int:
        return self.power.shape[0]

    @property
    def zero_index(self) -> int:
        return -self.offset

    def user_profile(self, user: int) -> np.ndarray:
        """Same-user power profile across delays."""
        return self.power[user, user]


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


def sinr_from_pdp(pdp: EffectivePdp, noise_power: np.ndarray, link: LinkBudget) -> SinrBreakdown:
    """Symbol-level SINR when detection reads the delay-0 composite tap.

    Signal is the same-user power at delay 0; every other same-user delay is
    self-interference and every cross-user term is multiuser interference,
    each weighted by the transmit power.  ``noise_power`` is the per-user
    combined noise power.
    """
    zero = pdp.zero_index
    if not 0 <= zero < pdp.power.shape[2]:
        raise ValueError("delay 0 is outside the stored profile")
    pt = link.transmit_power
    own = np.einsum("uun->un", pdp.power)
    signal = pt * own[:, zero]
    isi = pt * (own.sum(axis=1) - own[:, zero])
    totals = pdp.power.sum(axis=2)
    mui = pt * (totals.sum(axis=1) - np.einsum("uu->u", totals))
    return SinrBreakdown(signal=signal, isi=isi, mui=mui, noise=noise_power)


def sum_rate_from_sinr(breakdown: SinrBreakdown) -> float:
    """Sum over users of ``log2(1 + sinr)``."""
    return float(np.sum(np.log2(1.0 + breakdown.sinr)))


@dataclass(frozen=True)
class DelaySpread:
    """First and centered second moment of a power profile over delay."""

    mean_delay: float
    rms: float


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


def rms_delay_spread(profile: np.ndarray, first_delay: int = 0) -> DelaySpread:
    """Power-weighted mean delay and RMS spread of a nonnegative 1-D profile.

    The RMS value is invariant to delay shifts, so ``first_delay`` only
    moves the mean; see ``delay_moments`` for the rejected profiles.
    """
    power = np.asarray(profile, dtype=float)
    if power.ndim != 1 or power.size < 1:
        raise ValueError("profile must be a nonempty 1-D array")
    mean, rms = delay_moments(power, first_delay)
    return DelaySpread(mean_delay=float(mean), rms=float(rms))


@dataclass(frozen=True)
class DelaySpreadReport:
    """Per-user delay statistics of an effective channel."""

    mean_delay: np.ndarray
    rms: np.ndarray


def delay_spread_report(pdp: EffectivePdp) -> DelaySpreadReport:
    """Per-user RMS delay spread of the same-user effective profiles."""
    mean, rms = delay_moments(np.einsum("uun->un", pdp.power), pdp.offset)
    return DelaySpreadReport(mean_delay=mean, rms=rms)
