"""Combiner construction: matched filter, constant-modulus RF variants,
phase-only network banks, and the zero-forcing baseband stage.

Combiner impulse responses are anticausal tap sequences of ``(U x M)``
matrices: the tap at delay ``-l`` acts on the channel tap at delay ``l``, so
the composite response concentrates at delay 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import ChannelRealization
from .numerics import (
    SingularMatrixError,
    TapSequence,
    circular_convolve,
    dft_of_taps,
    gram_eigvals,
    gram_spectrum,
    pinv_tall,
)

_MODULUS_TOL = 1e-12


@dataclass
class CombinerIR:
    """Combiner impulse response with an optional constant-modulus contract.

    When ``constant_modulus`` is set, every entry of every tap must have
    magnitude ``modulus``; this is what a phase-shifter-only RF network can
    realize.
    """

    taps: TapSequence
    constant_modulus: bool = False
    modulus: float | None = None

    def __post_init__(self):
        if self.constant_modulus:
            if self.modulus is None or not self.modulus > 0.0:
                raise ValueError("constant-modulus combiner needs a positive modulus")
            mags = np.abs(self.taps.taps)
            if np.max(np.abs(mags - self.modulus)) > _MODULUS_TOL:
                raise ValueError("tap entries violate the constant-modulus contract")

    @property
    def num_users(self) -> int:
        return self.taps.shape[0]

    @property
    def num_antennas(self) -> int:
        return self.taps.shape[1]


def mf_combiner(channel: ChannelRealization) -> CombinerIR:
    """Time-reversed conjugate-transpose combiner, scaled by ``1/sqrt(M)``.

    Tap ``-l`` is ``H_l^H / sqrt(M)``, so each user coherently sums its own
    delayed copies at composite delay 0.
    """
    h = channel.taps.taps
    scale = 1.0 / np.sqrt(channel.dims.antennas)
    taps = scale * np.conj(h[::-1].transpose(0, 2, 1))
    return CombinerIR(TapSequence(-(channel.dims.taps - 1), taps))


def _phase_only(target: np.ndarray, offset: int) -> CombinerIR:
    """Constant-modulus ``1/sqrt(M)`` combiner conjugating the phases of ``target``.

    ``target`` is ``(span, U, M)``; tap ``i`` of the result sits at delay
    ``offset + i``.
    """
    root_m = np.sqrt(target.shape[-1])
    return CombinerIR(
        TapSequence(offset, np.exp(-1j * np.angle(target)) / root_m),
        constant_modulus=True,
        modulus=1.0 / root_m,
    )


def rf_ltap(channel: ChannelRealization) -> CombinerIR:
    """Constant-modulus combiner with one RF tap per channel delay.

    Keeps the matched filter's phases and flattens every magnitude to
    ``1/sqrt(M)``: the closest phase-only network to the matched filter,
    equivalently per-entry equal-gain combining.
    """
    return _phase_only(channel.taps.taps[::-1].transpose(0, 2, 1), -(channel.dims.taps - 1))


def rf_1tap(channel: ChannelRealization) -> CombinerIR:
    """Single-tap constant-modulus combiner aligned to the leading channel tap."""
    return _phase_only(channel.taps.taps[0].T[None], 0)


def rf_1tap_sum_heuristic(channel: ChannelRealization) -> CombinerIR:
    """Single-tap combiner phased against the plain sum of all channel taps.

    A cheaper rule than per-tap alignment; the taps it mixes add with random
    relative phases, which costs array gain on frequency-selective channels.
    """
    return _phase_only(channel.taps.taps.sum(axis=0).T[None], 0)


@dataclass
class PhaseNetworkBank:
    """Two phase-only networks whose sum reproduces a target combiner.

    Each entry ``a`` of the normalized target splits into two unit-modulus
    terms with phases ``angle(a) +/- arccos(|a|)``; adding the banks and
    multiplying by ``scale`` recovers the target exactly, so phase shifters
    alone can realize any combiner at twice the network count.
    """

    plus: TapSequence
    minus: TapSequence
    gamma: float
    scale: float

    def combined(self) -> CombinerIR:
        """Sum of the two banks (no longer constant-modulus)."""
        return CombinerIR(TapSequence(self.plus.offset, self.plus.taps + self.minus.taps))


def decompose_to_phase_banks(combiner: CombinerIR) -> PhaseNetworkBank:
    """Split a combiner into two constant-modulus phase networks.

    The target is normalized by its largest entry magnitude ``gamma`` so
    every entry lands in the closed unit disk; the returned ``scale`` is
    ``2 / (gamma * sqrt(M))``, the factor that maps the summed banks back to
    the target.
    """
    a = combiner.taps.taps
    gamma = float(np.max(np.abs(a)))
    if not np.isfinite(gamma) or gamma == 0.0:
        raise ValueError("cannot decompose an all-zero combiner")
    m = a.shape[2]
    normalized = a / gamma
    theta = np.angle(normalized)
    alpha = np.arccos(np.clip(np.abs(normalized), 0.0, 1.0))
    root_m = np.sqrt(m)
    plus = np.exp(1j * (theta + alpha)) / root_m
    minus = np.exp(1j * (theta - alpha)) / root_m
    offset = combiner.taps.offset
    return PhaseNetworkBank(
        plus=TapSequence(offset, plus),
        minus=TapSequence(offset, minus),
        gamma=gamma,
        scale=2.0 / (gamma * root_m),
    )


@dataclass
class EffectiveChannel:
    """Combined combiner-plus-channel response seen by the baseband stage.

    ``taps`` holds the ``(U x U)`` composite impulse response of ``combiner``
    and the channel on a ``num_subcarriers``-point grid.  Its frequency-domain
    views are computed on first read and kept, so each is computed at most
    once and only when a metric reads it: ``spectrum`` is the ``(K, U, U)``
    DFT of the taps, ``gram_eigvals`` the ascending eigenvalues of
    ``G(k)^H G(k)`` for that spectrum ``G(k)``, and ``noise_cov_spectrum``
    the per-subcarrier covariance of the combined noise, ``W(k) W(k)^H`` for
    the combiner's frequency response ``W(k)``.  That covariance comes from
    the combiner's taps without forming ``W(k)``: the taps ``W_n^H`` have
    the response ``W(-k)^H``, so their ``gram_spectrum`` read at ``-k mod K``
    is ``W(k) W(k)^H``.
    """

    combiner: CombinerIR
    taps: TapSequence
    num_subcarriers: int

    @cached_property
    def spectrum(self) -> np.ndarray:
        return dft_of_taps(self.taps, self.num_subcarriers)

    @cached_property
    def gram_eigvals(self) -> np.ndarray:
        return gram_eigvals(self.spectrum)

    @cached_property
    def noise_cov_spectrum(self) -> np.ndarray:
        taps = self.combiner.taps
        adjoint = TapSequence(taps.offset, np.conj(np.swapaxes(taps.taps, -1, -2)))
        k = self.num_subcarriers
        return gram_spectrum(adjoint, k)[-np.arange(k) % k]


def effective_channel(
    combiner: CombinerIR,
    channel: ChannelRealization,
    num_subcarriers: int | None = None,
) -> EffectiveChannel:
    """Convolve a combiner with a channel; no spectrum is computed here.

    The grid defaults to the channel's subcarrier count and must hold the
    combined span without aliasing.
    """
    k = channel.dims.subcarriers if num_subcarriers is None else int(num_subcarriers)
    return EffectiveChannel(combiner, circular_convolve(combiner.taps, channel.taps, k), k)


def zf_spectrum(spectrum: np.ndarray) -> np.ndarray:
    """Per-subcarrier left pseudoinverse of a ``(K, rows, cols)`` grid."""
    grid = np.asarray(spectrum, dtype=complex)
    if grid.ndim != 3:
        raise ValueError("expected a (K, rows, cols) spectrum grid")
    try:
        return pinv_tall(grid)
    except SingularMatrixError as exc:
        k = exc.subcarrier
        raise SingularMatrixError(f"singular channel at subcarrier {k}", subcarrier=k) from exc


def zf_baseband(effective: EffectiveChannel) -> np.ndarray:
    """Zero-forcing baseband stage for an effective channel.

    Returns the ``(K, U, U)`` per-subcarrier inverse of the effective
    spectrum, so baseband-times-effective is the identity on every
    subcarrier.
    """
    return zf_spectrum(effective.spectrum)


def combiner_noise_power(combiner: CombinerIR, noise_variance: float) -> np.ndarray:
    """Per-user noise power after combining: ``sigma^2 * sum_l ||row_u(W_l)||^2``."""
    if not noise_variance > 0.0:
        raise ValueError("noise variance must be positive")
    return noise_variance * np.sum(np.abs(combiner.taps.taps) ** 2, axis=(0, 2))
