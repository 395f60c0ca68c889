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
    _rank_deficient,
    circular_convolve,
    dft_of_taps,
    gram_of_lags,
    lag_products,
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


def mf_combiner(channel: ChannelRealization) -> CombinerIR:
    """Time-reversed conjugate-transpose combiner, scaled by ``1/sqrt(M)``.

    Tap ``-l`` is ``H_l^H / sqrt(M)``, so each user coherently sums its own
    delayed copies at composite delay 0.  Like every combiner builder here,
    it keeps the leading axes of a stacked channel: one combiner per draw.
    """
    scale = 1.0 / np.sqrt(channel.dims.antennas)
    taps = scale * np.conj(np.swapaxes(channel.taps.taps[..., ::-1, :, :], -1, -2))
    return CombinerIR(TapSequence(-(channel.dims.taps - 1), taps))


def _phase_only(target: np.ndarray, offset: int) -> CombinerIR:
    """Constant-modulus ``1/sqrt(M)`` combiner conjugating the phases of ``target``.

    ``target`` is ``(..., span, U, M)``; tap ``i`` of the result sits at
    delay ``offset + i``.  Each phase is ``conj(z) / |z|``, without
    trigonometry; an entry ``z = 0`` keeps phase 0.
    """
    root_m = np.sqrt(target.shape[-1])
    magnitude = np.abs(target)
    vanished = magnitude == 0.0
    phases = np.conj(target) / np.where(vanished, 1.0, magnitude)
    phases[vanished] = 1.0
    phases /= root_m
    return CombinerIR(
        TapSequence(offset, phases),
        constant_modulus=True,
        modulus=1.0 / root_m,
    )


def rf_ltap(channel: ChannelRealization) -> CombinerIR:
    """Constant-modulus combiner with one RF tap per channel delay.

    Keeps the matched filter's phases and flattens every magnitude to
    ``1/sqrt(M)``: the closest phase-only network to the matched filter,
    equivalently per-entry equal-gain combining.
    """
    reversed_taps = channel.taps.taps[..., ::-1, :, :]
    return _phase_only(np.swapaxes(reversed_taps, -1, -2), -(channel.dims.taps - 1))


def rf_1tap(channel: ChannelRealization) -> CombinerIR:
    """Single-tap constant-modulus combiner aligned to the leading channel tap."""
    return _phase_only(np.swapaxes(channel.taps.taps[..., :1, :, :], -1, -2), 0)


def rf_1tap_sum_heuristic(channel: ChannelRealization) -> CombinerIR:
    """Single-tap combiner phased against the plain sum of all channel taps.

    A cheaper rule than per-tap alignment; the taps it mixes add with random
    relative phases, which costs array gain on frequency-selective channels.
    """
    return _phase_only(np.swapaxes(channel.taps.taps.sum(axis=-3, keepdims=True), -1, -2), 0)


@dataclass
class PhaseNetworkBank:
    """Two phase-only networks whose sum reproduces a target combiner.

    Each entry ``a`` of the normalized target splits into two unit-modulus
    terms with phases ``angle(a) +/- arccos(|a|)``; the sum of the banks is
    ``scale`` times the target exactly, and a common scale leaves every rate
    unchanged, so phase shifters alone can realize any combiner at twice the
    network count.
    """

    plus: TapSequence
    minus: TapSequence
    gamma: float | np.ndarray
    scale: float | np.ndarray

    def combined(self) -> CombinerIR:
        """Sum of the two banks (no longer constant-modulus)."""
        return CombinerIR(TapSequence(self.plus.offset, self.plus.taps + self.minus.taps))


def decompose_to_phase_banks(combiner: CombinerIR) -> PhaseNetworkBank:
    """Split a combiner into two constant-modulus phase networks.

    The target is normalized by its largest entry magnitude ``gamma`` so
    every entry lands in the closed unit disk; the returned ``scale`` is
    ``2 / (gamma * sqrt(M))``, the factor from the target to the summed
    banks.  A stacked combiner gets one ``gamma`` and ``scale`` per
    sequence, of the leading axes' shape.
    """
    a = combiner.taps.taps
    gamma = np.max(np.abs(a), axis=(-3, -2, -1))
    if not np.all(np.isfinite(gamma)) or np.any(gamma == 0.0):
        raise ValueError("cannot decompose an all-zero combiner")
    m = a.shape[-1]
    normalized = a / gamma[..., None, None, None]
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
    DFT ``G(k)`` of the taps, and ``noise_cov_spectrum`` the per-subcarrier
    covariance of the combined noise, ``W(k) W(k)^H`` for the combiner's
    frequency response ``W(k)``.  The covariance comes from lag products of
    the combiner's adjoint taps ``W_n^H`` (``gram_of_lags``), whose
    response is ``W(-k)^H``, read at ``-k mod K``, so it forms no spectrum.
    Taps with leading axes (the effective channels of a stacked channel)
    give every view the same leading axes.
    """

    combiner: CombinerIR
    taps: TapSequence
    num_subcarriers: int

    @cached_property
    def spectrum(self) -> np.ndarray:
        return dft_of_taps(self.taps, self.num_subcarriers)

    @cached_property
    def noise_cov_spectrum(self) -> np.ndarray:
        taps = self.combiner.taps
        adjoint = TapSequence(taps.offset, np.conj(np.swapaxes(taps.taps, -1, -2)))
        k = self.num_subcarriers
        return gram_of_lags(lag_products(adjoint), k)[..., -np.arange(k) % k, :, :]


def effective_channel(combiner: CombinerIR, channel: ChannelRealization) -> EffectiveChannel:
    """Convolve a combiner with a channel on the channel's subcarrier grid.

    The grid must hold the combined span without aliasing; no spectrum is
    computed here.  Leading axes of a stacked channel and its combiner are
    kept.
    """
    k = channel.dims.subcarriers
    return EffectiveChannel(combiner, circular_convolve(combiner.taps, channel.taps, k), k)


def zf_spectrum(spectrum: np.ndarray) -> np.ndarray:
    """Per-subcarrier left pseudoinverse of a ``(K, rows, cols)`` grid of tall matrices.

    One batched SVD checks every rank, and one batched solve of the normal
    equations gives every inverse.  A grid has no taps, so its rank test is
    ``first_rank_deficient``'s against each matrix's own largest singular
    value.  The raised ``SingularMatrixError`` names the first
    rank-deficient subcarrier.
    """
    grid = np.asarray(spectrum, dtype=complex)
    if grid.ndim != 3 or grid.shape[1] < grid.shape[2]:
        raise ValueError("expected a (K, rows, cols) grid of tall matrices (rows >= cols)")
    bad = _rank_deficient(grid)
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        raise SingularMatrixError(f"singular channel at subcarrier {k}", subcarrier=k)
    adjoint = np.conj(np.swapaxes(grid, -1, -2))
    return np.linalg.solve(adjoint @ grid, adjoint)


def zf_baseband(effective: EffectiveChannel) -> np.ndarray:
    """Zero-forcing baseband stage for an effective channel.

    Returns the ``(K, U, U)`` per-subcarrier inverse of the effective
    spectrum, so baseband-times-effective is the identity on every
    subcarrier.
    """
    return zf_spectrum(effective.spectrum)


def combiner_noise_power(combiner: CombinerIR, noise_variance: float) -> np.ndarray:
    """Per-user noise power after combining: ``sigma^2 * sum_l ||row_u(W_l)||^2``.

    A stacked combiner gives one row of powers per sequence.
    """
    if not noise_variance > 0.0:
        raise ValueError("noise variance must be positive")
    return noise_variance * np.sum(np.abs(combiner.taps.taps) ** 2, axis=(-3, -1))
