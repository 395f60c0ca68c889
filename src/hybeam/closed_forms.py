"""Large-array limits for the constant-modulus combiners.

As the antenna count grows, equal-gain phase alignment concentrates a
coherent gain of ``pi * M / 4`` on the aligned taps while interference and
noise stay bounded, so per-user SINRs, sum capacities, and delay spreads all
admit closed forms in the array size and the power delay profile alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import PowerDelayProfile
from .metrics import LinkBudget

MODEL_LTAP = "ltap"
MODEL_1TAP = "1tap"

# |E[magnitude]|^2 of a unit complex Gaussian entry: pi/4.
COHERENT_GAIN = np.pi / 4.0
# Multiples of 1/sqrt(M) that bracket the mean RMS delay spread.
ENVELOPE_LOW = 1.0
ENVELOPE_HIGH = 3.0


def _check_column(pdp_column: np.ndarray) -> np.ndarray:
    column = np.asarray(pdp_column, dtype=float)
    if column.ndim != 1 or column.size < 1:
        raise ValueError("pdp column must be a nonempty 1-D array")
    if np.any(column < 0.0) or abs(column.sum() - 1.0) > 1e-6:
        raise ValueError("pdp column must be nonnegative and sum to 1")
    return column


def sinr_limit_ltap(
    link: LinkBudget, antennas: int, users: int, pdp_column: np.ndarray
) -> float:
    """Large-array SINR of the per-tap phase-aligned combiner for one user.

    All taps add coherently, so the signal grows with the squared sum of the
    root tap powers; every one of the other ``U*L - 1`` tap streams leaks one
    unit of transmit power and each of the ``L`` combiner taps adds one unit
    of noise.
    """
    column = _check_column(pdp_column)
    taps = column.size
    coherent = float(np.sqrt(column).sum()) ** 2
    signal = COHERENT_GAIN * link.transmit_power * antennas * coherent
    clutter = taps * link.noise_variance + link.transmit_power * (users * taps - 1)
    return signal / clutter


def sinr_limit_1tap(
    link: LinkBudget, antennas: int, users: int, pdp_column: np.ndarray
) -> float:
    """Large-array SINR of the single-tap phase-aligned combiner for one user.

    Only the leading tap is collected coherently; the user's remaining tap
    power and one unit per other user leak through, with a single unit of
    noise.
    """
    column = _check_column(pdp_column)
    signal = COHERENT_GAIN * link.transmit_power * antennas * column[0]
    clutter = (
        link.noise_variance
        + link.transmit_power * column[1:].sum()
        + link.transmit_power * (users - 1)
    )
    return signal / float(clutter)


def sinr_ceiling_ltap(antennas: int, users: int, pdp_column: np.ndarray) -> float:
    """Transmit-power-to-infinity limit of ``sinr_limit_ltap``."""
    column = _check_column(pdp_column)
    taps = column.size
    coherent = float(np.sqrt(column).sum()) ** 2
    return COHERENT_GAIN * antennas * coherent / (users * taps - 1)


def sinr_ceiling_1tap(antennas: int, users: int, pdp_column: np.ndarray) -> float:
    """Transmit-power-to-infinity limit of ``sinr_limit_1tap``."""
    column = _check_column(pdp_column)
    return COHERENT_GAIN * antennas * column[0] / float(column[1:].sum() + users - 1)


def capacity_limit(
    link: LinkBudget, antennas: int, pdp: PowerDelayProfile, model: str
) -> float:
    """Large-array capacity of the effective channel left by a phase-aligned combiner.

    The effective channel decouples into per-user scalar links of gain
    ``pi*M/4`` times the coherently collected tap power: the squared sum of
    root tap powers for the per-tap network, the leading tap power for the
    single-tap network.
    """
    if model == MODEL_LTAP:
        collected = np.sqrt(pdp.gains).sum(axis=0) ** 2
    elif model == MODEL_1TAP:
        collected = pdp.gains[0]
    else:
        raise ValueError(f"unknown model {model!r}; expected {MODEL_LTAP!r} or {MODEL_1TAP!r}")
    gains = link.snr * COHERENT_GAIN * antennas * collected
    return float(np.sum(np.log2(1.0 + gains)))


def delay_spread_envelopes(antenna_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper ``c / sqrt(M)`` envelopes for the mean RMS delay spread.

    Phase-aligned combining shrinks the residual dispersion of the effective
    channel at a ``1/sqrt(M)`` rate; ``ENVELOPE_LOW`` and ``ENVELOPE_HIGH``
    bracket which multiple of that rate the combiner family achieves.
    """
    grid = np.asarray(antenna_grid, dtype=float)
    if np.any(grid < 1.0):
        raise ValueError("antenna counts must be at least 1")
    root = np.sqrt(grid)
    return ENVELOPE_LOW / root, ENVELOPE_HIGH / root


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Closed-form per-user SINRs and rates for one combiner model."""

    model: str
    sinr: np.ndarray
    sum_rate: float
    capacity: float


def predict(
    link: LinkBudget, antennas: int, pdp: PowerDelayProfile, model: str
) -> AsymptoticPrediction:
    """Bundle the per-user SINR limits and both rate limits for one model."""
    capacity = capacity_limit(link, antennas, pdp, model)  # rejects an unknown model
    per_user = sinr_limit_ltap if model == MODEL_LTAP else sinr_limit_1tap
    sinr = np.array(
        [per_user(link, antennas, pdp.num_users, pdp.column(u)) for u in range(pdp.num_users)]
    )
    return AsymptoticPrediction(
        model=model,
        sinr=sinr,
        sum_rate=float(np.sum(np.log2(1.0 + sinr))),
        capacity=capacity,
    )
