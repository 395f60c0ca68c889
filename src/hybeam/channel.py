"""Frequency-selective uplink channel models.

A realization is a tap sequence of ``L`` matrices ``(M x U)``: ``M`` receive
antennas, ``U`` single-antenna users, tap ``l`` carrying delay ``l``.  Per-user
tap powers follow a normalized power delay profile.  Two generators are
provided: an i.i.d. Rayleigh model and a clustered sparse model built from
uniform-linear-array steering vectors.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .numerics import TapSequence, dft_of_taps

_SEED_MASK = (1 << 64) - 1
# Bytes of physical memory: no draw can hold a spectrum larger than that
_MEMORY_BYTES = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _integer(what: str, value, low: int, high: float = np.inf) -> int:
    """``value`` as an ``int`` in ``[low, high)``; booleans and non-integers are rejected.

    The one rule for every count and seed: ``SystemDims``,
    ``SparseChannelConfig`` and ``Scenario`` apply it to their fields.
    """
    if isinstance(value, bool) or not isinstance(value, Integral) or not low <= int(value) < high:
        raise ValueError(f"{what} must be an integer in [{low}, {high}), got {value!r}")
    return int(value)


def stream(*key: int) -> np.random.Generator:
    """Counter-based random stream keyed by a tuple of integers.

    Streams with distinct keys are statistically independent, so fixtures can
    be regenerated from the key alone.
    """
    if not key:
        raise ValueError("stream needs at least one key integer")
    entropy = [int(k) & _SEED_MASK for k in key]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Circularly symmetric unit-variance complex Gaussians.

    Drawn by inverse transform on the stream's uniforms (magnitude from one
    draw, phase from a second) so the mapping from key to sample is fixed.
    The phasor ``exp(2j*pi*u)`` comes from one ``tan`` per entry, not a
    ``cos`` and a ``sin``: for ``t = tan(pi*(u - 1/2))`` it is
    ``((t^2 - 1) - 2j*t) / (t^2 + 1)``, the half-angle identities with
    ``2*pi*u = 2*atan(t) + pi``.  ``u - 1/2`` is exact, and the phase errs
    by about ``eps`` against ``2*pi*u`` rounded first.
    """
    u_mag = rng.random(shape)
    u_phase = rng.random(shape)
    radius = np.sqrt(-np.log1p(-u_mag))
    t = np.tan(np.pi * (u_phase - 0.5))
    t2 = t * t
    scale = radius / (t2 + 1.0)
    out = np.empty(radius.shape, dtype=complex)
    np.multiply(scale, t2 - 1.0, out=out.real)
    np.multiply(scale, -2.0 * t, out=out.imag)
    return out


def laplace(rng: np.random.Generator, scale: float, shape) -> np.ndarray:
    """Zero-mean Laplacian draws by inverse CDF on the stream's uniforms."""
    centered = rng.random(shape) - 0.5
    # Clamp keeps the inverse CDF finite at the (measure-zero) endpoint.
    tail = np.maximum(1.0 - 2.0 * np.abs(centered), np.finfo(float).tiny)
    return -float(scale) * np.sign(centered) * np.log(tail)


@dataclass(frozen=True)
class SystemDims:
    """Array, user, delay, and subcarrier counts for one link geometry.

    Each count is an integer of at least 1 (not a bool), and a draw's
    ``K x M x U`` complex spectrum must fit in the machine's memory.
    """

    antennas: int
    users: int
    taps: int
    subcarriers: int

    def __post_init__(self):
        for name in ("antennas", "users", "taps", "subcarriers"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 1))
        k, m, u, span = self.subcarriers, self.antennas, self.users, 2 * self.taps - 1
        if m < u:
            raise ValueError(f"need antennas >= users >= 1, got {m} antennas for {u} users")
        if k < span:
            raise ValueError(f"{k} subcarriers are fewer than the tap span 2 * taps - 1 = {span}")
        if 16 * k * m * u > _MEMORY_BYTES:
            raise ValueError(
                f"a draw's {k} subcarriers x {m} antennas x {u} users complex spectrum "
                f"needs more than the {_MEMORY_BYTES} bytes of memory"
            )


@dataclass(frozen=True)
class PowerDelayProfile:
    """Per-user tap powers, one column per user, each column summing to 1."""

    gains: np.ndarray

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=float)
        if gains.ndim != 2:
            raise ValueError("gains must be (taps, users)")
        if np.any(gains < 0.0):
            raise ValueError("tap powers must be nonnegative")
        if np.any(np.abs(gains.sum(axis=0) - 1.0) > 1e-9):
            raise ValueError("each user's tap powers must sum to 1")
        object.__setattr__(self, "gains", gains)

    @property
    def num_users(self) -> int:
        return self.gains.shape[1]

    def column(self, user: int) -> np.ndarray:
        return self.gains[:, user]


def exponential_pdp(num_taps: int, num_users: int) -> PowerDelayProfile:
    """Exponentially decaying profile with per-user decay rate ``u / 5``.

    User 0 sees a uniform profile; later users concentrate progressively more
    power in the leading tap.  Columns are normalized to unit total power.
    """
    if num_taps < 1 or num_users < 1:
        raise ValueError("need at least one tap and one user")
    decay = np.arange(num_users) / 5.0
    weights = np.exp(-np.outer(np.arange(num_taps), decay))
    return PowerDelayProfile(weights / weights.sum(axis=0))


@dataclass(frozen=True)
class ChannelRealization:
    """One channel draw: causal taps ``(L, M, U)`` plus the profile behind it.

    Taps with leading axes stack draws that share the dimensions and profile.
    """

    dims: SystemDims
    taps: TapSequence
    pdp: PowerDelayProfile

    def __post_init__(self):
        expected = (self.dims.taps, self.dims.antennas, self.dims.users)
        if self.taps.taps.shape[-3:] != expected:
            raise ValueError(f"taps shape {self.taps.taps.shape[-3:]} != {expected}")
        if self.taps.offset != 0:
            raise ValueError("channel taps must start at delay 0")


def draw_rich(dims: SystemDims, pdp: PowerDelayProfile, seed: int) -> ChannelRealization:
    """I.i.d. Rayleigh taps scaled by the square-root profile.

    Entry ``(l, m, u)`` is complex Gaussian with variance ``pdp.gains[l, u]``,
    independent across antennas, users, and delays.
    """
    if pdp.gains.shape != (dims.taps, dims.users):
        raise ValueError("profile shape does not match dims")
    rng = stream(seed)
    white = complex_normal(rng, (dims.taps, dims.antennas, dims.users))
    taps = white * np.sqrt(pdp.gains)[:, None, :]
    return ChannelRealization(dims, TapSequence(0, taps), pdp)


def steering_vector(
    num_antennas: int, angle: float | np.ndarray, spacing_ratio: float = 0.5
) -> np.ndarray:
    """Unit-norm uniform-linear-array responses, one per arrival angle.

    ``spacing_ratio`` is element spacing over wavelength; the phase ramp is
    ``phi = 2*pi*spacing_ratio*cos(angle)`` per element, and entry ``m`` is
    ``exp(1j*m*phi) / sqrt(num_antennas)``.  ``angle`` is a scalar or an
    array; the antenna axis comes first, so the result has shape
    ``(num_antennas, *angle.shape)``.

    The entries are built by doubling, not by one complex ``exp`` each: one
    ``cos`` and one ``sin`` call give ``exp(1j*2**j*phi)`` for every
    ``j < ceil(log2(num_antennas))``, on the exact arguments ``2**j * phi``,
    and rows ``[2**j, 2**(j+1))`` are rows ``[0, 2**j)`` times
    ``exp(1j*2**j*phi)``.  Entry ``m`` is then a product of at most
    ``ceil(log2(num_antennas))`` correctly rounded unit phasors, so its
    error is a few ``eps`` per doubling, about ``1e-15`` at 500 antennas,
    against ``eps * m * |phi|`` for ``exp`` of the rounded product ``m*phi``.
    A ramp that is not finite for some ``m`` raises ``ValueError``.
    """
    if num_antennas < 1:
        raise ValueError("need at least one antenna")
    levels = int(num_antennas - 1).bit_length()
    with np.errstate(all="ignore"):
        phase = (2.0 * np.pi * spacing_ratio) * np.cos(angle)
        doubled = np.multiply.outer(2.0 ** np.arange(levels), phase)
    if not (np.all(np.isfinite(phase)) and np.all(np.isfinite(doubled))):
        raise ValueError(
            f"phase ramp 2*pi*spacing_ratio*m*cos(angle) is not finite for m < {num_antennas}"
        )
    rotations = np.empty(doubled.shape, dtype=complex)
    np.cos(doubled, out=rotations.real)
    np.sin(doubled, out=rotations.imag)
    out = np.empty((num_antennas, *phase.shape), dtype=complex)
    out[0] = 1.0 / np.sqrt(num_antennas)
    for j, rotation in enumerate(rotations):
        n = 1 << j
        np.multiply(out[: min(n, num_antennas - n)], rotation, out=out[n : 2 * n])
    return out


@dataclass(frozen=True)
class SparseChannelConfig:
    """Clustered-arrival geometry: one cluster per delay tap.

    ``angular_spread_deg`` is the standard deviation of the Laplacian offsets
    of in-cluster paths around the cluster center.  The path count is an
    integer of at least 1 (not a bool); the spread and the spacing ratio are
    positive and finite, and so is the phase step ``2*pi*spacing_ratio``.
    """

    paths_per_cluster: int = 5
    angular_spread_deg: float = 10.0
    spacing_ratio: float = 0.5

    def __post_init__(self):
        paths = _integer("paths_per_cluster", self.paths_per_cluster, 1)
        object.__setattr__(self, "paths_per_cluster", paths)
        if not 0.0 < self.angular_spread_deg < np.inf:
            raise ValueError(
                f"angular_spread_deg must be positive and finite, got {self.angular_spread_deg!r}"
            )
        # the phase step between neighbouring elements must be a number too
        if not 0.0 < 2.0 * np.pi * self.spacing_ratio < np.inf:
            raise ValueError(
                "spacing_ratio must be positive with a finite phase step "
                f"2*pi*spacing_ratio, got {self.spacing_ratio!r}"
            )


def draw_sparse(
    dims: SystemDims,
    pdp: PowerDelayProfile,
    config: SparseChannelConfig,
    seed: int,
) -> ChannelRealization:
    """Clustered sparse draw: each ``(l, u)`` column is a sum of steered paths.

    Path gains are complex Gaussian with variance ``pdp.gains[l, u]``; arrival
    angles are a uniform cluster center plus Laplacian offsets.  The sum of
    the ``P`` unit-norm steered paths is scaled by ``sqrt(M / (L * P))``, so
    every entry of tap ``l`` of user ``u`` has expected power
    ``pdp.gains[l, u] / L`` and the column ``M * pdp.gains[l, u] / L``:
    ``1 / L`` of the rich model's.
    """
    if pdp.gains.shape != (dims.taps, dims.users):
        raise ValueError("profile shape does not match dims")
    num_paths = config.paths_per_cluster
    shape = (dims.taps, num_paths, dims.users)
    rng = stream(seed)
    centers = 2.0 * np.pi * rng.random((dims.taps, dims.users))
    spread = np.deg2rad(config.angular_spread_deg)
    offsets = laplace(rng, spread / np.sqrt(2.0), shape)
    gains = complex_normal(rng, shape) * np.sqrt(pdp.gains)[:, None, :]
    angles = centers[:, None, :] + offsets
    scale = np.sqrt(dims.antennas / (dims.taps * num_paths))
    # paths first after the antennas: (M, paths, L, U), summed over paths
    responses = steering_vector(dims.antennas, np.moveaxis(angles, 1, 0), config.spacing_ratio)
    responses *= scale * np.moveaxis(gains, 1, 0)
    taps = np.swapaxes(responses.sum(axis=1), 0, 1)
    return ChannelRealization(dims, TapSequence(0, taps), pdp)


def channel_spectrum(channel: ChannelRealization, num_subcarriers: int | None = None) -> np.ndarray:
    """Per-subcarrier channel matrices ``(K, M, U)`` of a realization."""
    k = channel.dims.subcarriers if num_subcarriers is None else int(num_subcarriers)
    return dft_of_taps(channel.taps, k)


def dump_channel(channel: ChannelRealization, path, seed: int, model: str) -> None:
    """Write a realization as self-describing text: header plus one tap entry per line."""
    dims = channel.dims
    taps = channel.taps.taps
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# hybeam channel dump\n")
        fh.write(
            f"# antennas={dims.antennas} users={dims.users} taps={dims.taps} "
            f"seed={int(seed)} model={model}\n"
        )
        fh.write("# columns: tap antenna user re im\n")
        for l in range(dims.taps):
            for m in range(dims.antennas):
                for u in range(dims.users):
                    value = taps[l, m, u]
                    fh.write(f"{l} {m} {u} {value.real:.17g} {value.imag:.17g}\n")


# The counts of a dump's header; it also holds an integer ``seed`` and a ``model`` name
_DUMP_COUNTS = ("antennas", "users", "taps")


def _dump_field(path, name: str, raw: str):
    """A dump header field's value; an unknown or malformed field names the file."""
    if name == "model":
        return raw
    if name not in (*_DUMP_COUNTS, "seed"):
        raise ValueError(f"{path}: unknown dump header field {name!r}")
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{path}: dump header field {name} is not an integer: {raw!r}") from None
    if name == "seed":
        return value
    try:
        return _integer(name, value, 1)
    except ValueError as exc:
        raise ValueError(f"{path}: dump header field {exc}") from None


def load_channel_dump(path) -> tuple[dict, TapSequence]:
    """Read a dump back as (header fields, tap sequence).

    The header holds the counts ``antennas``, ``users`` and ``taps`` (each at
    least 1), an integer ``seed`` and the ``model`` name, each once, and
    nothing else.  Every in-range (tap, antenna, user) must appear on exactly
    one line.
    """
    meta: dict = {}
    entries = {}
    with open(path, "r", encoding="ascii") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    if "=" in token:
                        name, _, raw = token.partition("=")
                        if name in meta:
                            raise ValueError(f"{path}: dump header field {name} given twice")
                        meta[name] = _dump_field(path, name, raw)
                continue
            try:
                tap, antenna, user, real, imag = line.split()
                index = (int(tap), int(antenna), int(user))
                value = complex(float(real), float(imag))
            except ValueError:
                raise ValueError(f"{path}:{number}: malformed dump line: {line!r}") from None
            if index in entries:
                raise ValueError(f"{path}:{number}: duplicate dump entry {index}")
            entries[index] = value
    for field in _DUMP_COUNTS:
        if field not in meta:
            raise ValueError(f"dump header is missing {field}")
    shape = (meta["taps"], meta["antennas"], meta["users"])
    for index in entries:
        if not all(0 <= i < n for i, n in zip(index, shape)):
            raise ValueError(f"{path}: dump entry {index} outside (taps, antennas, users) = {shape}")
    # every entry is distinct and in range, so counting them finds a gap
    # before an array of the declared shape is allocated
    size = meta["taps"] * meta["antennas"] * meta["users"]
    if len(entries) < size:
        raise ValueError(f"{path}: dump lacks {size - len(entries)} of {size} entries")
    taps = np.zeros(shape, dtype=complex)
    for index, value in entries.items():
        taps[index] = value
    return meta, TapSequence(0, taps)
