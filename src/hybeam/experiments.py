"""Monte-Carlo scenario runner and the preset benchmark catalog.

A scenario fixes the geometry, SNR grid, channel model, scheme list and
antenna sweep, and is checked whole when it is built; the runner draws
independent realizations from per-realization derived seeds, evaluates
every scheme on the shared draw, and aggregates means and standard errors.
Realizations are evaluated in fixed chunks of ``CHUNK`` consecutive
indices, which workers never split, so the runner can fan them out across
processes without changing a single output bit.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, replace
from functools import cache
from itertools import groupby

import numpy as np

from .beamforming import (
    EffectiveChannel,
    combiner_noise_power,
    decompose_to_phase_banks,
    effective_channel,
    mf_combiner,
    rf_1tap,
    rf_1tap_sum_heuristic,
    rf_ltap,
)
from .channel import (
    ChannelRealization,
    PowerDelayProfile,
    SparseChannelConfig,
    SystemDims,
    _MEMORY_BYTES,
    _SEED_MASK,
    _integer,
    draw_rich,
    draw_sparse,
    dump_channel,
    exponential_pdp,
    steering_vector,
)
from .closed_forms import (
    MODEL_1TAP,
    MODEL_LTAP,
    delay_spread_envelopes,
    predict,
)
from .metrics import (
    EffectivePdp,
    LinkBudget,
    delay_moments,
    delay_spread_report,
    hermitian_reduction,
    pdp_of_effective,
    reduced_rates,
    sinr_sum_rates,
    spectral_rates,
    squared_rates,
    whiten,
)
from .numerics import (
    SingularMatrixError,
    TapSequence,
    Tridiagonal,
    first_rank_deficient,
    gram_of_lags,
    lag_products,
)

WORKER_ENV_VAR = "HYBEAM_THREADS"
DEFAULT_SEED = 12345
# Realizations whose Gram-level work shares one stack: realization ``i``
# belongs to chunk ``i // CHUNK``.  Every chunk's arrays have the same
# shapes for any worker count, and the size bounds the stacks' memory.
CHUNK = 8

# Combiner base of every scheme name -> its builder; the runner calls none for
# ``mf``, whose rows read the raw taps (see ``_evaluate_chunk``).  Each
# builder looks its function up at call time, so a module function wrapped
# after import (as perfbench's span tracer does) is the one called.
_COMBINERS = {
    "mf": lambda channel: mf_combiner(channel),
    "rf_1tap": lambda channel: rf_1tap(channel),
    "rf_ltap": lambda channel: rf_ltap(channel),
    "heuristic_1tap": lambda channel: rf_1tap_sum_heuristic(channel),
    "bank_2L": lambda channel: decompose_to_phase_banks(mf_combiner(channel)).combined(),
}
SCHEMES = ("capacity", "zf") + tuple(_COMBINERS) + tuple(f"{base}+zf" for base in _COMBINERS)

_MODEL_LABEL = {"rich": 1, "sparse": 2}


def _reject_repeats(what: str, items: tuple) -> None:
    repeated = sorted(item for item, count in Counter(items).items() if count > 1)
    if repeated:
        raise ValueError(f"{what} repeats {', '.join(map(str, repeated))}")


def _sweep_sizes(what: str, sizes, dims: SystemDims) -> tuple[int, ...]:
    """An antenna sweep as distinct integers, none below the user count, each
    an array size that ``dims`` accepts."""
    sizes = tuple(_integer(f"{what} size", m, 1) for m in sizes)
    _reject_repeats(what, sizes)
    small = [m for m in sizes if m < dims.users]
    if small:
        raise ValueError(f"{what} has sizes below its {dims.users} users: {small}")
    for m in sizes:
        replace(dims, antennas=m)
    return sizes


def _has_link(snr_db: float) -> bool:
    """Whether ``snr_db`` dB has a finite positive linear SNR, by the rule of the runner's links."""
    try:
        return LinkBudget.from_snr_db(snr_db).snr > 0.0
    except (OverflowError, ValueError):
        return False


@dataclass(frozen=True)
class Scenario:
    """One reproducible experiment: geometry, SNR grid, schemes, seed, and the
    array sizes of its delay-spread sweep.

    Every check a run needs is made here, before any draw.  The sweep's
    sizes are distinct integers, none below the user count, each a valid
    array size of ``dims``.  A sparse scenario's steering phase ramp must be
    finite on its largest array, its own or a swept one.  The samples of all
    realizations at every SNR point must fit in physical memory.
    """

    name: str
    dims: SystemDims
    snr_db: tuple[float, ...]
    realizations: int = 200
    schemes: tuple[str, ...] = ()
    channel_model: str = "rich"
    sparse: SparseChannelConfig | None = None
    master_seed: int = DEFAULT_SEED
    antenna_sweep: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "snr_db", tuple(float(s) for s in self.snr_db))
        object.__setattr__(self, "schemes", tuple(self.schemes))
        if not self.name:
            raise ValueError("scenario needs a name")
        object.__setattr__(self, "realizations", _integer("realizations", self.realizations, 1))
        # derive_seed keeps 64 bits, so a seed outside them would repeat another's draws
        seed = _integer("master seed", self.master_seed, 0, _SEED_MASK + 1)
        object.__setattr__(self, "master_seed", seed)
        if not self.snr_db:
            raise ValueError("SNR grid is empty")
        unusable = [f"{snr:g} dB" for snr in self.snr_db if not _has_link(snr)]
        if unusable:
            raise ValueError(f"SNR grid has non-finite or zero linear SNRs: {', '.join(unusable)}")
        _reject_repeats("SNR grid", self.snr_db)
        if 8 * self.realizations * len(self.snr_db) > _MEMORY_BYTES:
            raise ValueError(
                f"{self.realizations} realizations x {len(self.snr_db)} SNR points of 8-byte "
                f"samples need more than the {_MEMORY_BYTES} bytes of memory"
            )
        _reject_repeats("scheme list", self.schemes)
        unknown = [s for s in self.schemes if s not in SCHEMES]
        if unknown:
            raise ValueError(f"unknown schemes {unknown}; valid: {', '.join(SCHEMES)}")
        if self.channel_model not in _MODEL_LABEL:
            raise ValueError(f"unknown channel model {self.channel_model!r}")
        if self.channel_model == "sparse":
            if self.sparse is None:
                object.__setattr__(self, "sparse", SparseChannelConfig())
        elif self.sparse is not None:
            raise ValueError("sparse config given for a non-sparse channel model")
        sweep = _sweep_sizes(f"antenna_sweep of {self.name}", self.antenna_sweep, self.dims)
        object.__setattr__(self, "antenna_sweep", sweep)
        if self.sparse is not None:
            # the steepest ramp of any draw: cos(angle) = 1 on the largest array
            steering_vector(max((self.dims.antennas, *sweep)), 0.0, self.sparse.spacing_ratio)


@dataclass(frozen=True)
class ResultRow:
    """One aggregated number: a (scenario, scheme, SNR, metric) cell."""

    scenario: str
    scheme: str
    snr_db: float
    metric: str
    value: float
    stderr: float
    realizations: int
    seed: int


@dataclass(frozen=True)
class RunResult:
    """Aggregated rows plus the bookkeeping the exit-code contract needs.

    ``rows`` are the schemes' rows and ``sweep`` the delay-spread rows of
    the antenna sweep, if one was asked for; iterating gives ``rows``.
    """

    rows: tuple[ResultRow, ...]
    realizations: int
    failures: int
    sweep: tuple[ResultRow, ...] = ()

    @property
    def failure_fraction(self) -> float:
        return self.failures / self.realizations

    def __iter__(self):
        return iter(self.rows)


def _stderr(data: np.ndarray) -> np.ndarray:
    """Standard error of the mean over the last axis of ``data``; 0 for a single sample."""
    count = data.shape[-1]
    if count < 2:
        return np.zeros(data.shape[:-1])
    return np.std(data, axis=-1, ddof=1) / np.sqrt(count)


def derive_seed(master: int, *parts: int) -> int:
    """Stable child seed from a master seed and an integer path."""
    entropy = [int(master) & _SEED_MASK] + [int(p) & _SEED_MASK for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


def realization_seed(scenario: Scenario, index: int) -> int:
    """Seed for one realization; the array size is part of the derivation path."""
    model = _MODEL_LABEL[scenario.channel_model]
    return derive_seed(scenario.master_seed, model, scenario.dims.antennas, int(index))


@cache
def _profile(taps: int, users: int) -> PowerDelayProfile:
    """``exponential_pdp(taps, users)``, built once per process and shared by the draws."""
    return exponential_pdp(taps, users)


def draw_realization(scenario: Scenario, index: int) -> ChannelRealization:
    """Draw the channel for one realization of a scenario."""
    dims = scenario.dims
    pdp = _profile(dims.taps, dims.users)
    seed = realization_seed(scenario, index)
    if scenario.channel_model == "sparse":
        return draw_sparse(dims, pdp, scenario.sparse, seed)
    return draw_rich(dims, pdp, seed)


# The combiners whose effective delay spread is swept; ``siso`` is the
# unprocessed per-antenna baseline.
_RMS_COMBINERS = ("mf", "rf_1tap", "rf_ltap")
_RMS_QUANTILES = (5, 25, 50, 75, 95)


# The schemes that read the raw reduction alone (see ``_evaluate_chunk``).
_RAW_SCHEMES = ("capacity", "zf", "mf", "mf+zf")


def _metrics(scheme: str) -> tuple[str, ...]:
    """The metrics of a scheme's rows, in the order its values hold them."""
    if scheme == "capacity":
        return ("capacity",)
    if scheme == "zf" or scheme.endswith("+zf"):
        return ("rate",)
    return ("rate", "capacity")


def _gram_reduction(lags: list[np.ndarray], num_subcarriers: int) -> Tridiagonal:
    """``hermitian_reduction`` of the Grams of ``lags`` (``lag_products`` that
    share their leading axes and column count), stacked on a new first axis.
    Each Gram is written into its slot of one array, which is freed on return."""
    lead, cols = lags[0].shape[:-3], lags[0].shape[-1]
    grams = np.empty((len(lags), *lead, num_subcarriers, cols, cols), dtype=complex)
    for products, gram in zip(lags, grams):
        gram_of_lags(products, num_subcarriers, out=gram)
    return hermitian_reduction(grams)


def _tap_whitened(effective: EffectiveChannel) -> tuple[TapSequence, np.ndarray]:
    """The effective taps of a one-tap combiner ``W_0``, whitened against the
    noise covariance ``C = W_0 W_0^H`` that all its subcarriers share, and
    the mask of the draws whose ``C`` is singular (their taps read zero)."""
    w0 = effective.combiner.taps.taps[..., 0, :, :]
    cov = w0 @ np.conj(np.swapaxes(w0, -1, -2))
    white, singular = whiten(effective.taps.taps, cov[..., None, :, :])
    return TapSequence(effective.taps.offset, white), np.any(singular, axis=-1)


def _evaluate_chunk(
    scenario: Scenario, channels: list[ChannelRealization], spreads: bool = False
) -> list[tuple[dict, dict | None]]:
    """Per channel draw: per scheme, its ``(len(_metrics(scheme)), len(snr_db))``
    values, or ``None`` on a draw where the scheme fails; and, if ``spreads``
    is set, the RMS delay spreads of the swept combiners and ``siso``, else
    ``None``.

    Everything after the draws is one stacked computation over the chunk,
    and each scheme is evaluated once.  Every log-det rate reads the whole
    SNR grid from one Hermitian reduction (``hermitian_reduction``) per
    Gram, and the chunk's Grams share one reduction: the raw Gram, from the
    raw lag products ``R_d = sum_i H_i^H H_{i+d}`` (``lag_products``); each
    other combiner base's effective Gram; and the whitened Gram of each
    ``base+zf`` whose combiner has one tap.  The matched filter reads the raw
    ones alone: its tap ``-l`` is ``H_l^H / sqrt(M)``, so its effective taps
    are ``R_d / sqrt(M)``, its Gram is ``R(k)^2 / M`` (``squared_rates``) and
    its noise covariance ``R(k) / M``.  Rates keep the combined noise at its
    exact covariance ``C``, so an invertible ZF baseband ``B`` drops out of
    them, ``(BG)^H (BCB^H)^{-1} (BG) = G^H C^{-1} G``, and ZF is only a rank
    check: ``zf`` and ``mf+zf`` both read ``G^H C^{-1} G = R(k)``, and
    ``base+zf`` the colored-noise rate of its effective channel, whitened
    once per draw where a one-tap combiner's ``C`` is the same on every
    subcarrier (``_tap_whitened``), else bin by bin (``spectral_rates``).  A
    failure is a per-draw mask charged to its own scheme: a rank lost on
    some subcarrier, or a singular ``C`` (NaN rates).
    """
    k = scenario.dims.subcarriers
    snrs = [LinkBudget.from_snr_db(s).snr for s in scenario.snr_db]
    scale = 1.0 / np.sqrt(scenario.dims.antennas)
    raw = TapSequence.stack([channel.taps for channel in channels])
    stacked = replace(channels[0], taps=raw)
    no_failures = np.zeros(len(channels), dtype=bool)

    @cache
    def raw_lags() -> np.ndarray:
        return lag_products(raw)

    @cache
    def build(base: str) -> EffectiveChannel:
        return effective_channel(_COMBINERS[base](stacked), stacked)

    @cache
    def pdp(base: str) -> EffectivePdp:
        if base != "mf":
            return pdp_of_effective(build(base))
        return EffectivePdp(np.moveaxis(np.abs(scale * raw_lags()) ** 2, -3, -1), 1 - raw.span)

    # the raw Gram (key None) if a scheme reads it, then each other base's
    # effective Gram, then the whitened Gram of each one-tap base+zf (key: the scheme)
    lags = {None: raw_lags()} if set(_RAW_SCHEMES) & set(scenario.schemes) else {}
    bases = dict.fromkeys(s.removesuffix("+zf") for s in scenario.schemes if s not in _RAW_SCHEMES)
    lags.update((base, lag_products(build(base).taps)) for base in bases)
    tap_whitened = {
        base: _tap_whitened(build(base))
        for base in bases
        if f"{base}+zf" in scenario.schemes and build(base).combiner.taps.span == 1
    }
    lags.update((f"{base}+zf", lag_products(taps)) for base, (taps, _) in tap_whitened.items())
    if lags:
        reduced = _gram_reduction(list(lags.values()), k)
        white = dict(zip(lags, np.swapaxes(reduced_rates(reduced, snrs), 0, 1)))
        screen = {key: reduced[i] for i, key in enumerate(lags)}
    if {"zf", "mf+zf"} & set(scenario.schemes):
        raw_failed = first_rank_deficient(raw, k, screen[None]) >= 0

    def evaluate(scheme: str) -> tuple[list[np.ndarray], np.ndarray]:
        """``_metrics(scheme)``'s ``(len(snrs), draws)`` values, and the mask of failed draws."""
        if scheme == "capacity":
            return [white[None]], no_failures
        if scheme in ("zf", "mf+zf"):
            return [white[None]], raw_failed
        # every link of the grid has unit noise variance: its transmit power is its SNR
        if scheme == "mf":
            # the MF's taps summed as combiner_noise_power sums them, in its tap order
            noise = np.sum(np.abs(scale * raw.taps[..., ::-1, :, :]) ** 2, axis=(-3, -2))
            squared = squared_rates(screen[None], [snr / scenario.dims.antennas for snr in snrs])
            return [sinr_sum_rates(pdp("mf"), noise, snrs), squared], no_failures
        base = scheme.removesuffix("+zf")
        effective = build(base)
        if base == scheme:
            noise = combiner_noise_power(effective.combiner, 1.0)
            return [sinr_sum_rates(pdp(base), noise, snrs), white[base]], no_failures
        if base in tap_whitened:
            rates = np.where(tap_whitened[base][1], np.nan, white[scheme])
        else:
            rates = spectral_rates(effective.spectrum, effective.noise_cov_spectrum, snrs)
        rank = first_rank_deficient(effective.taps, k, screen[base])
        return [rates], (rank >= 0) | np.isnan(rates[0])

    outcomes: list[dict] = [{} for _ in channels]
    for scheme in scenario.schemes:
        series, failed = evaluate(scheme)
        values = np.stack(series)
        for draw, outcome in enumerate(outcomes):
            outcome[scheme] = None if failed[draw] else values[..., draw]
    if not spreads:
        return [(outcome, None) for outcome in outcomes]
    swept = {base: delay_spread_report(pdp(base))[1] for base in _RMS_COMBINERS}
    power = np.moveaxis(np.abs(raw.taps) ** 2, -3, -1)
    swept["siso"] = delay_moments(power, raw.offset)[1].reshape(len(channels), -1)
    return [
        (outcome, {name: values[draw] for name, values in swept.items()})
        for draw, outcome in enumerate(outcomes)
    ]


def _scenario_block(args) -> list:
    """Worker entry: evaluate a block of realization indices, chunk by chunk.

    ``args`` is ``(scenario, indices, dump_dir, spreads)``; the result holds
    one ``(index, outcome, spreads)`` per realization, as ``_evaluate_chunk``
    returns them.
    """
    scenario, indices, dump_dir, spreads = args
    out = []
    for _, group in groupby(indices, key=lambda index: index // CHUNK):
        chunk = list(group)
        channels = []
        for index in chunk:
            channel = draw_realization(scenario, index)
            if dump_dir is not None:
                path = os.path.join(dump_dir, f"{scenario.name}_r{index:04d}.txt")
                dump_channel(
                    channel, path, realization_seed(scenario, index), scenario.channel_model
                )
            channels.append(channel)
        evaluated = _evaluate_chunk(scenario, channels, spreads)
        out += [(index, *pair) for index, pair in zip(chunk, evaluated)]
    return out


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument, a whole number of at least 1, capped
    by the HYBEAM_THREADS variable."""
    cap = None
    raw = os.environ.get(WORKER_ENV_VAR)
    if raw is not None:
        try:
            cap = int(raw)
        except ValueError:
            raise ValueError(f"{WORKER_ENV_VAR} must be an integer, got {raw!r}") from None
        if cap < 1:
            raise ValueError(f"{WORKER_ENV_VAR} must be positive")
    if workers is None:
        resolved = cap if cap is not None else 1
    else:
        resolved = _integer("worker count", workers, 1)
        if cap is not None:
            resolved = min(resolved, cap)
    return resolved


def __getattr__(name: str):
    # the process pool and ``multiprocessing`` behind it are imported on first
    # use, so a serial run never loads them
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _run_blocks(task, payloads: list, workers: int) -> list:
    """Run work payloads serially or across one process pool of at most one
    worker per payload; one result per payload, in order.

    The pool class is the module attribute at call time, so a class set on
    the module after import (as perfbench's span tracer sets one) is used.
    """
    if workers <= 1 or len(payloads) <= 1:
        return [task(p) for p in payloads]
    pool_class = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
    with pool_class(max_workers=min(workers, len(payloads))) as pool:
        return list(pool.map(task, payloads))


def _split_indices(count: int, workers: int) -> list[range]:
    """At most ``workers`` ranges of consecutive indices, each a union of whole
    chunks; the first ``chunks % blocks`` of them hold one chunk more."""
    chunks = -(-count // CHUNK)
    blocks = min(workers, chunks)
    size, extra = divmod(chunks, blocks)
    bounds = [CHUNK * (i * size + min(i, extra)) for i in range(blocks + 1)]
    return [range(start, min(stop, count)) for start, stop in zip(bounds, bounds[1:])]


def run_scenario(
    scenario: Scenario,
    workers: int | None = None,
    dump_dir: str | None = None,
) -> RunResult:
    """Evaluate a scenario over all realizations and aggregate per metric.

    A scheme whose linear algebra degenerates in a realization contributes no
    sample from it, so each row's ``realizations`` is its own scheme's sample
    count; ``failures`` counts the realizations in which any scheme failed,
    and the caller decides how many are tolerable.  A scheme left without a
    single sample raises.  ``dump_dir`` receives the channels the schemes
    are evaluated on.

    The scenario's ``antenna_sweep`` adds the delay-spread study of
    ``rms_study`` at those array sizes to the same pass, as
    ``RunResult.sweep``.  At the scenario's own size the sweep reads the
    chunks the schemes are evaluated on; every other size is drawn and
    evaluated by the same worker entry, in the same process pool, so every
    (size, realization) pair is drawn once.  Output is identical for any
    worker count.
    """
    workers = resolve_workers(workers)
    grid = scenario.antenna_sweep
    own = scenario.dims.antennas
    sized = {own: scenario} if scenario.schemes or own in grid else {}
    for antennas in grid:
        dims = replace(scenario.dims, antennas=antennas)
        sized.setdefault(antennas, replace(scenario, dims=dims, schemes=(), antenna_sweep=()))
    blocks = _split_indices(scenario.realizations, workers)
    payloads = [
        (sub, block, dump_dir if sub.schemes else None, antennas in grid)
        for antennas, sub in sized.items()
        for block in blocks
    ]
    results = _run_blocks(_scenario_block, payloads, workers)
    samples: dict[str, list[np.ndarray]] = {scheme: [] for scheme in scenario.schemes}
    spreads: dict[int, list[dict]] = {antennas: [] for antennas in grid}
    failures = 0
    for (sub, *_), block in zip(payloads, results):
        for _, outcome, swept in block:
            failures += any(values is None for values in outcome.values())
            for scheme, values in outcome.items():
                if values is not None:
                    samples[scheme].append(values)
            if swept is not None:
                spreads[sub.dims.antennas].append(swept)
    empty = [scheme for scheme, drawn in samples.items() if not drawn]
    if empty:
        raise SingularMatrixError(
            f"all {scenario.realizations} realizations of {scenario.name} failed "
            f"for {', '.join(empty)}"
        )
    rows = []
    for scheme, drawn in samples.items():
        # one row per (metric, snr) cell, each cell's samples contiguous
        cells = np.stack(drawn, axis=-1).reshape(-1, len(drawn))
        keys = [(metric, snr) for metric in _metrics(scheme) for snr in scenario.snr_db]
        for (metric, snr), mean, err in zip(keys, cells.mean(axis=-1), _stderr(cells)):
            rows.append(_row(scenario, scheme, snr, metric, mean, err, len(drawn)))
    return RunResult(
        rows=tuple(rows),
        realizations=scenario.realizations,
        failures=failures,
        sweep=_sweep_rows(scenario, spreads),
    )


def _row(scenario: Scenario, scheme: str, snr_db: float, metric: str, value, err, count: int):
    return ResultRow(
        scenario=scenario.name,
        scheme=scheme,
        snr_db=float(snr_db),
        metric=metric,
        value=float(value),
        stderr=float(err),
        realizations=count,
        seed=scenario.master_seed,
    )


def _sweep_rows(scenario: Scenario, spreads: dict[int, list[dict]]) -> tuple[ResultRow, ...]:
    """Per array size and swept combiner, the ``rms_mean`` over realizations
    and the quantiles of the per-user spreads pooled over them."""
    rows = []
    for antennas, draws in spreads.items():
        for scheme in _RMS_COMBINERS + ("siso",):
            per_draw = np.stack([swept[scheme] for swept in draws])
            means = per_draw.mean(axis=-1)
            # the means are read, so the quantiles may partition the stack in
            # place instead of a copy: the same order statistics, the same bytes
            quantiles = np.percentile(per_draw, _RMS_QUANTILES, overwrite_input=True)
            cells = [("rms_mean", means.mean(), _stderr(means))] + [
                (f"rms_cdf_q{q:02d}", value, 0.0) for q, value in zip(_RMS_QUANTILES, quantiles)
            ]
            rows += [
                _row(scenario, scheme, antennas, metric, value, err, scenario.realizations)
                for metric, value, err in cells
            ]
    return tuple(rows)


def rms_study(
    antenna_grid, scenario: Scenario, workers: int | None = None
) -> list[ResultRow]:
    """Mean and distribution of the effective RMS delay spread versus array size.

    For each antenna count the per-user spread of every combiner is pooled
    over realizations; the per-antenna-element channels give the unprocessed
    baseline (scheme ``siso``).  The antenna count is reported in the
    ``snr_db`` column, which doubles as the sweep axis for these rows.  This
    is ``run_scenario``'s sweep without the scenario's schemes: the grid is
    checked as ``Scenario.antenna_sweep``, every (size, realization) pair is
    drawn once, and the whole sweep shares one worker pool.
    """
    swept = replace(scenario, schemes=(), antenna_sweep=antenna_grid)
    return list(run_scenario(swept, workers).sweep)


@dataclass(frozen=True)
class ClosedFormCheck:
    """One closed-form check: a simulated value against an allowed interval."""

    name: str
    value: float
    lower: float
    upper: float
    reference: float | None = None

    @property
    def passed(self) -> bool:
        return self.lower <= self.value <= self.upper

    @property
    def rel_error(self) -> float:
        if self.reference is None or self.reference == 0.0:
            return float("nan")
        return abs(self.value - self.reference) / abs(self.reference)

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        detail = f"value={self.value:.6g} bounds=[{self.lower:.6g}, {self.upper:.6g}]"
        if self.reference is not None:
            detail += f" target={self.reference:.6g} rel_err={100.0 * self.rel_error:.2f}%"
        return f"{verdict} {self.name}: {detail}"


@dataclass(frozen=True)
class ValidationReport:
    """All closed-form checks for one scenario."""

    checks: tuple[ClosedFormCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def render(self) -> str:
        lines = [check.line() for check in self.checks]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"{verdict}: {sum(c.passed for c in self.checks)}/{len(self.checks)} checks passed")
        return "\n".join(lines)


# The schemes whose rows the closed forms are checked against.
VALIDATED_SCHEMES = ("rf_1tap", "rf_ltap")
# The sweep sizes whose mean delay spreads are checked; each is four times
# the one before it.
VALIDATED_SWEEP = (25, 100, 400)
# Relative tolerance of each simulated rate and capacity against its limit.
_LIMIT_RTOL = 0.05
# Allowed mean-spread ratio when the array grows fourfold (1/sqrt(4) = 0.5).
_RMS_RATIO_BOUNDS = (0.40, 0.62)


def validate_closed_forms(scenario: Scenario, rows) -> ValidationReport:
    """Check a section's own rows against the large-array limits.

    ``rows`` are the scenario's ``ResultRow``s from its run and its
    ``rms_study``.  They must hold the ``rate`` and ``capacity`` of both
    constant-modulus combiners (``VALIDATED_SCHEMES``) at every SNR point,
    which are compared with their limits at a relative tolerance, and the
    ``rms_mean`` of every swept combiner at each size of ``VALIDATED_SWEEP``,
    which must fall inside the ``c/sqrt(M)`` envelopes and shrink by about
    half from one size to the next.  Nothing is simulated here.
    """
    if scenario.channel_model != "rich":
        raise ValueError("closed-form validation assumes the rich channel model")
    dims = scenario.dims
    pdp = exponential_pdp(dims.taps, dims.users)
    by_key = {(r.scheme, r.metric, r.snr_db): r.value for r in rows}
    missing = [
        f"{scheme} {metric}@{snr:g}dB"
        for snr in scenario.snr_db
        for scheme in VALIDATED_SCHEMES
        for metric in ("rate", "capacity")
        if (scheme, metric, snr) not in by_key
    ] + [
        f"{scheme} rms_mean@M{m}"
        for scheme in _RMS_COMBINERS
        for m in VALIDATED_SWEEP
        if (scheme, "rms_mean", m) not in by_key
    ]
    if missing:
        raise ValueError(f"validation needs rows the run lacks: {', '.join(missing)}")
    checks: list[ClosedFormCheck] = []
    for snr in scenario.snr_db:
        link = LinkBudget.from_snr_db(snr)
        for scheme, model in (("rf_ltap", MODEL_LTAP), ("rf_1tap", MODEL_1TAP)):
            target = predict(link, dims.antennas, pdp, model)
            for metric, reference in (("rate", target.sum_rate), ("capacity", target.capacity)):
                checks.append(
                    ClosedFormCheck(
                        name=f"{scheme}_{metric}@{snr:g}dB",
                        value=by_key[(scheme, metric, snr)],
                        lower=reference * (1.0 - _LIMIT_RTOL),
                        upper=reference * (1.0 + _LIMIT_RTOL),
                        reference=reference,
                    )
                )
    lower_env, upper_env = delay_spread_envelopes(np.asarray(VALIDATED_SWEEP, dtype=float))
    for scheme in _RMS_COMBINERS:
        means = {m: by_key[(scheme, "rms_mean", m)] for m in VALIDATED_SWEEP}
        for m, low, high in zip(VALIDATED_SWEEP, lower_env, upper_env):
            checks.append(
                ClosedFormCheck(
                    name=f"rms_envelope_{scheme}@M{m}",
                    value=means[m],
                    lower=float(low),
                    upper=float(high),
                )
            )
        for small, large in zip(VALIDATED_SWEEP, VALIDATED_SWEEP[1:]):
            checks.append(
                ClosedFormCheck(
                    name=f"rms_ratio_{scheme}@M{large}vsM{small}",
                    value=means[large] / means[small],
                    lower=_RMS_RATIO_BOUNDS[0],
                    upper=_RMS_RATIO_BOUNDS[1],
                    reference=0.5,
                )
            )
    return ValidationReport(checks=tuple(checks))


@dataclass(frozen=True)
class Preset:
    """A named ready-to-run scenario of the catalog, with its description."""

    scenario: Scenario
    description: str = ""


DEFAULT_DIMS = SystemDims(antennas=100, users=4, taps=4, subcarriers=128)
DEFAULT_SNR_GRID = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)


def _preset_scenario(name: str, schemes: tuple[str, ...], **overrides) -> Scenario:
    base = dict(
        name=name,
        dims=DEFAULT_DIMS,
        snr_db=DEFAULT_SNR_GRID,
        schemes=schemes,
    )
    base.update(overrides)
    return Scenario(**base)


PRESETS: dict[str, Preset] = {
    "fig2": Preset(
        _preset_scenario("fig2", ("capacity", "mf", "zf")),
        description="fully digital baselines: capacity, matched filter, zero forcing",
    ),
    "fig3": Preset(
        _preset_scenario("fig3", ("mf", "rf_1tap", "rf_ltap")),
        description="constant-modulus RF sum rates against the matched filter",
    ),
    "fig4": Preset(
        _preset_scenario("fig4", ("capacity", "rf_1tap", "rf_ltap")),
        description="capacity of the effective channel under RF combining",
    ),
    "fig5": Preset(
        _preset_scenario("fig5", (), snr_db=(10.0,), antenna_sweep=(20, 25, 100, 400, 500)),
        description="RMS delay spread of the effective channel versus array size",
    ),
    "fig6": Preset(
        _preset_scenario(
            "fig6",
            ("capacity", "rf_1tap", "rf_1tap+zf", "heuristic_1tap", "heuristic_1tap+zf"),
        ),
        description="single-tap alignment against the tap-sum heuristic, with and without ZF",
    ),
    "fig7": Preset(
        _preset_scenario(
            "fig7",
            ("capacity", "rf_1tap", "rf_1tap+zf"),
            dims=SystemDims(antennas=100, users=4, taps=1, subcarriers=128),
        ),
        description="flat-fading sanity check with a single channel tap",
    ),
    "fig8": Preset(
        _preset_scenario(
            "fig8",
            ("capacity", "rf_1tap", "rf_ltap", "rf_1tap+zf", "rf_ltap+zf"),
            channel_model="sparse",
            sparse=SparseChannelConfig(),
        ),
        description="clustered sparse channel, five paths per delay cluster",
    ),
}
