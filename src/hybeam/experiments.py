"""Monte-Carlo scenario runner and the preset benchmark catalog.

A scenario fixes the geometry, SNR grid, channel model, and scheme list; the
runner draws independent realizations from per-realization derived seeds,
evaluates every scheme on the shared draw, and aggregates means and standard
errors.  Realizations are evaluated in fixed chunks of ``CHUNK`` consecutive
indices, which workers never split, so the runner can fan them out across
processes without changing a single output bit.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cache
from itertools import groupby
from numbers import Integral

import numpy as np

from .beamforming import (
    CombinerIR,
    EffectiveChannel,
    combiner_noise_power,
    decompose_to_phase_banks,
    effective_channel,
    mf_combiner,
    rf_1tap,
    rf_1tap_sum_heuristic,
    rf_ltap,
    stack_effective,
)
from .channel import (
    ChannelRealization,
    SparseChannelConfig,
    SystemDims,
    _SEED_MASK,
    draw_rich,
    draw_sparse,
    dump_channel,
    exponential_pdp,
)
from .closed_forms import (
    MODEL_1TAP,
    MODEL_LTAP,
    delay_spread_envelopes,
    predict,
)
from .metrics import (
    LinkBudget,
    delay_moments,
    delay_spread_report,
    gram_rates,
    pdp_of_effective,
    sinr_sum_rates,
    spectral_rates,
)
from .numerics import SingularMatrixError, TapSequence, first_rank_deficient, gram_spectrum

WORKER_ENV_VAR = "HYBEAM_THREADS"
DEFAULT_SEED = 12345
# Realizations whose Gram-level work shares one stack: realization ``i``
# belongs to chunk ``i // CHUNK``.  Every chunk's arrays have the same
# shapes for any worker count, and the size bounds the stacks' memory.
CHUNK = 8

# Combiner base of every scheme name -> its builder.  Each builder looks its
# function up at call time, so a module function wrapped after import (as
# perfbench's span tracer does) is the one called.
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
    repeated = sorted({item for item in items if items.count(item) > 1})
    if repeated:
        raise ValueError(f"{what} repeats {', '.join(map(str, repeated))}")


def _integer(what: str, value, low: int, high: float = np.inf) -> int:
    """``value`` as an ``int`` in ``[low, high)``; booleans and non-integers are rejected."""
    if isinstance(value, bool) or not isinstance(value, Integral) or not low <= int(value) < high:
        raise ValueError(f"{what} must be an integer in [{low}, {high}), got {value!r}")
    return int(value)


def _has_link(snr_db: float) -> bool:
    """Whether ``snr_db`` dB has a finite positive linear SNR, by the rule of the runner's links."""
    try:
        return LinkBudget.from_snr_db(snr_db).snr > 0.0
    except (OverflowError, ValueError):
        return False


@dataclass(frozen=True)
class Scenario:
    """One reproducible experiment: geometry, SNR grid, schemes, seed."""

    name: str
    dims: SystemDims
    snr_db: tuple[float, ...]
    realizations: int = 200
    schemes: tuple[str, ...] = ()
    channel_model: str = "rich"
    sparse: SparseChannelConfig | None = None
    master_seed: int = DEFAULT_SEED

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
    """Aggregated rows plus the bookkeeping the exit-code contract needs."""

    rows: tuple[ResultRow, ...]
    realizations: int
    failures: int

    @property
    def failure_fraction(self) -> float:
        return self.failures / self.realizations

    def __iter__(self):
        return iter(self.rows)


def _stderr(data: np.ndarray) -> float:
    """Standard error of the mean of ``data``; 0 for a single sample."""
    return float(np.std(data, ddof=1) / np.sqrt(data.size)) if data.size > 1 else 0.0


def derive_seed(master: int, *parts: int) -> int:
    """Stable child seed from a master seed and an integer path."""
    entropy = [int(master) & _SEED_MASK] + [int(p) & _SEED_MASK for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


def realization_seed(scenario: Scenario, index: int, antennas: int | None = None) -> int:
    """Seed for one realization; the array size is part of the derivation path."""
    m = scenario.dims.antennas if antennas is None else int(antennas)
    return derive_seed(
        scenario.master_seed, _MODEL_LABEL[scenario.channel_model], m, int(index)
    )


def draw_realization(
    scenario: Scenario, index: int, antennas: int | None = None
) -> ChannelRealization:
    """Draw the channel for one realization of a scenario."""
    dims = scenario.dims
    if antennas is not None:
        dims = replace(dims, antennas=int(antennas))
    pdp = exponential_pdp(dims.taps, dims.users)
    seed = realization_seed(scenario, index, antennas)
    if scenario.channel_model == "sparse":
        return draw_sparse(dims, pdp, scenario.sparse, seed)
    return draw_rich(dims, pdp, seed)


def _evaluate_chunk(scenario: Scenario, channels: list[ChannelRealization]) -> list[dict]:
    """Per channel draw, per scheme, its ``(metric, snr)`` values, or ``None``
    on a draw where the scheme fails.

    Combiners, convolutions and the RF-only SINR rates are per draw; every
    Gram, spectrum, rank screen and log-det rate is one stacked computation
    over the chunk, and each scheme is evaluated once.  Every log-det rate
    covers the whole SNR grid.  Rates keep the combined noise at its exact
    covariance ``C``, so an invertible ZF baseband ``B`` drops out of them:
    ``(BG)^H (BCB^H)^{-1} (BG) = G^H C^{-1} G``.  ZF is therefore only a rank
    check here: ``zf`` has the raw capacity's rates (``W = H^+`` leaves
    ``H^H H``), and ``base+zf`` the colored-noise rate of the effective
    channel itself.  A failure is a per-draw mask, charged to its own scheme
    alone: ``zf`` fails on the draws whose raw channel loses rank on some
    subcarrier, and ``base+zf`` on those whose effective channel does or
    whose ``C`` is singular (NaN rates).  The raw ``H(k)^H H(k)`` comes from
    the channel's lag products (``gram_spectrum``), so no ``(K, M, U)``
    spectrum is formed unless the rank check doubts a subcarrier.
    """
    k = scenario.dims.subcarriers
    snrs = [LinkBudget.from_snr_db(s).snr for s in scenario.snr_db]
    raw = TapSequence.stack([channel.taps for channel in channels])
    no_failures = np.zeros(len(channels), dtype=bool)

    @cache
    def raw_gram() -> np.ndarray:
        return gram_spectrum(raw, k)

    @cache
    def raw_rates() -> np.ndarray:
        return gram_rates(raw_gram(), snrs)

    @cache
    def build(base: str) -> tuple[list[tuple[CombinerIR, EffectiveChannel]], EffectiveChannel]:
        pairs = []
        for channel in channels:
            combiner = _COMBINERS[base](channel)
            pairs.append((combiner, effective_channel(combiner, channel)))
        return pairs, stack_effective([effective for _, effective in pairs])

    def evaluate(scheme: str) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """Metric -> ``(len(snrs), draws)`` values, and the mask of failed draws."""
        if scheme == "capacity":
            return {"capacity": raw_rates()}, no_failures
        if scheme == "zf":
            return {"rate": raw_rates()}, first_rank_deficient(raw, k, raw_gram()) >= 0
        base = scheme.removesuffix("+zf")
        pairs, effective = build(base)
        if base != scheme:
            rates = spectral_rates(effective.spectrum, effective.noise_cov_spectrum, snrs)
            rank = first_rank_deficient(effective.taps, k, effective.gram)
            return {"rate": rates}, (rank >= 0) | np.isnan(rates[0])
        # every link of the grid has unit noise variance: its transmit power is its SNR
        sinr = [
            sinr_sum_rates(pdp_of_effective(eff), combiner_noise_power(combiner, 1.0), snrs)
            for combiner, eff in pairs
        ]
        capacities = gram_rates(effective.gram, snrs)
        return {"rate": np.stack(sinr, axis=-1), "capacity": capacities}, no_failures

    outcomes: list[dict] = [{} for _ in channels]
    for scheme in scenario.schemes:
        values, failed = evaluate(scheme)
        for draw, outcome in enumerate(outcomes):
            outcome[scheme] = None if failed[draw] else {
                (metric, snr): float(value)
                for metric, series in values.items()
                for snr, value in zip(scenario.snr_db, series[:, draw])
            }
    return outcomes


def _evaluate_realization(scenario: Scenario, channel: ChannelRealization) -> dict:
    """Per scheme, its ``(metric, snr)`` values for one channel draw: a chunk of one."""
    return _evaluate_chunk(scenario, [channel])[0]


def _scenario_block(args) -> list:
    """Worker entry: evaluate a block of realization indices, chunk by chunk."""
    scenario, indices, dump_dir = args
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
        out += zip(chunk, _evaluate_chunk(scenario, channels))
    return out


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument, capped by the HYBEAM_THREADS variable."""
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
        resolved = int(workers)
        if resolved < 1:
            raise ValueError("worker count must be positive")
        if cap is not None:
            resolved = min(resolved, cap)
    return resolved


def _run_blocks(task, payloads: list, workers: int) -> list:
    """Run work payloads serially or across processes; order-stable merge."""
    if workers <= 1 or len(payloads) <= 1:
        chunks = [task(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(task, payloads))
    merged = [item for chunk in chunks for item in chunk]
    merged.sort(key=lambda item: item[0])
    return merged


def _split_indices(count: int, workers: int) -> list[list[int]]:
    """At most ``workers`` blocks of consecutive indices, each a union of whole chunks."""
    chunks = -(-count // CHUNK)
    blocks = np.array_split(np.arange(chunks), min(workers, chunks))
    return [
        list(range(block[0] * CHUNK, min((block[-1] + 1) * CHUNK, count)))
        for block in blocks
        if block.size
    ]


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
    single sample raises.  Output is identical for any worker count.
    """
    workers = resolve_workers(workers)
    payloads = [
        (scenario, block, dump_dir)
        for block in _split_indices(scenario.realizations, workers)
    ]
    results = _run_blocks(_scenario_block, payloads, workers)
    samples: dict[str, dict[tuple[str, float], list[float]]] = {
        scheme: {} for scheme in scenario.schemes
    }
    failures = 0
    for _, outcome in results:
        failures += any(values is None for values in outcome.values())
        for scheme, values in outcome.items():
            for key, value in (values or {}).items():
                samples[scheme].setdefault(key, []).append(value)
    empty = [scheme for scheme, keyed in samples.items() if not keyed]
    if empty:
        raise SingularMatrixError(
            f"all {scenario.realizations} realizations of {scenario.name} failed "
            f"for {', '.join(empty)}"
        )
    rows = []
    for scheme, keyed in samples.items():
        for (metric, snr), values in keyed.items():
            data = np.asarray(values)
            rows.append(
                ResultRow(
                    scenario=scenario.name,
                    scheme=scheme,
                    snr_db=snr,
                    metric=metric,
                    value=float(data.mean()),
                    stderr=_stderr(data),
                    realizations=data.size,
                    seed=scenario.master_seed,
                )
            )
    return RunResult(rows=tuple(rows), realizations=scenario.realizations, failures=failures)


# The combiners whose effective delay spread is swept; ``siso`` is the
# unprocessed per-antenna baseline.
_RMS_COMBINERS = ("mf", "rf_1tap", "rf_ltap")
_RMS_QUANTILES = (5, 25, 50, 75, 95)


def _rms_block(args) -> list:
    scenario, antennas, indices = args
    out = []
    for index in indices:
        channel = draw_realization(scenario, index, antennas=antennas)
        samples: dict[str, np.ndarray] = {}
        for base in _RMS_COMBINERS:
            effective = effective_channel(_COMBINERS[base](channel), channel)
            samples[base] = delay_spread_report(pdp_of_effective(effective))[1]
        power = np.abs(channel.taps.taps.transpose(1, 2, 0)) ** 2
        samples["siso"] = delay_moments(power, channel.taps.offset)[1].ravel()
        out.append(((antennas, index), samples))
    return out


def rms_study(
    antenna_grid, scenario: Scenario, workers: int | None = None
) -> list[ResultRow]:
    """Mean and distribution of the effective RMS delay spread versus array size.

    For each antenna count the per-user spread of every combiner is pooled
    over realizations; the per-antenna-element channels give the unprocessed
    baseline (scheme ``siso``).  The antenna count is reported in the
    ``snr_db`` column, which doubles as the sweep axis for these rows.  Every
    (size, realization) pair is drawn once, and the whole sweep shares one
    worker pool.
    """
    workers = resolve_workers(workers)
    grid = [int(antennas) for antennas in antenna_grid]
    blocks = _split_indices(scenario.realizations, workers)
    payloads = [(scenario, antennas, block) for antennas in grid for block in blocks]
    merged = _run_blocks(_rms_block, payloads, workers)
    rows: list[ResultRow] = []
    for antennas in grid:
        results = [samples for (m, _), samples in merged if m == antennas]
        for scheme in _RMS_COMBINERS + ("siso",):
            pooled = np.concatenate([samples[scheme] for samples in results])
            means = np.array([samples[scheme].mean() for samples in results])
            cells = [("rms_mean", float(means.mean()), _stderr(means))] + [
                (f"rms_cdf_q{q:02d}", float(np.percentile(pooled, q)), 0.0)
                for q in _RMS_QUANTILES
            ]
            rows.extend(
                ResultRow(
                    scenario=scenario.name,
                    scheme=scheme,
                    snr_db=float(antennas),
                    metric=metric,
                    value=value,
                    stderr=err,
                    realizations=scenario.realizations,
                    seed=scenario.master_seed,
                )
                for metric, value, err in cells
            )
    return rows


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
    """A named ready-to-run scenario, optionally with an antenna sweep.

    Every sweep size is distinct and at least the scenario's user count.
    """

    scenario: Scenario
    antenna_sweep: tuple[int, ...] = ()
    description: str = ""

    def __post_init__(self):
        sweep = f"antenna_sweep of {self.scenario.name}"
        _reject_repeats(sweep, self.antenna_sweep)
        users = self.scenario.dims.users
        small = [m for m in self.antenna_sweep if m < users]
        if small:
            raise ValueError(f"{sweep} has sizes below its {users} users: {small}")


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
        _preset_scenario("fig5", (), snr_db=(10.0,)),
        antenna_sweep=(20, 25, 100, 400, 500),
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
