"""Scenario runner: reproducibility, aggregation, presets, validation."""

import re
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybeam import beamforming, channel, experiments, metrics, numerics
from hybeam.beamforming import effective_channel, zf_baseband, zf_spectrum
from hybeam.channel import PowerDelayProfile, SparseChannelConfig, SystemDims, channel_spectrum
from hybeam.experiments import (
    PRESETS,
    _evaluate_chunk,
    _metrics,
    ClosedFormCheck,
    Scenario,
    ValidationReport,
    draw_realization,
    realization_seed,
    resolve_workers,
    rms_study,
    run_scenario,
    validate_closed_forms,
)
from hybeam.metrics import (
    LinkBudget,
    achievable_rate_hybrid,
    capacity,
    delay_spread_report,
    pdp_of_effective,
    rate_spectral,
    sinr_sum_rates,
    spectral_rates,
)
from hybeam.numerics import TapSequence

SMALL_DIMS = SystemDims(antennas=24, users=3, taps=4, subcarriers=32)


def evaluate_draw(scenario, channel):
    """Per scheme, its ``(metric, snr)`` values for one channel draw (a chunk
    of one), or ``None`` where it fails."""
    outcome = _evaluate_chunk(scenario, [channel])[0][0]
    return {
        scheme: None if values is None else {
            (metric, snr): float(value)
            for metric, row in zip(_metrics(scheme), values)
            for snr, value in zip(scenario.snr_db, row)
        }
        for scheme, values in outcome.items()
    }


def small_scenario(**overrides):
    base = dict(
        name="small",
        dims=SMALL_DIMS,
        snr_db=(0.0, 10.0),
        realizations=6,
        schemes=("capacity", "rf_ltap", "rf_ltap+zf"),
        master_seed=99,
    )
    base.update(overrides)
    return Scenario(**base)


class TestScenarioValidation:
    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown schemes"):
            small_scenario(schemes=("capacity", "mmse"))

    def test_empty_snr_grid(self):
        with pytest.raises(ValueError):
            small_scenario(snr_db=())

    def test_non_finite_snr_rejected(self):
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="non-finite"):
                small_scenario(snr_db=(0.0, bad))

    def test_snr_points_without_a_linear_snr_rejected(self):
        # 10^400 overflows a float and 10^-400 underflows to zero: neither
        # point has a link, and the error names every such point
        for grid, named in (((0.0, 4000.0), "4000 dB"), ((-4000.0, 10.0), "-4000 dB")):
            with pytest.raises(ValueError, match=f"non-finite or zero linear SNRs: {named}$"):
                small_scenario(snr_db=grid)
        with pytest.raises(ValueError, match="4000 dB, -4000 dB"):
            small_scenario(snr_db=(4000.0, -4000.0))
        assert small_scenario(snr_db=(-3000.0, 3000.0)).snr_db == (-3000.0, 3000.0)

    def test_master_seed_must_be_a_64_bit_integer(self):
        # derive_seed keeps 64 bits: -1 would draw as 2**64 - 1, and 2**64 + 5 as 5
        assert experiments.derive_seed(-1, 1) == experiments.derive_seed(2**64 - 1, 1)
        for bad in (-1, 2**64, 2**64 + 5, 2.0, True, "5", None):
            with pytest.raises(ValueError, match="master seed"):
                small_scenario(master_seed=bad)
        for good in (0, 2**64 - 1, np.uint64(2**64 - 1)):
            s = small_scenario(master_seed=good)
            assert type(s.master_seed) is int and s.master_seed == int(good)

    def test_realizations_must_be_a_positive_integer(self):
        for bad in (2.5, 1.0, True, "3", 0, -1):
            with pytest.raises(ValueError):
                small_scenario(realizations=bad)
        s = small_scenario(realizations=np.int64(3))
        assert type(s.realizations) is int
        assert run_scenario(s).realizations == 3

    def test_realizations_beyond_memory_rejected_before_any_draw(self, monkeypatch):
        def never_draw(*args, **kwargs):
            raise AssertionError("a channel was drawn")

        monkeypatch.setattr(experiments, "draw_realization", never_draw)
        # 8 bytes per realization and SNR point: half the memory passes at 2 points
        fits = channel._MEMORY_BYTES // 16
        assert small_scenario(realizations=fits, schemes=()).realizations == fits
        with pytest.raises(ValueError, match=r"realizations x 2 SNR points .* bytes of memory"):
            small_scenario(realizations=fits + 1)
        with pytest.raises(ValueError, match="1000000000000 realizations"):
            run_scenario(replace(small_scenario(), realizations=10**12))

    def test_huge_counts_split_without_a_per_chunk_array(self):
        blocks = experiments._split_indices(10**12, 3)
        assert [(b.start, b.stop) for b in blocks] == [
            (0, 333_333_333_336),
            (333_333_333_336, 666_666_666_672),
            (666_666_666_672, 10**12),
        ]

    def test_repeated_snr_points_rejected(self):
        for grid in ((0.0, 0.0, 5.0), (5.0, 0.0, 5), (0.0, -0.0)):
            with pytest.raises(ValueError, match="SNR grid repeats"):
                small_scenario(snr_db=grid)

    def test_repeats_of_a_long_grid_found_in_linear_time(self):
        grid = tuple(1e-4 * i for i in range(200_000)) + (5.0,)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^SNR grid repeats 5\.0$"):
            experiments._reject_repeats("SNR grid", grid)
        assert time.perf_counter() - start < 0.5
        with pytest.raises(ValueError, match=r"^list repeats 1, 3$"):
            experiments._reject_repeats("list", (3, 1, 2, 3, 1, 3))

    def test_repeated_schemes_rejected(self):
        with pytest.raises(ValueError, match="scheme list repeats capacity"):
            small_scenario(schemes=("capacity", "rf_ltap", "capacity"))

    def test_sparse_config_only_for_sparse_model(self):
        with pytest.raises(ValueError):
            small_scenario(sparse=SparseChannelConfig())

    def test_sparse_model_gets_default_config(self):
        s = small_scenario(channel_model="sparse")
        assert s.sparse == SparseChannelConfig()

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            small_scenario(channel_model="rician")


class TestSeeds:
    def test_realization_seeds_distinct(self):
        s = small_scenario()
        seeds = {realization_seed(s, i) for i in range(50)}
        assert len(seeds) == 50

    def test_seed_depends_on_model_and_antennas(self):
        rich = small_scenario()
        sparse = small_scenario(channel_model="sparse")
        assert realization_seed(rich, 0) != realization_seed(sparse, 0)
        wider = replace(rich, dims=replace(SMALL_DIMS, antennas=48))
        assert realization_seed(rich, 0) != realization_seed(wider, 0)

    def test_draws_reproducible(self):
        s = small_scenario()
        a = draw_realization(s, 3)
        b = draw_realization(s, 3)
        np.testing.assert_array_equal(a.taps.taps, b.taps.taps)

    def test_antenna_override_changes_shape(self):
        ch = draw_realization(small_scenario(dims=replace(SMALL_DIMS, antennas=48)), 0)
        assert ch.taps.taps.shape[1] == 48


class TestRunScenario:
    def test_single_realization_matches_direct_computation(self):
        s = small_scenario(realizations=1, schemes=("capacity",))
        result = run_scenario(s)
        ch = draw_realization(s, 0)
        grid = channel_spectrum(ch)
        for row in result.rows:
            direct = capacity(grid, LinkBudget.from_snr_db(row.snr_db))
            # the runner's Gram comes from lag products, this one from the DFT:
            # they agree to roundoff, not bit for bit
            assert row.value == pytest.approx(direct, rel=1e-12, abs=0.0)
            assert row.stderr == 0.0
            assert row.realizations == 1
            assert row.seed == 99

    def test_each_spectrum_computed_once(self, monkeypatch):
        # per chunk, one stacked DFT, the effective spectrum that rf_ltap's
        # ZF stage whitens bin by bin; five stacked lag products, one per Gram: the raw
        # channel's, both bases' effective ones and rf_1tap's effective taps
        # whitened against its one-tap noise covariance, then rf_ltap's noise
        # covariance; and no (K, M, U) array while the rank screen passes
        dfts, grams = [], []

        def counting(original, calls):
            def counted(seq, *args, **kwargs):
                calls.append(seq.taps.shape[:-3] + seq.shape)
                return original(seq, *args, **kwargs)

            return counted

        def no_channel_spectrum(*args, **kwargs):
            raise AssertionError("the runner formed the channel's spectrum")

        counted_dft = counting(numerics.dft_of_taps, dfts)
        counted_gram = counting(numerics.lag_products, grams)
        for module in (numerics, channel, beamforming, experiments):
            if hasattr(module, "dft_of_taps"):
                monkeypatch.setattr(module, "dft_of_taps", counted_dft)
            if hasattr(module, "lag_products"):
                monkeypatch.setattr(module, "lag_products", counted_gram)
        monkeypatch.setattr(channel, "channel_spectrum", no_channel_spectrum)
        chunk = experiments.CHUNK
        s = small_scenario(
            realizations=chunk + 3,
            schemes=PRESETS["fig8"].scenario.schemes,
            channel_model="sparse",
        )
        out = experiments._scenario_block((s, list(range(chunk + 3)), None, False))
        assert [index for index, _, _ in out] == list(range(chunk + 3))
        assert all(v is not None for _, values, _ in out for v in values.values())
        users, antennas = SMALL_DIMS.users, SMALL_DIMS.antennas
        assert dfts == [(chunk, users, users), (3, users, users)]
        per_chunk = [(antennas, users)] + [(users, users)] * 3 + [(antennas, users)]
        assert grams == [(draws, *shape) for draws in (chunk, 3) for shape in per_chunk]
        # the raw rank check of zf shares the capacity's Gram and needs no DFT
        dfts.clear()
        grams.clear()
        evaluate_draw(replace(s, schemes=("capacity", "zf")), draw_realization(s, 0))
        assert dfts == []
        assert grams == [(1, antennas, users)]
        # nor do the RF-only schemes' capacities
        grams.clear()
        evaluate_draw(replace(s, schemes=("rf_1tap", "rf_ltap")), draw_realization(s, 0))
        assert dfts == []
        assert grams == [(1, users, users)] * 2

    def test_fig2_chunk_makes_one_gram_and_one_reduction(self, monkeypatch):
        # capacity, zf and the MF's capacity all read the raw Gram's reduction,
        # and the MF's effective taps are the raw lag products: no convolution
        grams, reductions = [], []

        def counting(original, calls):
            def counted(mats, *args, **kwargs):
                calls.append(mats.shape)
                return original(mats, *args, **kwargs)

            return counted

        def no_convolution(*args, **kwargs):
            raise AssertionError("the runner convolved a combiner with the channel")

        monkeypatch.setattr(experiments, "gram_of_lags", counting(numerics.gram_of_lags, grams))
        monkeypatch.setattr(
            experiments, "hermitian_reduction", counting(experiments.hermitian_reduction, reductions)
        )
        monkeypatch.setattr(beamforming, "circular_convolve", no_convolution)
        chunk = experiments.CHUNK
        s = small_scenario(realizations=chunk + 3, schemes=PRESETS["fig2"].scenario.schemes)
        out = experiments._scenario_block((s, list(range(chunk + 3)), None, False))
        assert all(v is not None for _, values, _ in out for v in values.values())
        users, taps, k = SMALL_DIMS.users, SMALL_DIMS.taps, SMALL_DIMS.subcarriers
        assert grams == [(draws, 2 * taps - 1, users, users) for draws in (chunk, 3)]
        assert reductions == [(1, draws, k, users, users) for draws in (chunk, 3)]

    @pytest.mark.parametrize("model", ["rich", "sparse"])
    def test_mf_taps_and_capacity_come_from_the_raw_lag_products(self, monkeypatch, model):
        # the MF's power profile, from R_d / sqrt(M), against that of its
        # convolution with the channel, and its capacity, read from the raw
        # reduction, against the capacity of the convolved taps' spectrum
        profiles = []

        def capturing(pdp, *args):
            profiles.append(pdp)
            return original(pdp, *args)

        original = experiments.sinr_sum_rates
        monkeypatch.setattr(experiments, "sinr_sum_rates", capturing)
        s = small_scenario(schemes=("mf",), channel_model=model)
        channels = [draw_realization(s, index) for index in range(3)]
        outcomes = _evaluate_chunk(s, channels)
        raw = TapSequence.stack([ch.taps for ch in channels])
        stacked = replace(channels[0], taps=raw)
        k = SMALL_DIMS.subcarriers
        expected = numerics.circular_convolve(beamforming.mf_combiner(stacked).taps, raw, k)
        power = np.moveaxis(np.abs(expected.taps) ** 2, -3, -1)
        (got,) = profiles
        assert got.offset == expected.offset
        assert np.max(np.abs(got.power - power)) <= 1e-12 * np.max(power)
        for index, (outcome, _) in enumerate(outcomes):
            spectrum = numerics.dft_of_taps(expected[index], k)
            direct = [capacity(spectrum, LinkBudget.from_snr_db(snr)) for snr in s.snr_db]
            np.testing.assert_allclose(outcome["mf"][1], direct, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("model", ["rich", "sparse"])
    def test_matched_filter_rows_build_no_combiner(self, monkeypatch, model):
        # mf and mf+zf read the raw taps and the raw reduction alone: no MF
        # combiner, no combiner noise power and no per-subcarrier rate, and
        # mf+zf's rates and failures are zf's.  Against the explicit MF
        # combiner, its convolution and its noise power, the values agree
        # to roundoff
        s = small_scenario(
            snr_db=(-10.0, 10.0, 30.0),
            schemes=("capacity", "zf", "mf", "mf+zf"),
            channel_model=model,
        )
        channels = [draw_realization(s, index) for index in range(3)]

        def forbidden(*args, **kwargs):
            raise AssertionError("the runner built a matched-filter path it does not need")

        for name in ("mf_combiner", "combiner_noise_power", "spectral_rates"):
            monkeypatch.setattr(experiments, name, forbidden)
        outcomes = _evaluate_chunk(s, channels, spreads=True)
        monkeypatch.undo()
        snrs = [LinkBudget.from_snr_db(snr).snr for snr in s.snr_db]
        for ch, (values, spreads) in zip(channels, outcomes):
            np.testing.assert_array_equal(values["mf+zf"], values["zf"])
            combiner = beamforming.mf_combiner(ch)
            profile = pdp_of_effective(effective_channel(combiner, ch))
            noise = beamforming.combiner_noise_power(combiner, 1.0)
            np.testing.assert_allclose(
                values["mf"][0], sinr_sum_rates(profile, noise, snrs), rtol=1e-12, atol=0.0
            )
            np.testing.assert_allclose(
                spreads["mf"], delay_spread_report(profile)[1], rtol=1e-12, atol=0.0
            )

    @pytest.mark.parametrize("model", ["rich", "sparse"])
    def test_zf_rates_equal_the_explicit_zf_stage(self, model):
        # an invertible baseband drops out of the exact colored-noise rate, so
        # the runner reads ZF rates without building the ZF stage
        bases = ("mf", "rf_1tap", "rf_ltap", "heuristic_1tap", "bank_2L")
        s = small_scenario(
            snr_db=(-10.0, 10.0, 30.0),
            schemes=("zf",) + tuple(f"{base}+zf" for base in bases),
            channel_model=model,
        )
        for index in range(3):
            ch = draw_realization(s, index)
            values = evaluate_draw(s, ch)
            grid = channel_spectrum(ch)
            links = [LinkBudget.from_snr_db(snr) for snr in s.snr_db]
            explicit = [rate_spectral(zf_spectrum(grid), grid, link) for link in links]
            for snr, rate in zip(s.snr_db, explicit):
                assert values["zf"][("rate", snr)] == pytest.approx(rate, rel=1e-12)
            for base in bases:
                eff = effective_channel(experiments._COMBINERS[base](ch), ch)
                bb = zf_baseband(eff)
                for snr, link in zip(s.snr_db, links):
                    assert values[f"{base}+zf"][("rate", snr)] == pytest.approx(
                        achievable_rate_hybrid(eff, bb, link), rel=1e-12
                    )

    @staticmethod
    def _degenerate_even_draws(monkeypatch, odd_too=False):
        # even realizations (odd ones too if asked) get two identical users, so
        # every ZF stage on them is singular: the raw channel and every
        # effective channel alike
        original = experiments.draw_realization

        def degenerate(scenario, index):
            ch = original(scenario, index)
            if index % 2 and not odd_too:
                return ch
            taps = ch.taps.taps.copy()
            taps[:, :, 1] = taps[:, :, 0]
            return replace(ch, taps=TapSequence(0, taps))

        monkeypatch.setattr(experiments, "draw_realization", degenerate)

    def test_rows_are_the_mean_and_stderr_of_each_draws_values(self, monkeypatch):
        # each row reads its own (metric, snr) cell of the draws that kept
        # the scheme, with the arithmetic of a 1-D sample: bit for bit
        self._degenerate_even_draws(monkeypatch)
        s = small_scenario(realizations=11, schemes=("capacity", "rf_ltap", "rf_ltap+zf"))
        per_draw = [evaluate_draw(s, experiments.draw_realization(s, i)) for i in range(11)]
        for row in run_scenario(s, workers=1).rows:
            data = np.array([
                values[row.scheme][(row.metric, row.snr_db)]
                for values in per_draw
                if values[row.scheme] is not None
            ])
            assert row.realizations == data.size == (5 if row.scheme.endswith("zf") else 11)
            assert row.value == data.mean()
            assert row.stderr == np.std(data, ddof=1) / np.sqrt(data.size)

    def test_singular_realizations_are_counted(self, monkeypatch):
        # a failure is charged to the failing scheme alone: capacity keeps
        # every sample while the ZF schemes keep the odd realizations.  In
        # rf_ltap+zf the duplicated user also makes the combined noise
        # covariance singular, which above LDL_MAX_ORDER is whiten's Cholesky
        # path on a stack that mixes good and singular draws
        self._degenerate_even_draws(monkeypatch)
        singular_draws = []
        original = metrics.whiten

        def recorded(signal, noise_cov):
            white, singular = original(signal, noise_cov)
            singular_draws.append((signal.shape[-2], np.any(singular, axis=-1).tolist()))
            return white, singular

        monkeypatch.setattr(metrics, "whiten", recorded)
        for users in (SMALL_DIMS.users, numerics.LDL_MAX_ORDER + 1):
            dims = replace(SMALL_DIMS, users=users)
            for schemes in (("capacity", "zf"), ("capacity", "rf_ltap+zf"), ("mf+zf",)):
                result = run_scenario(small_scenario(dims=dims, schemes=schemes), workers=1)
                assert result.failures == 3
                assert result.rows
                for row in result.rows:
                    assert row.realizations == (6 if row.scheme == "capacity" else 3)
                    assert np.isfinite(row.value)
        mixed = [True, False] * 3
        assert singular_draws == [(SMALL_DIMS.users, mixed), (numerics.LDL_MAX_ORDER + 1, mixed)]

    def test_failing_draws_cost_no_second_evaluation(self, monkeypatch):
        # a chunk with failing draws still gets one rank check per raw or
        # effective channel and one rate evaluation per scheme: the failures
        # are masks, not re-evaluations
        self._degenerate_even_draws(monkeypatch)
        checked, rated = [], []

        def counting(original, calls, lead):
            def counted(*args, **kwargs):
                calls.append(lead(args[0]))
                return original(*args, **kwargs)

            return counted

        monkeypatch.setattr(
            experiments,
            "first_rank_deficient",
            counting(experiments.first_rank_deficient, checked, lambda seq: seq.taps.shape[0]),
        )
        monkeypatch.setattr(
            experiments,
            "spectral_rates",
            counting(experiments.spectral_rates, rated, lambda signal: signal.shape[0]),
        )
        chunk = experiments.CHUNK
        s = small_scenario(
            realizations=chunk + 3,
            schemes=("capacity", "zf", "rf_ltap", "rf_ltap+zf", "mf+zf"),
        )
        out = experiments._scenario_block((s, list(range(chunk + 3)), None, False))
        assert [index for index, _, _ in out] == list(range(chunk + 3))
        # per chunk, zf and mf+zf share the raw check and rf_ltap+zf has its
        # own; only rf_ltap+zf rates bin by bin
        assert checked == [chunk] * 2 + [3] * 2
        assert rated == [chunk] + [3]
        for index, values, _ in out:
            for scheme, keyed in values.items():
                failed = index % 2 == 0 and scheme.endswith("zf")
                assert (keyed is None) == failed, (index, scheme)

    def test_failing_scheme_keeps_rows_in_scheme_order(self, monkeypatch):
        # the ZF scheme comes first but first succeeds in realization 1, after
        # capacity has recorded realization 0; its rows still come first, and
        # the surviving samples are exactly those of a run without the failure
        self._degenerate_even_draws(monkeypatch)
        s = small_scenario(schemes=("rf_ltap+zf", "capacity"))
        rows = run_scenario(s, workers=1).rows
        assert [(r.scheme, r.metric, r.snr_db) for r in rows] == [
            ("rf_ltap+zf", "rate", 0.0),
            ("rf_ltap+zf", "rate", 10.0),
            ("capacity", "capacity", 0.0),
            ("capacity", "capacity", 10.0),
        ]
        alone = run_scenario(replace(s, schemes=("capacity",)), workers=1).rows
        assert rows[2:] == alone

    def test_scheme_without_samples_raises_and_names_it(self, monkeypatch):
        self._degenerate_even_draws(monkeypatch, odd_too=True)
        with pytest.raises(numerics.SingularMatrixError, match="rf_ltap\\+zf"):
            run_scenario(small_scenario(schemes=("capacity", "rf_ltap+zf")), workers=1)

    def test_near_singular_raw_channel_gets_a_rate(self, monkeypatch):
        # a second user 1e-9 away from the first gives sigma ratios of 1-2e-9:
        # the Gram screen cannot tell, the SVD test accepts, so the realization
        # counts and its zf rate is its capacity
        original = experiments.draw_realization

        def near(scenario, index):
            ch = original(scenario, index)
            if index % 2:
                return ch
            taps = ch.taps.taps.copy()
            rng = np.random.default_rng(index)
            shape = taps[:, :, 0].shape
            nudge = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            taps[:, :, 1] = taps[:, :, 0] + 1e-9 * nudge
            return replace(ch, taps=TapSequence(0, taps))

        monkeypatch.setattr(experiments, "draw_realization", near)
        result = run_scenario(small_scenario(schemes=("capacity", "zf")), workers=1)
        assert result.failures == 0
        assert all(row.realizations == 6 for row in result.rows)
        rows = {(row.scheme, row.snr_db): row.value for row in result.rows}
        for snr in (0.0, 10.0):
            assert rows[("zf", snr)] == rows[("capacity", snr)]

    @staticmethod
    def _plant_subcarrier_failures(monkeypatch, dims):
        # realizations 0 and 3: users 0 and 1 coincide on subcarrier 5 alone;
        # realizations 1 and 4: taps [a, -2a, a], whose response vanishes on
        # subcarrier 0 alone
        original = experiments.draw_realization

        def planted(scenario, index):
            ch = original(scenario, index)
            taps = ch.taps.taps.copy()
            if index % 3 == 0:
                h = numerics.dft_of_taps(ch.taps, dims.subcarriers)[5]
                taps[0, :, 1] += h[:, 0] - h[:, 1]
            elif index % 3 == 1:
                taps[1] = -2.0 * taps[0]
                taps[2] = taps[0]
            else:
                return ch
            return replace(ch, taps=TapSequence(0, taps))

        monkeypatch.setattr(experiments, "draw_realization", planted)
        return planted

    def test_planted_subcarrier_fails_zf_alone(self, monkeypatch):
        # zf fails on the four planted draws, naming the subcarrier that the
        # SVD-only test on the DFT names; capacity keeps every sample
        dims = SystemDims(antennas=24, users=3, taps=3, subcarriers=32)
        planted = self._plant_subcarrier_failures(monkeypatch, dims)
        named = []
        check = experiments.first_rank_deficient

        def recorded(seq, *args):
            first = check(seq, *args)
            named.extend(first.tolist())
            return first

        monkeypatch.setattr(experiments, "first_rank_deficient", recorded)
        s = small_scenario(dims=dims, schemes=("capacity", "zf"))
        result = run_scenario(s, workers=1)
        assert result.failures == 4
        # one rank check of the whole chunk, one verdict per draw
        assert named == [5, 0, -1, 5, 0, -1]
        for row in result.rows:
            assert row.realizations == (6 if row.scheme == "capacity" else 2)
        for index in range(s.realizations):
            subcarrier = named[index]
            grid = numerics.dft_of_taps(planted(s, index).taps, dims.subcarriers)
            singvals = np.linalg.svd(grid, compute_uv=False)
            failing = ~(singvals[:, -1] > numerics.SINGULARITY_RTOL * singvals[:, 0])
            assert np.flatnonzero(failing).tolist() == ([] if subcarrier < 0 else [subcarrier])

    def test_effective_response_vanished_to_roundoff_fails_its_zf_stage(self, monkeypatch):
        # realization 1 has taps [a, -2a, a]: its raw response is exactly zero
        # on subcarrier 0, where rf_ltap's effective response is roundoff with
        # singular values of one size.  The per-matrix test would keep it;
        # against the scale of the sequence it fails, so rf_ltap+zf drops the
        # draw while capacity and rf_ltap keep it
        dims = SystemDims(antennas=24, users=3, taps=3, subcarriers=32)
        planted = self._plant_subcarrier_failures(monkeypatch, dims)
        s = small_scenario(dims=dims, schemes=("capacity", "rf_ltap", "rf_ltap+zf"))
        ch = planted(s, 1)
        effective = effective_channel(experiments._COMBINERS["rf_ltap"](ch), ch)
        singvals = np.linalg.svd(effective.spectrum[0], compute_uv=False)
        scale = effective.taps.span * np.sum(np.abs(effective.taps.taps) ** 2)
        assert singvals[0] < 1e-12 * np.sqrt(scale)
        assert singvals[-1] > numerics.SINGULARITY_RTOL * singvals[0]
        alone = evaluate_draw(s, ch)
        assert {scheme for scheme, values in alone.items() if values is None} == {"rf_ltap+zf"}
        assert numerics.first_rank_deficient(effective.taps, dims.subcarriers) == 0

    def test_sweep_shares_the_runs_draws_and_pool(self, monkeypatch):
        # the sweep's size 24 is the scenario's own: it reads the run's
        # chunks, so every (size, realization) pair is drawn once, one pool
        # serves every size, and the rows are those of the separate calls
        s = small_scenario(realizations=experiments.CHUNK + 3)
        grid = (16, 24, 40)
        alone = run_scenario(s, workers=1)
        swept = tuple(rms_study(grid, s, workers=1))
        draws, pools = [], []
        original = experiments.draw_realization

        def draw(scenario, index):
            draws.append((index, scenario.dims.antennas))
            return original(scenario, index)

        class CountedPool(experiments.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(experiments, "draw_realization", draw)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountedPool)
        combined = run_scenario(replace(s, antenna_sweep=grid), workers=1)
        assert sorted(draws) == sorted((i, m) for i in range(s.realizations) for m in grid)
        assert combined.rows == alone.rows
        assert combined.sweep == swept
        assert combined.failures == alone.failures
        for workers in (2, 3):
            assert run_scenario(replace(s, antenna_sweep=grid), workers=workers) == combined
        assert pools == [2, 3]

    def test_planted_subcarrier_failures_above_the_threshold(self, monkeypatch):
        # above LDL_MAX_ORDER, zf and mf+zf share the raw rank check, and
        # rf_ltap+zf takes whiten's Cholesky path (a singular C in a mixed
        # stack is test_singular_realizations_are_counted's).  All three
        # fail on all four planted draws (rf_ltap's effective response
        # vanishes to roundoff where the raw one vanishes), exactly as when
        # each draw is evaluated alone
        dims = SystemDims(antennas=16, users=numerics.LDL_MAX_ORDER + 1, taps=3, subcarriers=32)
        planted = self._plant_subcarrier_failures(monkeypatch, dims)
        s = small_scenario(dims=dims, schemes=("capacity", "zf", "mf+zf", "rf_ltap+zf"))
        result = run_scenario(s, workers=1)
        assert result.failures == 4
        samples = {"capacity": 6, "zf": 2, "mf+zf": 2, "rf_ltap+zf": 2}
        for row in result.rows:
            assert row.realizations == samples[row.scheme]
            assert np.isfinite(row.value)
        for index in range(s.realizations):
            alone = evaluate_draw(s, planted(s, index))
            failed = {scheme for scheme, values in alone.items() if values is None}
            expected = {"zf", "mf+zf", "rf_ltap+zf"}
            assert failed == (expected if index % 3 < 2 else set()), index

    def test_orders_above_the_threshold_match_the_eigenvalue_oracle(self):
        # U above LDL_MAX_ORDER takes the eigenvalue path; rebuild every
        # rate from DFT grids, explicit inverses and eigvalsh
        users = numerics.LDL_MAX_ORDER + 1
        dims = SystemDims(antennas=3 * users, users=users, taps=2, subcarriers=8)
        s = small_scenario(
            dims=dims, realizations=3, schemes=("capacity", "zf", "rf_ltap", "rf_ltap+zf")
        )
        snrs = 10.0 ** (np.asarray(s.snr_db) / 10.0)[:, None, None]

        def log2det(gram):
            return np.mean(np.sum(np.log2(1.0 + snrs * np.linalg.eigvalsh(gram)), axis=-1), axis=-1)

        expected = {}
        for index in range(s.realizations):
            ch = draw_realization(s, index)
            h = channel_spectrum(ch)
            w = numerics.dft_of_taps(experiments._COMBINERS["rf_ltap"](ch).taps, dims.subcarriers)
            g = w @ h
            quad = np.conj(np.swapaxes(g, 1, 2)) @ np.linalg.inv(w @ np.conj(np.swapaxes(w, 1, 2))) @ g
            for key, gram in (
                (("capacity", "capacity"), np.conj(np.swapaxes(h, 1, 2)) @ h),
                (("zf", "rate"), np.conj(np.swapaxes(h, 1, 2)) @ h),
                (("rf_ltap", "capacity"), np.conj(np.swapaxes(g, 1, 2)) @ g),
                (("rf_ltap+zf", "rate"), 0.5 * (quad + np.conj(np.swapaxes(quad, 1, 2)))),
            ):
                expected.setdefault(key, []).append(log2det(gram))
        rows = run_scenario(s).rows
        for row in rows:
            if (row.scheme, row.metric) in expected:
                series = np.mean(expected[(row.scheme, row.metric)], axis=0)
                assert row.value == pytest.approx(
                    series[s.snr_db.index(row.snr_db)], rel=1e-12, abs=0.0
                ), (row.scheme, row.metric)
        assert len([r for r in rows if (r.scheme, r.metric) in expected]) == 4 * len(s.snr_db)

    def test_runs_reproducible(self):
        s = small_scenario()
        assert run_scenario(s) == run_scenario(s)

    def test_rows_equal_at_any_worker_count_across_chunks(self):
        # two whole chunks and a partial one
        s = small_scenario(realizations=2 * experiments.CHUNK + 3, schemes=experiments.SCHEMES)
        serial = run_scenario(s, workers=1)
        assert run_scenario(s, workers=2) == serial
        assert run_scenario(s, workers=3) == serial

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(count=st.integers(1, 100), workers=st.integers(1, 8))
    def test_worker_blocks_are_unions_of_whole_chunks(self, count, workers):
        chunk = experiments.CHUNK
        blocks = experiments._split_indices(count, workers)
        assert 1 <= len(blocks) <= workers
        assert [index for block in blocks for index in block] == list(range(count))
        for block in blocks:
            assert block[0] % chunk == 0
            assert block[-1] == count - 1 or block[-1] % chunk == chunk - 1

    def test_parallel_equals_serial(self):
        s = small_scenario()
        serial = run_scenario(s, workers=1)
        parallel = run_scenario(s, workers=2)
        assert serial == parallel

    def test_row_bookkeeping(self):
        s = small_scenario()
        result = run_scenario(s)
        assert result.failures == 0
        assert result.realizations == s.realizations
        schemes = {row.scheme for row in result.rows}
        assert schemes == {"capacity", "rf_ltap", "rf_ltap+zf"}
        # rf-only schemes report both their rate and their effective capacity
        metrics = {row.metric for row in result.rows if row.scheme == "rf_ltap"}
        assert metrics == {"rate", "capacity"}
        for row in result.rows:
            assert row.realizations == s.realizations
            assert row.stderr > 0.0

    def test_every_scheme_runs(self):
        from hybeam.experiments import SCHEMES

        s = small_scenario(realizations=2, schemes=SCHEMES)
        result = run_scenario(s)
        assert {row.scheme for row in result.rows} == set(SCHEMES)

    def test_matched_filter_saturates_while_zf_tracks_capacity(self):
        s = small_scenario(
            name="sat",
            dims=SystemDims(antennas=64, users=4, taps=4, subcarriers=64),
            snr_db=(10.0, 30.0),
            realizations=15,
            schemes=("capacity", "mf", "zf"),
        )
        values = {(r.scheme, r.metric, r.snr_db): r.value for r in run_scenario(s).rows}
        mf_gain = values[("mf", "rate", 30.0)] - values[("mf", "rate", 10.0)]
        zf_gain = values[("zf", "rate", 30.0)] - values[("zf", "rate", 10.0)]
        assert mf_gain < 2.0
        assert zf_gain > 15.0
        assert values[("zf", "rate", 30.0)] == pytest.approx(
            values[("capacity", "capacity", 30.0)], rel=0.05
        )

    def test_workers_env_cap(self, monkeypatch):
        monkeypatch.setenv("HYBEAM_THREADS", "1")
        assert resolve_workers(8) == 1
        assert resolve_workers(None) == 1
        monkeypatch.setenv("HYBEAM_THREADS", "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(2) == 2
        monkeypatch.delenv("HYBEAM_THREADS")
        assert resolve_workers(None) == 1

    def test_workers_env_invalid(self, monkeypatch):
        monkeypatch.setenv("HYBEAM_THREADS", "lots")
        with pytest.raises(ValueError, match="HYBEAM_THREADS"):
            resolve_workers(None)
        monkeypatch.setenv("HYBEAM_THREADS", "0")
        with pytest.raises(ValueError):
            resolve_workers(None)


ZF_SCHEMES = ("zf", "mf+zf", "rf_1tap+zf", "rf_ltap+zf", "heuristic_1tap+zf", "bank_2L+zf")


@st.composite
def one_draw_scenarios(draw):
    """One-realization scenarios of random geometry, model, seed and SNR with
    the raw capacity and every ZF scheme."""
    taps = draw(st.integers(1, 4))
    users = draw(st.integers(1, 4))
    dims = SystemDims(
        antennas=draw(st.integers(users, 12)),
        users=users,
        taps=taps,
        subcarriers=2 * taps - 1 + draw(st.integers(0, 9)),
    )
    return small_scenario(
        dims=dims,
        snr_db=(float(draw(st.integers(-20, 40))),),
        realizations=1,
        schemes=("capacity",) + ZF_SCHEMES,
        channel_model=draw(st.sampled_from(["rich", "sparse"])),
        master_seed=draw(st.integers(0, 2**32 - 1)),
    )


ONE_TAP_ZF = ("rf_1tap+zf", "heuristic_1tap+zf")


class TestTapWhitenedZf:
    """A one-tap combiner's noise covariance ``W_0 W_0^H`` is the same on every
    subcarrier, so the runner whitens its effective taps once per draw."""

    @pytest.mark.parametrize("model", ["rich", "sparse"])
    @pytest.mark.parametrize(
        "dims",
        [
            SMALL_DIMS,
            replace(SMALL_DIMS, taps=1),
            SystemDims(antennas=24, users=numerics.LDL_MAX_ORDER + 1, taps=2, subcarriers=8),
        ],
        ids=["multi-tap", "L=1", "above LDL_MAX_ORDER"],
    )
    def test_equals_the_spectrum_whitened_per_subcarrier(self, monkeypatch, model, dims):
        s = small_scenario(
            dims=dims, snr_db=(-10.0, 10.0, 30.0), schemes=ONE_TAP_ZF, channel_model=model
        )
        channels = [draw_realization(s, index) for index in range(3)]

        def per_subcarrier(*args, **kwargs):
            raise AssertionError("a one-tap ZF scheme was whitened per subcarrier")

        monkeypatch.setattr(experiments, "spectral_rates", per_subcarrier)
        outcomes = _evaluate_chunk(s, channels)
        monkeypatch.undo()
        snrs = [LinkBudget.from_snr_db(snr).snr for snr in s.snr_db]
        for ch, (values, _) in zip(channels, outcomes):
            for scheme in ONE_TAP_ZF:
                eff = effective_channel(experiments._COMBINERS[scheme[:-3]](ch), ch)
                expected = spectral_rates(eff.spectrum, eff.noise_cov_spectrum, snrs)
                np.testing.assert_allclose(values[scheme][0], expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("users", [SMALL_DIMS.users, numerics.LDL_MAX_ORDER + 1])
    def test_planted_singular_noise_covariance_fails_its_draw_alone(self, monkeypatch, users):
        # users 0 and 1 of draw 1 share their leading tap up to a positive
        # factor, so rf_1tap gives them the same row and C_0 = W_0 W_0^H is
        # singular: rf_1tap+zf fails there and nothing else anywhere, both
        # with the rank screen and with a screen that passes every draw,
        # where the noise mask alone decides
        s = small_scenario(
            dims=replace(SMALL_DIMS, users=users),
            schemes=("capacity", "rf_1tap", "rf_ltap+zf") + ONE_TAP_ZF,
        )
        channels = [draw_realization(s, index) for index in range(3)]
        taps = channels[1].taps.taps.copy()
        taps[0, :, 1] = 2.0 * taps[0, :, 0]
        channels[1] = replace(channels[1], taps=TapSequence(0, taps))
        alone = [_evaluate_chunk(s, [ch])[0][0] for ch in channels]
        for unscreened in (False, True):
            if unscreened:
                monkeypatch.setattr(
                    experiments,
                    "first_rank_deficient",
                    lambda seq, k, reduced=None: np.full(seq.taps.shape[:-3], -1),
                )
            outcomes = [values for values, _ in _evaluate_chunk(s, channels)]
            for draw, values in enumerate(outcomes):
                for scheme, got in values.items():
                    assert (got is None) == (draw == 1 and scheme == "rf_1tap+zf"), (draw, scheme)
                    if got is not None:
                        np.testing.assert_allclose(got, alone[draw][scheme], rtol=1e-13, atol=0.0)


class TestRateProperties:
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(s=one_draw_scenarios())
    def test_zf_rates_never_exceed_the_raw_capacity(self, s):
        # combining cannot add information: every ZF rate is at most the
        # capacity of the draw it combines
        values = evaluate_draw(s, draw_realization(s, 0))
        snr = s.snr_db[0]
        cap = values["capacity"][("capacity", snr)]
        for scheme in ZF_SCHEMES:
            if values[scheme] is not None:
                assert values[scheme][("rate", snr)] <= cap * (1.0 + 1e-12), scheme

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(s=one_draw_scenarios(), data=st.data())
    def test_rates_do_not_depend_on_the_order_of_users(self, s, data):
        perm = list(data.draw(st.permutations(range(s.dims.users))))
        ch = draw_realization(s, 0)
        permuted = replace(
            ch,
            taps=TapSequence(0, ch.taps.taps[:, :, perm]),
            pdp=PowerDelayProfile(ch.pdp.gains[:, perm]),
        )
        values = evaluate_draw(s, ch)
        swapped = evaluate_draw(s, permuted)
        assert swapped.keys() == values.keys()
        for scheme, keyed in values.items():
            if keyed is None:
                assert swapped[scheme] is None, scheme
                continue
            for key, value in keyed.items():
                assert swapped[scheme][key] == pytest.approx(value, rel=1e-12, abs=0.0), scheme


class TestRmsStudy:
    def test_schema_and_sweep_axis(self):
        s = small_scenario(schemes=(), realizations=4)
        rows = rms_study((16, 64), s)
        schemes = {row.scheme for row in rows}
        assert schemes == {"mf", "rf_1tap", "rf_ltap", "siso"}
        metrics = {row.metric for row in rows}
        assert "rms_mean" in metrics
        assert "rms_cdf_q50" in metrics
        # the antenna count rides in the snr_db column for sweep rows
        assert {row.snr_db for row in rows} == {16.0, 64.0}

    def test_combining_shrinks_with_antennas_but_siso_does_not(self):
        s = small_scenario(schemes=(), realizations=12)
        rows = rms_study((16, 256), s)
        means = {(r.scheme, r.snr_db): r.value for r in rows if r.metric == "rms_mean"}
        for scheme in ("mf", "rf_1tap", "rf_ltap"):
            assert means[(scheme, 256.0)] < 0.5 * means[(scheme, 16.0)]
        siso_change = abs(means[("siso", 256.0)] - means[("siso", 16.0)])
        assert siso_change < 0.1 * means[("siso", 16.0)]

    def test_quantiles_ordered_and_tightening(self):
        s = small_scenario(schemes=(), realizations=30)
        rows = rms_study((16, 256), s)
        by = {(r.scheme, r.snr_db, r.metric): r.value for r in rows}
        for scheme in ("mf", "rf_1tap", "rf_ltap", "siso"):
            for m in (16.0, 256.0):
                quantiles = [by[(scheme, m, f"rms_cdf_q{q:02d}")] for q in (5, 25, 50, 75, 95)]
                assert all(b >= a for a, b in zip(quantiles, quantiles[1:]))
        for scheme in ("mf", "rf_1tap", "rf_ltap"):
            iqr_small = by[(scheme, 16.0, "rms_cdf_q75")] - by[(scheme, 16.0, "rms_cdf_q25")]
            iqr_large = by[(scheme, 256.0, "rms_cdf_q75")] - by[(scheme, 256.0, "rms_cdf_q25")]
            assert iqr_large < iqr_small

    def test_grid_it_cannot_honour_rejected_before_any_draw(self, monkeypatch):
        def never_draw(*args, **kwargs):
            raise AssertionError("a channel was drawn")

        monkeypatch.setattr(experiments, "draw_realization", never_draw)
        s = small_scenario(schemes=(), realizations=4)
        for grid, message in (
            ([25, 25], "antenna_sweep of small repeats 25"),
            ([16, 25.9], "size must be an integer in [1, inf), got 25.9"),
            ([25.0], "got 25.0"),
            ([True], "got True"),
            ([16, 2], "antenna_sweep of small has sizes below its 3 users: [2]"),
            ([16, 10**20], "a draw's 32 subcarriers x 100000000000000000000 antennas"),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                rms_study(grid, s)
            with pytest.raises(ValueError, match=re.escape(message)):
                replace(s, schemes=("capacity",), antenna_sweep=grid)

    def test_sparse_ramp_overflowing_at_a_swept_size_rejected_before_any_draw(self, monkeypatch):
        # 2*pi*spacing_ratio*m is finite up to m = 7, the largest element of
        # an 8-antenna array, and overflows by m = 15
        def never_draw(*args, **kwargs):
            raise AssertionError("a channel was drawn")

        monkeypatch.setattr(experiments, "draw_realization", never_draw)
        dims = replace(SMALL_DIMS, antennas=8)
        s = small_scenario(
            dims=dims, channel_model="sparse", sparse=SparseChannelConfig(spacing_ratio=5e306)
        )
        with pytest.raises(ValueError, match="phase ramp 2.pi.spacing_ratio.* m < 16"):
            replace(s, antenna_sweep=[16])
        with pytest.raises(ValueError, match="m < 16"):
            rms_study([8, 16], s)
        monkeypatch.undo()
        assert run_scenario(replace(s, realizations=2)).failures == 0

    def test_deterministic(self):
        s = small_scenario(schemes=(), realizations=3)
        assert rms_study((16,), s) == rms_study((16,), s)
        assert rms_study((16, 64), s, workers=2) == rms_study((16, 64), s, workers=1)


def validation_rows(scenario):
    """The rows a validated run holds: the scenario's own run of the RF schemes
    and its delay-spread sweep at the validated sizes."""
    run = run_scenario(replace(scenario, schemes=experiments.VALIDATED_SCHEMES))
    return list(run.rows) + rms_study(experiments.VALIDATED_SWEEP, scenario)


class TestValidation:
    def test_report_structure(self):
        s = small_scenario(
            dims=SystemDims(antennas=64, users=3, taps=4, subcarriers=32),
            snr_db=(0.0,),
            realizations=4,
        )
        report = validate_closed_forms(s, validation_rows(s))
        assert isinstance(report, ValidationReport)
        names = [check.name for check in report.checks]
        assert "rf_ltap_rate@0dB" in names
        assert "rf_1tap_capacity@0dB" in names
        assert "rms_envelope_mf@M25" in names
        text = report.render()
        assert "checks passed" in text
        assert all(line.startswith(("PASS", "FAIL")) for line in text.splitlines())

    def test_check_bounds_logic(self):
        good = ClosedFormCheck(name="x", value=1.02, lower=0.95, upper=1.05, reference=1.0)
        assert good.passed
        assert good.rel_error == pytest.approx(0.02)
        bad = ClosedFormCheck(name="x", value=1.2, lower=0.95, upper=1.05)
        assert not bad.passed

    def test_passes_at_large_array(self):
        s = Scenario(
            name="val",
            dims=SystemDims(antennas=2500, users=4, taps=4, subcarriers=128),
            snr_db=(0.0,),
            realizations=30,
            schemes=(),
            master_seed=7,
        )
        report = validate_closed_forms(s, validation_rows(s))
        assert report.passed, report.render()

    def test_ratio_checks_present_for_quadrupled_grid(self):
        s = small_scenario(snr_db=(0.0,), realizations=6)
        report = validate_closed_forms(s, validation_rows(s))
        names = [check.name for check in report.checks]
        assert "rms_ratio_mf@M100vsM25" in names
        assert "rms_ratio_mf@M400vsM100" in names

    def test_rejects_sparse_model(self):
        with pytest.raises(ValueError, match="rich"):
            validate_closed_forms(small_scenario(channel_model="sparse"), ())

    def test_rejects_rows_missing_a_grid_point(self):
        s = small_scenario(realizations=2)
        rows = validation_rows(s)
        for dropped, named in (
            (("rf_1tap", "rate", 10.0), "rf_1tap rate@10dB"),
            (("rf_ltap", "capacity", 0.0), "rf_ltap capacity@0dB"),
            (("mf", "rms_mean", 100.0), "mf rms_mean@M100"),
        ):
            kept = [r for r in rows if (r.scheme, r.metric, r.snr_db) != dropped]
            with pytest.raises(ValueError, match=named):
                validate_closed_forms(s, kept)


class TestPresets:
    def test_catalog_complete(self):
        assert list(PRESETS) == ["fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"]
        for name, preset in PRESETS.items():
            assert preset.scenario.name == name
            assert preset.description

    def test_default_geometry(self):
        dims = PRESETS["fig2"].scenario.dims
        assert (dims.antennas, dims.users, dims.taps, dims.subcarriers) == (100, 4, 4, 128)

    def test_sweep_preset(self):
        preset = PRESETS["fig5"]
        assert preset.scenario.antenna_sweep == (20, 25, 100, 400, 500)
        assert preset.scenario.schemes == ()

    def test_flat_fading_preset(self):
        assert PRESETS["fig7"].scenario.dims.taps == 1

    def test_sparse_preset(self):
        s = PRESETS["fig8"].scenario
        assert s.channel_model == "sparse"
        assert s.sparse.paths_per_cluster == 5
