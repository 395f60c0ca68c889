"""Scenario runner: reproducibility, aggregation, presets, validation."""

from dataclasses import replace

import numpy as np
import pytest

from hybeam import beamforming, channel, experiments, numerics
from hybeam.beamforming import effective_channel, zf_baseband, zf_spectrum
from hybeam.channel import SparseChannelConfig, SystemDims, channel_spectrum
from hybeam.experiments import (
    PRESETS,
    _evaluate_realization,
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
    combined_terms,
    spectral_rates,
)
from hybeam.numerics import TapSequence

SMALL_DIMS = SystemDims(antennas=24, users=3, taps=4, subcarriers=32)


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

    def test_realizations_must_be_a_positive_integer(self):
        for bad in (2.5, 1.0, True, "3", 0, -1):
            with pytest.raises(ValueError):
                small_scenario(realizations=bad)
        s = small_scenario(realizations=np.int64(3))
        assert type(s.realizations) is int
        assert run_scenario(s).realizations == 3

    def test_repeated_snr_points_rejected(self):
        for grid in ((0.0, 0.0, 5.0), (5.0, 0.0, 5), (0.0, -0.0)):
            with pytest.raises(ValueError, match="SNR grid repeats"):
                small_scenario(snr_db=grid)

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
        assert realization_seed(rich, 0) != realization_seed(rich, 0, antennas=48)

    def test_draws_reproducible(self):
        s = small_scenario()
        a = draw_realization(s, 3)
        b = draw_realization(s, 3)
        np.testing.assert_array_equal(a.taps.taps, b.taps.taps)

    def test_antenna_override_changes_shape(self):
        ch = draw_realization(small_scenario(), 0, antennas=48)
        assert ch.taps.taps.shape[1] == 48


class TestRunScenario:
    def test_single_realization_matches_direct_computation(self):
        s = small_scenario(realizations=1, schemes=("capacity",))
        result = run_scenario(s)
        ch = draw_realization(s, 0)
        grid = channel_spectrum(ch)
        for row in result.rows:
            direct = capacity(grid, LinkBudget.from_snr_db(row.snr_db))
            assert row.value == direct
            assert row.stderr == 0.0
            assert row.realizations == 1
            assert row.seed == 99

    def test_each_spectrum_computed_once(self, monkeypatch):
        # two DFTs, the effective spectra of both RF bases; three lag-product
        # Grams, the raw channel's and the noise covariance of each base that
        # feeds a ZF stage; and no (K, M, U) array while the rank screen passes
        dfts, grams = [], []

        def counting(original, calls):
            def counted(seq, *args, **kwargs):
                calls.append(seq.shape)
                return original(seq, *args, **kwargs)

            return counted

        def no_channel_spectrum(*args, **kwargs):
            raise AssertionError("the runner formed the channel's spectrum")

        counted_dft = counting(numerics.dft_of_taps, dfts)
        counted_gram = counting(numerics.gram_spectrum, grams)
        for module in (numerics, channel, beamforming, experiments):
            if hasattr(module, "dft_of_taps"):
                monkeypatch.setattr(module, "dft_of_taps", counted_dft)
            if hasattr(module, "gram_spectrum"):
                monkeypatch.setattr(module, "gram_spectrum", counted_gram)
        monkeypatch.setattr(channel, "channel_spectrum", no_channel_spectrum)
        s = small_scenario(
            realizations=1, schemes=PRESETS["fig8"].scenario.schemes, channel_model="sparse"
        )
        values = _evaluate_realization(s, 0)
        assert all(v is not None for v in values.values())
        users, antennas = SMALL_DIMS.users, SMALL_DIMS.antennas
        assert dfts == [(users, users)] * 2
        assert grams == [(antennas, users)] * 3
        # the raw rank check of zf shares the capacity's Gram and needs no DFT
        dfts.clear()
        grams.clear()
        _evaluate_realization(replace(s, schemes=("capacity", "zf")), 0)
        assert dfts == []
        assert grams == [(antennas, users)]

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
            values = _evaluate_realization(s, index)
            ch = draw_realization(s, index)
            grid = channel_spectrum(ch)
            links = [LinkBudget.from_snr_db(snr) for snr in s.snr_db]
            explicit = spectral_rates(
                *combined_terms(zf_spectrum(grid), grid), [link.snr for link in links]
            )
            for snr, rate in zip(s.snr_db, explicit):
                assert values["zf"][("rate", snr)] == pytest.approx(rate, rel=1e-12)
            for base in bases:
                eff = effective_channel(experiments._build_combiner(base, ch), ch)
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

        def degenerate(scenario, index, antennas=None):
            ch = original(scenario, index, antennas)
            if index % 2 and not odd_too:
                return ch
            taps = ch.taps.taps.copy()
            taps[:, :, 1] = taps[:, :, 0]
            return replace(ch, taps=TapSequence(0, taps))

        monkeypatch.setattr(experiments, "draw_realization", degenerate)

    def test_singular_realizations_are_counted(self, monkeypatch):
        # a failure is charged to the failing scheme alone: capacity keeps
        # every sample while the ZF schemes keep the odd realizations
        self._degenerate_even_draws(monkeypatch)
        for schemes in (("capacity", "zf"), ("capacity", "rf_ltap+zf"), ("mf+zf",)):
            result = run_scenario(small_scenario(schemes=schemes), workers=1)
            assert result.failures == 3
            assert result.rows
            for row in result.rows:
                assert row.realizations == (6 if row.scheme == "capacity" else 3)

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

        def near(scenario, index, antennas=None):
            ch = original(scenario, index, antennas)
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

    def test_planted_subcarrier_fails_zf_alone(self, monkeypatch):
        # realizations 0 and 3: users 0 and 1 coincide on subcarrier 5 alone;
        # realizations 1 and 4: taps [a, -2a, a], whose response vanishes on
        # subcarrier 0 alone.  zf fails on those four, naming the subcarrier
        # that the SVD-only test on the DFT names; capacity keeps every sample
        dims = SystemDims(antennas=24, users=3, taps=3, subcarriers=32)
        original = experiments.draw_realization

        def planted(scenario, index, antennas=None):
            ch = original(scenario, index, antennas)
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

        named = []
        check = experiments.require_full_column_rank

        def recorded(*args):
            try:
                check(*args)
            except numerics.SingularMatrixError as exc:
                named.append(exc.subcarrier)
                raise

        monkeypatch.setattr(experiments, "draw_realization", planted)
        monkeypatch.setattr(experiments, "require_full_column_rank", recorded)
        s = small_scenario(dims=dims, schemes=("capacity", "zf"))
        result = run_scenario(s, workers=1)
        assert result.failures == 4
        assert named == [5, 0, 5, 0]
        for row in result.rows:
            assert row.realizations == (6 if row.scheme == "capacity" else 2)
        for index, subcarrier in zip((0, 1, 3, 4), named):
            grid = numerics.dft_of_taps(planted(s, index).taps, dims.subcarriers)
            singvals = np.linalg.svd(grid, compute_uv=False)
            failing = ~(singvals[:, -1] > numerics.SINGULARITY_RTOL * singvals[:, 0])
            assert np.flatnonzero(failing).tolist() == [subcarrier]

    def test_runs_reproducible(self):
        s = small_scenario()
        assert run_scenario(s) == run_scenario(s)

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

    def test_deterministic(self):
        s = small_scenario(schemes=(), realizations=3)
        assert rms_study((16,), s) == rms_study((16,), s)
        assert rms_study((16, 64), s, workers=2) == rms_study((16, 64), s, workers=1)


def validation_rows(scenario):
    """The rows a validated run holds: the scenario's own run of the RF schemes."""
    return run_scenario(replace(scenario, schemes=experiments.VALIDATED_SCHEMES)).rows


class TestValidation:
    def test_report_structure(self):
        s = small_scenario(
            dims=SystemDims(antennas=64, users=3, taps=4, subcarriers=32),
            snr_db=(0.0,),
            realizations=4,
        )
        report = validate_closed_forms(s, validation_rows(s), rms_antenna_grid=(16,))
        assert isinstance(report, ValidationReport)
        names = [check.name for check in report.checks]
        assert "rf_ltap_rate@0dB" in names
        assert "rf_1tap_capacity@0dB" in names
        assert "rms_envelope_mf@M16" in names
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
        report = validate_closed_forms(s, validation_rows(s), rms_antenna_grid=())
        assert report.passed, report.render()

    def test_ratio_checks_present_for_quadrupled_grid(self):
        s = small_scenario(snr_db=(0.0,), realizations=6)
        report = validate_closed_forms(s, validation_rows(s), rms_antenna_grid=(16, 64))
        names = [check.name for check in report.checks]
        assert "rms_ratio_mf@M64vsM16" in names

    def test_rejects_sparse_model(self):
        with pytest.raises(ValueError, match="rich"):
            validate_closed_forms(small_scenario(channel_model="sparse"), ())

    def test_rejects_rows_missing_a_grid_point(self):
        s = small_scenario(realizations=2)
        rows = validation_rows(s)
        for dropped in (("rf_1tap", "rate", 10.0), ("rf_ltap", "capacity", 0.0)):
            kept = [r for r in rows if (r.scheme, r.metric, r.snr_db) != dropped]
            scheme, metric, snr = dropped
            with pytest.raises(ValueError, match=f"{scheme} {metric}@{snr:g}dB"):
                validate_closed_forms(s, kept, rms_antenna_grid=())


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
        assert preset.antenna_sweep == (20, 25, 100, 400, 500)
        assert preset.scenario.schemes == ()

    def test_flat_fading_preset(self):
        assert PRESETS["fig7"].scenario.dims.taps == 1

    def test_sparse_preset(self):
        s = PRESETS["fig8"].scenario
        assert s.channel_model == "sparse"
        assert s.sparse.paths_per_cluster == 5
