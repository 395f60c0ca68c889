"""Combiner constructions: structure, modulus contracts, composite responses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybeam import experiments
from hybeam.beamforming import (
    CombinerIR,
    EffectiveChannel,
    combiner_noise_power,
    decompose_to_phase_banks,
    effective_channel,
    mf_combiner,
    rf_1tap,
    rf_1tap_sum_heuristic,
    rf_ltap,
    zf_baseband,
    zf_spectrum,
)
from hybeam.channel import (
    ChannelRealization,
    SparseChannelConfig,
    SystemDims,
    channel_spectrum,
    complex_normal,
    draw_rich,
    draw_sparse,
    exponential_pdp,
    stream,
)
from hybeam.metrics import delay_spread_report, pdp_of_effective, sinr_sum_rates
from hybeam.numerics import SingularMatrixError, TapSequence, dft_of_taps

DIMS = SystemDims(antennas=16, users=3, taps=4, subcarriers=32)
# identity combiner on two antennas: white combined noise
WHITE = CombinerIR(TapSequence(0, np.eye(2, dtype=complex)[None]))


def rich(seed, dims=DIMS):
    return draw_rich(dims, exponential_pdp(dims.taps, dims.users), seed=seed)


def stack_channels(channels):
    """One channel whose taps stack those of ``channels`` on a leading axis."""
    first = channels[0]
    return ChannelRealization(first.dims, TapSequence.stack([ch.taps for ch in channels]), first.pdp)


class TestMfCombiner:
    def test_single_tap_structure(self):
        dims = SystemDims(antennas=8, users=2, taps=1, subcarriers=4)
        ch = rich(1, dims)
        w = mf_combiner(ch)
        assert w.taps.offset == 0
        np.testing.assert_allclose(
            w.taps.taps[0], ch.taps.taps[0].conj().T / math.sqrt(8), atol=1e-14
        )

    def test_time_reversed_adjoint(self):
        ch = rich(2)
        w = mf_combiner(ch)
        assert w.taps.offset == -(DIMS.taps - 1)
        for l in range(DIMS.taps):
            np.testing.assert_allclose(
                w.taps.tap(-l),
                ch.taps.taps[l].conj().T / math.sqrt(DIMS.antennas),
                atol=1e-14,
            )

    def test_spectrum_is_adjoint_of_channel_spectrum(self):
        ch = rich(3)
        grid = channel_spectrum(ch)
        w_grid = dft_of_taps(mf_combiner(ch).taps, DIMS.subcarriers)
        for k in range(DIMS.subcarriers):
            np.testing.assert_allclose(
                w_grid[k], grid[k].conj().T / math.sqrt(DIMS.antennas), atol=1e-12
            )


class TestRfLtap:
    def test_constant_modulus(self):
        w = rf_ltap(rich(4))
        assert w.constant_modulus
        np.testing.assert_allclose(
            np.abs(w.taps.taps), 1.0 / math.sqrt(DIMS.antennas), atol=1e-14
        )

    def test_real_positive_channel_gives_flat_weights(self):
        pdp = exponential_pdp(DIMS.taps, DIMS.users)
        positive = np.abs(complex_normal(stream(5), (DIMS.taps, DIMS.antennas, DIMS.users))) + 0.1
        ch_taps = TapSequence(0, positive * np.sqrt(pdp.gains)[:, None, :])
        ch = ChannelRealization(DIMS, ch_taps, pdp)
        w = rf_ltap(ch)
        np.testing.assert_allclose(w.taps.taps, 1.0 / math.sqrt(DIMS.antennas), atol=1e-14)

    def test_matches_matched_filter_phases(self):
        ch = rich(6)
        w = rf_ltap(ch)
        mf = mf_combiner(ch)
        np.testing.assert_allclose(
            np.angle(w.taps.taps * np.exp(-1j * np.angle(mf.taps.taps))), 0.0, atol=1e-12
        )

    def test_phase_choice_minimizes_distance_to_mf(self):
        # perturbing any phase moves the tap entry away from the matched filter
        ch = rich(7)
        w = rf_ltap(ch).taps.taps
        a = mf_combiner(ch).taps.taps
        base = np.abs(w - a) ** 2
        for delta in (0.1, -0.1, 1.0, -1.0):
            moved = np.abs(w * np.exp(1j * delta) - a) ** 2
            assert np.all(moved >= base - 1e-12)


class TestRf1Tap:
    def test_aligns_leading_tap(self):
        ch = rich(8)
        w = rf_1tap(ch)
        assert w.taps.offset == 0
        assert w.taps.span == 1
        expected = np.exp(-1j * np.angle(ch.taps.taps[0].T)) / math.sqrt(DIMS.antennas)
        np.testing.assert_allclose(w.taps.taps[0], expected, atol=1e-14)

    def test_flat_channel_reduces_to_ltap(self):
        dims = SystemDims(antennas=8, users=2, taps=1, subcarriers=4)
        ch = rich(11, dims)
        np.testing.assert_array_equal(rf_1tap(ch).taps.taps, rf_ltap(ch).taps.taps)


class TestHeuristic1Tap:
    def test_flat_channel_matches_rf_1tap(self):
        dims = SystemDims(antennas=8, users=2, taps=1, subcarriers=4)
        ch = rich(13, dims)
        np.testing.assert_array_equal(
            rf_1tap_sum_heuristic(ch).taps.taps, rf_1tap(ch).taps.taps
        )

    def test_repeated_taps_match_rf_1tap(self):
        dims = SystemDims(antennas=8, users=2, taps=2, subcarriers=8)
        pdp = exponential_pdp(2, 2)
        one = complex_normal(stream(14), (8, 2)) * np.sqrt(pdp.gains[0])
        ch = ChannelRealization(dims, TapSequence(0, np.stack([one, one])), pdp)
        np.testing.assert_allclose(
            rf_1tap_sum_heuristic(ch).taps.taps, rf_1tap(ch).taps.taps, atol=1e-14
        )

    def test_differs_on_selective_channel(self):
        ch = rich(15)
        assert np.max(np.abs(rf_1tap_sum_heuristic(ch).taps.taps - rf_1tap(ch).taps.taps)) > 1e-3

    def test_constant_modulus(self):
        w = rf_1tap_sum_heuristic(rich(16))
        np.testing.assert_allclose(np.abs(w.taps.taps), 1.0 / math.sqrt(DIMS.antennas), atol=1e-14)


class TestPhaseBanks:
    def test_reconstructs_target_exactly(self):
        mf = mf_combiner(rich(17))
        bank = decompose_to_phase_banks(mf)
        np.testing.assert_allclose(
            bank.combined().taps.taps, bank.scale * mf.taps.taps, atol=1e-13
        )

    def test_scale_gamma_relation(self):
        mf = mf_combiner(rich(18))
        bank = decompose_to_phase_banks(mf)
        assert bank.gamma == pytest.approx(np.max(np.abs(mf.taps.taps)), abs=0.0)
        assert bank.scale * bank.gamma * math.sqrt(DIMS.antennas) == pytest.approx(2.0, rel=1e-12)

    def test_banks_are_constant_modulus(self):
        bank = decompose_to_phase_banks(mf_combiner(rich(19)))
        for taps in (bank.plus.taps, bank.minus.taps):
            np.testing.assert_allclose(np.abs(taps), 1.0 / math.sqrt(DIMS.antennas), atol=1e-13)

    def test_half_magnitude_entry_splits_by_sixty_degrees(self):
        taps = np.array([[[1.0 + 0.0j, 0.5 * np.exp(1j * np.pi / 4)]]])
        bank = decompose_to_phase_banks(CombinerIR(TapSequence(0, taps)))
        split = np.pi / 4 + np.array([np.arccos(0.5), -np.arccos(0.5)])
        assert np.arccos(0.5) == pytest.approx(np.pi / 3, abs=1e-12)
        got = np.sort([np.angle(bank.plus.taps[0, 0, 1]), np.angle(bank.minus.taps[0, 0, 1])])
        np.testing.assert_allclose(got, np.sort(split), atol=1e-12)

    def test_unit_magnitude_entries_collapse(self):
        ch = rich(20)
        w = rf_ltap(ch)
        bank = decompose_to_phase_banks(w)
        np.testing.assert_allclose(bank.plus.taps, bank.minus.taps, atol=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            decompose_to_phase_banks(CombinerIR(TapSequence(0, np.zeros((1, 2, 2)))))

    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(
        span=st.integers(1, 4),
        users=st.integers(1, 4),
        antennas=st.integers(1, 9),
        offset=st.integers(-4, 4),
        zero_fraction=st.sampled_from([0.0, 0.3, 0.9]),
        scale_exp=st.integers(-8, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_banks_rebuild_any_target(
        self, span, users, antennas, offset, zero_fraction, scale_exp, seed
    ):
        shape = (span, users, antennas)
        target = 10.0**scale_exp * complex_normal(stream(90, seed), shape)
        target[stream(91, seed).random(shape) < zero_fraction] = 0.0
        target.flat[0] = 10.0**scale_exp  # never all zero
        bank = decompose_to_phase_banks(CombinerIR(TapSequence(offset, target)))
        modulus = 1.0 / math.sqrt(antennas)
        for half in (bank.plus, bank.minus):
            assert half.offset == offset
            CombinerIR(half, constant_modulus=True, modulus=modulus)
        combined = bank.combined().taps
        assert combined.offset == offset
        # entries of the summed banks have magnitude at most 2 / sqrt(M)
        np.testing.assert_allclose(
            combined.taps, bank.scale * target, rtol=0.0, atol=1e-13 * modulus
        )


class TestEffectiveChannel:
    def test_single_tap_combiner_structure(self):
        ch = rich(21)
        w = rf_1tap(ch)
        eff = effective_channel(w, ch)
        assert eff.taps.offset == 0
        assert eff.taps.span == DIMS.taps
        for l in range(DIMS.taps):
            np.testing.assert_allclose(
                eff.taps.taps[l], w.taps.taps[0] @ ch.taps.taps[l], atol=1e-13
            )
        # single-tap combiner: noise covariance is flat over frequency
        cov0 = w.taps.taps[0] @ w.taps.taps[0].conj().T
        for k in range(DIMS.subcarriers):
            np.testing.assert_allclose(eff.noise_cov_spectrum[k], cov0, atol=1e-12)

    def test_unitary_combiner_noise_is_identity(self):
        dims = SystemDims(antennas=4, users=4, taps=2, subcarriers=8)
        ch = rich(22, dims)
        q, _ = np.linalg.qr(complex_normal(stream(23), (4, 4)))
        w = CombinerIR(TapSequence(0, q[None]))
        eff = effective_channel(w, ch)
        for k in range(8):
            np.testing.assert_allclose(eff.noise_cov_spectrum[k], np.eye(4), atol=1e-12)

    def test_matches_brute_force_double_sum(self):
        ch = rich(24)
        w = mf_combiner(ch)
        eff = effective_channel(w, ch)
        assert eff.taps.offset == -(DIMS.taps - 1)
        assert eff.taps.span == 2 * DIMS.taps - 1
        for n in range(-(DIMS.taps - 1), DIMS.taps):
            expected = sum(w.taps.tap(n - l) @ ch.taps.tap(l) for l in range(DIMS.taps))
            np.testing.assert_allclose(eff.taps.tap(n), expected, atol=1e-12)

    def test_noise_cov_matches_direct_product(self):
        # the lag Gram of the adjoint taps is read at -k: a +k read would give
        # W(-k) W(-k)^H, which differs wherever the combiner has two taps
        ch = rich(25)
        for base in ("mf", "rf_ltap", "rf_1tap", "heuristic_1tap", "bank_2L"):
            w = experiments._COMBINERS[base](ch)
            eff = effective_channel(w, ch)
            w_grid = dft_of_taps(w.taps, DIMS.subcarriers)
            direct = w_grid @ np.conj(np.swapaxes(w_grid, 1, 2))
            np.testing.assert_allclose(
                eff.noise_cov_spectrum, direct, rtol=0.0, atol=1e-12 * np.abs(direct).max()
            )

    def test_stacked_views_are_the_views_of_each_channel(self):
        channels = [rich(40 + seed) for seed in range(3)]
        effectives = [effective_channel(rf_ltap(ch), ch) for ch in channels]
        stacked_channel = stack_channels(channels)
        stacked = effective_channel(rf_ltap(stacked_channel), stacked_channel)
        for view in ("spectrum", "noise_cov_spectrum"):
            expected = np.stack([getattr(eff, view) for eff in effectives])
            np.testing.assert_allclose(
                getattr(stacked, view), expected, rtol=0.0, atol=1e-12 * np.abs(expected).max()
            )


class TestStackedLayer:
    """Every builder and reader of the per-realization layer takes a chunk's
    leading axis and gives each draw the bits it has alone."""

    @pytest.mark.parametrize("base", list(experiments._COMBINERS))
    @pytest.mark.parametrize(
        "dims, model",
        [
            (DIMS, "rich"),
            (DIMS, "sparse"),
            # effective spans of 9 taps: sums long enough to be pairwise
            (SystemDims(antennas=20, users=2, taps=5, subcarriers=16), "rich"),
        ],
    )
    def test_stack_of_three_draws_equals_each_draw_bit_for_bit(self, base, dims, model):
        pdp = exponential_pdp(dims.taps, dims.users)
        if model == "rich":
            channels = [draw_rich(dims, pdp, seed=50 + i) for i in range(3)]
        else:
            channels = [draw_sparse(dims, pdp, SparseChannelConfig(), 50 + i) for i in range(3)]
        build = experiments._COMBINERS[base]
        powers = [0.1, 1.0, 1e3]
        stacked = stack_channels(channels)
        combiner = build(stacked)
        effective = effective_channel(combiner, stacked)
        profile = pdp_of_effective(effective)
        noise = combiner_noise_power(combiner, 1.0)
        rates = sinr_sum_rates(profile, noise, powers)
        spreads = delay_spread_report(profile)
        assert rates.shape == (len(powers), 3)
        for draw, ch in enumerate(channels):
            alone = build(ch)
            eff = effective_channel(alone, ch)
            alone_noise = combiner_noise_power(alone, 1.0)
            alone_profile = pdp_of_effective(eff)
            assert combiner.taps.offset == alone.taps.offset
            assert effective.taps.offset == eff.taps.offset
            np.testing.assert_array_equal(combiner.taps.taps[draw], alone.taps.taps)
            np.testing.assert_array_equal(effective.taps.taps[draw], eff.taps.taps)
            np.testing.assert_array_equal(noise[draw], alone_noise)
            np.testing.assert_array_equal(
                rates[:, draw], sinr_sum_rates(alone_profile, alone_noise, powers)
            )
            for stacked_part, alone_part in zip(spreads, delay_spread_report(alone_profile)):
                np.testing.assert_array_equal(stacked_part[draw], alone_part)

    def test_phase_banks_normalize_each_draw_by_its_own_gamma(self):
        # one draw a thousand times stronger: a gamma taken over the whole
        # stack would shrink the other two draws' banks
        channels = [rich(60 + seed) for seed in range(3)]
        channels[1] = ChannelRealization(DIMS, TapSequence(0, 1e3 * channels[1].taps.taps), channels[1].pdp)
        stacked = stack_channels(channels)
        bank = decompose_to_phase_banks(mf_combiner(stacked))
        combined = experiments._COMBINERS["bank_2L"](stacked)
        assert bank.gamma.shape == bank.scale.shape == (3,)
        for draw, ch in enumerate(channels):
            alone = decompose_to_phase_banks(mf_combiner(ch))
            assert bank.gamma[draw] == alone.gamma
            assert bank.scale[draw] == alone.scale
            np.testing.assert_array_equal(bank.plus.taps[draw], alone.plus.taps)
            np.testing.assert_array_equal(bank.minus.taps[draw], alone.minus.taps)
            np.testing.assert_array_equal(
                combined.taps.taps[draw], experiments._COMBINERS["bank_2L"](ch).taps.taps
            )

    def test_stack_with_one_all_zero_combiner_rejected(self):
        taps = np.stack([np.ones((1, 2, 2)), np.zeros((1, 2, 2))])
        with pytest.raises(ValueError, match="all-zero"):
            decompose_to_phase_banks(CombinerIR(TapSequence(0, taps)))

    def test_zero_channel_entry_gets_a_finite_phase_zero_tap(self):
        ch = rich(70)
        taps = ch.taps.taps.copy()
        taps[:, 2, 1] = 0.0  # antenna 2 never hears user 1
        ch = ChannelRealization(DIMS, TapSequence(0, taps), ch.pdp)
        modulus = 1.0 / math.sqrt(DIMS.antennas)
        for build in (rf_1tap, rf_ltap, rf_1tap_sum_heuristic):
            w = build(ch).taps.taps
            assert np.all(np.isfinite(w))
            np.testing.assert_array_equal(w[:, 1, 2], modulus)
        # elsewhere the phases are those of exp(-1j * angle), to rounding
        target = np.swapaxes(taps[::-1], 1, 2)
        np.testing.assert_allclose(
            rf_ltap(ch).taps.taps, np.exp(-1j * np.angle(target)) * modulus, rtol=0.0, atol=1e-15
        )


class TestZeroForcing:
    def test_diagonal_effective_channel(self):
        taps = np.diag([2.0, 4.0j]).astype(complex)[None]
        eff = EffectiveChannel(WHITE, TapSequence(0, taps), 4)
        bb = zf_baseband(eff)
        for k in range(4):
            np.testing.assert_allclose(bb[k], np.diag([0.5, -0.25j]), atol=1e-12)

    def test_identity_residual_on_every_subcarrier(self):
        for seed in range(5):
            ch = rich(30 + seed)
            eff = effective_channel(rf_ltap(ch), ch)
            bb = zf_baseband(eff)
            grid = dft_of_taps(eff.taps, DIMS.subcarriers)
            residual = np.max(np.abs(bb @ grid - np.eye(DIMS.users)))
            assert residual < 1e-9

    def test_raw_spectrum_pseudoinverse(self):
        ch = rich(36)
        grid = channel_spectrum(ch)
        inverse = zf_spectrum(grid)
        residual = np.max(np.abs(inverse @ grid - np.eye(DIMS.users)))
        assert residual < 1e-9

    def test_singular_subcarrier_named(self):
        # taps A and -A cancel exactly at subcarrier 0 and nowhere else
        a = complex_normal(stream(40), (2, 2))
        eff = EffectiveChannel(WHITE, TapSequence(0, np.stack([a, -a])), 8)
        with pytest.raises(SingularMatrixError, match="subcarrier 0") as info:
            zf_baseband(eff)
        assert info.value.subcarrier == 0

    def test_singular_subcarrier_inside_the_grid(self):
        # taps A + R and A, with R of rank one: at subcarrier 4 of 8 the second
        # tap turns by e^{-j pi}, leaving R plus roundoff, rank deficient there only
        a = complex_normal(stream(41), (2, 2))
        u, v = complex_normal(stream(42), (2, 2))
        r = np.outer(u, v.conj())
        eff = EffectiveChannel(WHITE, TapSequence(0, np.stack([a + r, a])), 8)
        with pytest.raises(SingularMatrixError, match="subcarrier 4") as info:
            zf_baseband(eff)
        assert info.value.subcarrier == 4
        healthy = np.delete(eff.spectrum, 4, axis=0)
        assert np.max(np.abs(zf_spectrum(healthy) @ healthy - np.eye(2))) < 1e-9


class TestDefectAndNoisePower:
    def test_noise_power_constant_modulus(self):
        ch = rich(43)
        sigma2 = 0.7
        np.testing.assert_allclose(
            combiner_noise_power(rf_ltap(ch), sigma2), DIMS.taps * sigma2, atol=1e-12
        )
        np.testing.assert_allclose(combiner_noise_power(rf_1tap(ch), sigma2), sigma2, atol=1e-12)

    def test_noise_power_matched_filter(self):
        ch = rich(44)
        w = mf_combiner(ch)
        expected = np.sum(np.abs(ch.taps.taps) ** 2, axis=(0, 1)) / DIMS.antennas
        np.testing.assert_allclose(combiner_noise_power(w, 1.0), expected, atol=1e-12)

    def test_noise_power_validation(self):
        with pytest.raises(ValueError):
            combiner_noise_power(rf_1tap(rich(45)), 0.0)


class TestCombinerContract:
    def test_modulus_violation_rejected(self):
        taps = np.ones((1, 2, 4), dtype=complex) / 2.0
        taps[0, 0, 0] = 0.7
        with pytest.raises(ValueError, match="modulus"):
            CombinerIR(TapSequence(0, taps), constant_modulus=True, modulus=0.5)

    def test_missing_modulus_rejected(self):
        with pytest.raises(ValueError):
            CombinerIR(TapSequence(0, np.ones((1, 2, 4))), constant_modulus=True)
