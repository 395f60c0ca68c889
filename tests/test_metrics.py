"""Rate metrics against independent oracles; SINR accounting; delay spread."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.linalg import _umath_linalg
from hypothesis import strategies as st

from hybeam import metrics
from hybeam.beamforming import (
    CombinerIR,
    EffectiveChannel,
    combiner_noise_power,
    effective_channel,
    mf_combiner,
    rf_1tap,
    rf_ltap,
    zf_baseband,
)
from hybeam.channel import (
    SystemDims,
    channel_spectrum,
    complex_normal,
    draw_rich,
    exponential_pdp,
    stream,
)
from hybeam.closed_forms import sinr_limit_1tap, sinr_limit_ltap
from hybeam.metrics import (
    LinkBudget,
    SinrBreakdown,
    achievable_rate_hybrid,
    capacity,
    delay_moments,
    delay_spread_report,
    hermitian_reduction,
    pdp_of_effective,
    rate_spectral,
    reduced_rates,
    sinr_from_pdp,
    sinr_sum_rates,
    spectral_rates,
    squared_rates,
    sum_rate_from_sinr,
    whiten,
)
from hybeam.numerics import (
    LDL_MAX_ORDER,
    SingularMatrixError,
    TapSequence,
    dft_of_taps,
    gram_of_lags,
    lag_products,
)

DIMS = SystemDims(antennas=16, users=3, taps=4, subcarriers=32)
# identity combiner on two antennas: white combined noise
WHITE = CombinerIR(TapSequence(0, np.eye(2, dtype=complex)[None]))


def rich(seed, dims=DIMS):
    return draw_rich(dims, exponential_pdp(dims.taps, dims.users), seed=seed)


class TestLinkBudget:
    def test_snr_is_power_ratio(self):
        assert LinkBudget(transmit_power=4.0, noise_variance=2.0).snr == 2.0

    def test_from_snr_db(self):
        assert LinkBudget.from_snr_db(10.0).snr == pytest.approx(10.0, rel=1e-12)
        assert LinkBudget.from_snr_db(0.0).snr == pytest.approx(1.0, rel=1e-12)
        assert LinkBudget.from_snr_db(-10.0, noise_variance=2.0).snr == pytest.approx(
            0.1, rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkBudget(transmit_power=0.0)
        with pytest.raises(ValueError):
            LinkBudget(noise_variance=-1.0)

    def test_rejects_non_finite(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                LinkBudget(transmit_power=bad)
            with pytest.raises(ValueError, match="finite"):
                LinkBudget(noise_variance=bad)
            with pytest.raises(ValueError):
                LinkBudget.from_snr_db(bad)


def slogdet_rates(signal, noise_cov, snrs):
    """Per-subcarrier ``slogdet`` of ``I + snr * C^{-1} S S^H``, averaged over k."""
    k, rows, _ = signal.shape
    out = []
    for snr in snrs:
        total = 0.0
        for sub in range(k):
            inner = signal[sub] @ signal[sub].conj().T
            if noise_cov is not None:
                inner = np.linalg.inv(noise_cov[sub]) @ inner
            sign, logabs = np.linalg.slogdet(np.eye(rows) + snr * inner)
            assert sign.real > 0.0
            total += logabs / math.log(2.0)
        out.append(total / k)
    return np.array(out)


class TestSpectralRates:
    def test_zero_signal_is_zero_rate(self):
        rates = spectral_rates(np.zeros((3, 4, 2)), None, [0.1, 1.0, 100.0])
        np.testing.assert_array_equal(rates, 0.0)

    def test_diagonal(self):
        signal = np.broadcast_to(np.diag([1.0, math.sqrt(3.0)]), (2, 2, 2))
        assert spectral_rates(signal, None, [1.0])[0] == pytest.approx(3.0, abs=1e-12)

    def test_matches_eigenvalue_oracle(self):
        for key in range(5):
            a = complex_normal(stream(500 + key), (1, 5, 3))
            expected = float(np.sum(np.log2(1.0 + np.linalg.eigvalsh(a[0].conj().T @ a[0]))))
            assert spectral_rates(a, None, [1.0])[0] == pytest.approx(expected, rel=1e-10)

    def test_grid_agrees_with_single_points(self):
        signal = complex_normal(stream(510), (6, 3, 3))
        b = complex_normal(stream(511), (6, 3, 3))
        cov = b @ np.conj(np.swapaxes(b, -1, -2)) + np.eye(3)
        snrs = [0.1, 1.0, 10.0, 100.0]
        grid = spectral_rates(signal, cov, snrs)
        for snr, rate in zip(snrs, grid):
            assert rate == spectral_rates(signal, cov, [snr])[0]

    def test_rank_deficient_signal_counts_only_its_rank(self):
        column = complex_normal(stream(520), (4, 5, 1))
        signal = np.concatenate([column, column, np.zeros((4, 5, 1))], axis=2)
        expected = np.mean(np.log2(1.0 + 2.0 * np.sum(np.abs(column) ** 2, axis=(1, 2))))
        assert spectral_rates(signal, None, [1.0])[0] == pytest.approx(expected, rel=1e-12)

    def test_rejects_indefinite_noise_covariance(self):
        # an indefinite C has no rate: NaN at every SNR, and no warning
        signal = complex_normal(stream(530), (2, 2, 2))
        cov = np.broadcast_to(np.diag([1.0, -1.0]), (2, 2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rates = spectral_rates(signal, cov, [1.0, 10.0])
        assert rates.shape == (2,)
        assert np.all(np.isnan(rates))

    @pytest.mark.parametrize("n", [LDL_MAX_ORDER, LDL_MAX_ORDER + 1])
    def test_singular_noise_marks_only_its_own_grid(self, n):
        # both sides of LDL_MAX_ORDER, where the reduction changes from the
        # tridiagonal to the eigenvalues: in a stack of six grids, one C with a
        # zero row and column on one subcarrier, one all zero and one negative
        # definite on one subcarrier read NaN; the rest are what they are alone
        k, antennas = 4, n + 3
        rng = stream(560, n)
        w = complex_normal(rng, (6, k, n, antennas))
        h = complex_normal(rng, (6, k, antennas, n))
        w[1, 2, 0] = 0.0
        w[4] = 0.0
        signal, cov = w @ h, w @ np.conj(np.swapaxes(w, -1, -2))
        cov[3, 0] = -cov[3, 0]
        snrs = [0.1, 1.0, 100.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rates = spectral_rates(signal, cov, snrs)
            alone = [spectral_rates(signal[draw], cov[draw], snrs) for draw in range(6)]
        for draw in range(6):
            if draw in (1, 3, 4):
                assert np.all(np.isnan(rates[:, draw])) and np.all(np.isnan(alone[draw]))
            else:
                np.testing.assert_array_equal(rates[:, draw], alone[draw])
                assert np.all(np.isfinite(alone[draw]))
        # the one-grid adapters raise instead
        link = LinkBudget.from_snr_db(10.0)
        for draw in (1, 4):
            with pytest.raises(SingularMatrixError, match="singular noise covariance"):
                rate_spectral(w[draw], h[draw], link)
        combiner = complex_normal(rng, (2, n, antennas))
        combiner[:, 0] = 0.0
        eff = EffectiveChannel(
            CombinerIR(TapSequence(0, combiner)), TapSequence(0, complex_normal(rng, (3, n, n))), k
        )
        with pytest.raises(SingularMatrixError, match="singular noise covariance"):
            achievable_rate_hybrid(eff, None, link)

    @pytest.mark.parametrize("n", [1, 4, LDL_MAX_ORDER, LDL_MAX_ORDER + 1])
    def test_cholesky_marks_a_singular_noise_at_every_order(self, n):
        # at every order C is factored once, by LAPACK's Cholesky, whose
        # failure is the verdict, and no solve runs.  One C per draw (a
        # one-tap combiner) whitens the whole subcarrier grid
        k = 3
        rng = stream(565, n)
        w = complex_normal(rng, (4, n, n + 3))
        w[2, n // 2] = 0.0
        h = complex_normal(rng, (4, k, n + 3, n))
        signal, cov = w[:, None] @ h, (w @ np.conj(np.swapaxes(w, -1, -2)))[:, None]
        snrs = [0.1, 1.0, 100.0]
        with mock.patch.object(np.linalg, "solve", side_effect=AssertionError("solve called")):
            rates = spectral_rates(signal, cov, snrs)
        assert rates.shape == (len(snrs), 4)
        assert np.all(np.isnan(rates[:, 2]))
        for draw in (0, 1, 3):
            expected = slogdet_rates(signal[draw], np.broadcast_to(cov[draw], (k, n, n)), snrs)
            np.testing.assert_allclose(rates[:, draw], expected, rtol=1e-12, atol=0.0)

    def test_rejects_misshaped_signal(self):
        with pytest.raises(ValueError, match="signal grid"):
            spectral_rates(np.ones((2, 3)), None, [1.0])

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(
        k=st.integers(1, 6),
        rows=st.integers(1, LDL_MAX_ORDER + 2),
        cols=st.integers(1, LDL_MAX_ORDER + 2),
        lead=st.lists(st.integers(1, 3), max_size=2),
        snr_db=st.lists(st.floats(-20.0, 30.0), min_size=2, max_size=6),
        colored=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_subcarrier_slogdet(self, k, rows, cols, lead, snr_db, colored, seed):
        # both sides of LDL_MAX_ORDER, on stacks with leading axes
        rng = stream(540, seed)
        signal = complex_normal(rng, (*lead, k, rows, cols))
        cov = None
        if colored:
            b = complex_normal(rng, (*lead, k, rows, rows))
            cov = b @ np.conj(np.swapaxes(b, -1, -2)) + 0.5 * np.eye(rows)
        snrs = 10.0 ** (np.asarray(snr_db) / 10.0)
        rates = spectral_rates(signal, cov, snrs)
        assert rates.shape == (len(snrs), *lead)
        for index in np.ndindex(*lead):
            expected = slogdet_rates(signal[index], None if cov is None else cov[index], snrs)
            np.testing.assert_allclose(rates[(slice(None), *index)], expected, rtol=1e-10)

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        k=st.integers(1, 6),
        extra_rows=st.integers(0, 4),
        lead=st.lists(st.integers(1, 3), max_size=2),
        snr_db=st.lists(st.floats(-20.0, 30.0), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pivot_and_eigenvalue_paths_agree_at_the_threshold(
        self, k, extra_rows, lead, snr_db, seed
    ):
        n = LDL_MAX_ORDER
        rng = stream(550, seed)
        a = complex_normal(rng, (*lead, k, n + extra_rows, n))
        gram = np.conj(np.swapaxes(a, -1, -2)) @ a
        signal = complex_normal(rng, (*lead, k, n, n))
        b = complex_normal(rng, (*lead, k, n, n))
        cov = b @ np.conj(np.swapaxes(b, -1, -2)) + 0.5 * np.eye(n)
        snrs = 10.0 ** (np.asarray(snr_db) / 10.0)
        def rates():
            return reduced_rates(hermitian_reduction(gram), snrs), spectral_rates(signal, cov, snrs)

        pivots = rates()
        with mock.patch.object(metrics, "LDL_MAX_ORDER", n - 1):
            eigen = rates()
        for got, expected in zip(pivots, eigen):
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


def adjoint(mats):
    return np.conj(np.swapaxes(mats, -1, -2))


class TestWhiten:
    def test_cholesky_gufunc_leaves_a_failed_factor_nan_alone(self):
        # every +zf rate reads numpy's private Cholesky gufunc: called as
        # whiten calls it, a matrix of the stack that is not positive
        # definite gets a NaN factor, without a warning or an exception, and
        # every other factor is np.linalg.cholesky's, bit for bit
        rng = stream(575)
        b = complex_normal(rng, (5, 4, 4))
        stack = b @ adjoint(b) + 0.5 * np.eye(4)
        stack[2] = -stack[2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore"):
                chol = _umath_linalg.cholesky_lo(stack, signature="D->D")
        assert np.all(np.isnan(chol[2]))
        for index in (0, 1, 3, 4):
            np.testing.assert_array_equal(chol[index], np.linalg.cholesky(stack[index]))

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(
        n=st.integers(1, LDL_MAX_ORDER + 4),
        cols=st.integers(1, 4),
        lead=st.lists(st.integers(1, 3), max_size=2),
        taps=st.integers(1, 3),
        broadcast=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_solve_oracle_at_every_order(self, n, cols, lead, taps, broadcast, seed):
        # one C per signal, or one per tap axis broadcast as the runner's
        # one-tap whitening passes it; about half the C are spoiled: negative
        # definite, with a zero row and column, or all zero
        rng = stream(580, seed)
        cov_lead = (*lead, 1 if broadcast else taps)
        b = complex_normal(rng, (*cov_lead, n, n))
        cov = b @ adjoint(b) + 0.5 * np.eye(n)
        kind = rng.integers(0, 6, size=cov_lead)
        for index in np.ndindex(*cov_lead):
            if kind[index] == 0:
                cov[index] = -cov[index]
            elif kind[index] == 1:
                j = int(rng.integers(n))
                cov[index][j, :] = 0.0
                cov[index][:, j] = 0.0
            elif kind[index] == 2:
                cov[index] = 0.0
        signal = complex_normal(rng, (*lead, taps, n, cols))
        indices = list(np.ndindex(*lead, taps))
        own = {index: (*index[:-1], 0 if broadcast else index[-1]) for index in indices}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            white, singular = whiten(signal, cov)
            alone = {index: whiten(signal[index], cov[own[index]]) for index in indices}
        assert white.shape == signal.shape
        np.testing.assert_array_equal(singular, kind < 3)
        for index in indices:
            np.testing.assert_array_equal(white[index], alone[index][0])
            assert alone[index][1] == singular[own[index]]
            if singular[own[index]]:
                assert np.all(white[index] == 0.0)
                continue
            expected = adjoint(signal[index]) @ np.linalg.solve(cov[own[index]], signal[index])
            got = adjoint(white[index]) @ white[index]
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-10 * np.max(np.abs(expected)))


class TestCapacity:
    def test_identity_channel(self):
        grid = np.broadcast_to(np.eye(3), (5, 3, 3)).astype(complex)
        link = LinkBudget(transmit_power=3.0)
        assert capacity(grid, link) == pytest.approx(3.0 * math.log2(4.0), rel=1e-12)

    def test_vanishes_at_zero_snr(self):
        grid = channel_spectrum(rich(1))
        assert capacity(grid, LinkBudget(transmit_power=1e-12)) < 1e-6

    def test_matches_eigenvalue_oracle(self):
        grid = complex_normal(stream(2), (4, 3, 2))
        link = LinkBudget.from_snr_db(7.0)
        expected = 0.0
        for k in range(4):
            gram = grid[k].conj().T @ grid[k]
            expected += float(np.sum(np.log2(1.0 + link.snr * np.linalg.eigvalsh(gram))))
        assert capacity(grid, link) == pytest.approx(expected / 4.0, rel=1e-10)

    @pytest.mark.parametrize("users", [4, LDL_MAX_ORDER, LDL_MAX_ORDER + 1])
    def test_squared_rates_read_the_mf_gram_from_the_raw_reduction(self, users):
        # the MF's Gram is R(k)^2 / M for the raw Gram R(k): its rates at snr
        # are the raw reduction's squared rates at snr / M, on either side of
        # LDL_MAX_ORDER (tridiagonal, then eigenvalues)
        dims = SystemDims(antennas=2 * users + 1, users=users, taps=3, subcarriers=16)
        raw = TapSequence.stack([rich(60 + seed, dims).taps for seed in range(2)])
        gram = gram_of_lags(lag_products(raw), dims.subcarriers)
        snrs = 10.0 ** (np.array([-10.0, 0.0, 10.0, 30.0]) / 10.0)
        expected = reduced_rates(hermitian_reduction(gram @ gram / dims.antennas), snrs)
        got = squared_rates(hermitian_reduction(gram), snrs / dims.antennas)
        assert got.shape == (len(snrs), 2)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_monotone_in_snr(self):
        grid = channel_spectrum(rich(3))
        rates = [capacity(grid, LinkBudget.from_snr_db(s)) for s in (-10.0, 0.0, 10.0, 20.0)]
        assert all(b > a for a, b in zip(rates, rates[1:]))


class TestHybridRate:
    def test_verbatim_log_det_oracle(self):
        # rebuild everything from scratch with explicit inverses and slogdet
        ch = rich(4)
        w = rf_ltap(ch)
        eff = effective_channel(w, ch)
        bb = zf_baseband(eff)
        link = LinkBudget.from_snr_db(5.0)
        k_grid = DIMS.subcarriers
        total = 0.0
        for k in range(k_grid):
            w_rf = sum(
                w.taps.taps[i] * np.exp(-2j * np.pi * delay * k / k_grid)
                for i, delay in enumerate(w.taps.delays)
            )
            h = sum(
                ch.taps.taps[l] * np.exp(-2j * np.pi * l * k / k_grid)
                for l in range(DIMS.taps)
            )
            front = bb[k] @ w_rf
            cov = front @ front.conj().T
            signal = front @ h
            inner = np.eye(DIMS.users) + link.snr * np.linalg.inv(cov) @ signal @ signal.conj().T
            sign, logabs = np.linalg.slogdet(inner)
            total += logabs / math.log(2.0)
        expected = total / k_grid
        assert achievable_rate_hybrid(eff, bb, link) == pytest.approx(expected, rel=1e-9)

    def test_invertible_baseband_leaves_rate_unchanged(self):
        ch = rich(5)
        eff = effective_channel(rf_ltap(ch), ch)
        link = LinkBudget.from_snr_db(10.0)
        base = achievable_rate_hybrid(eff, None, link)
        rng = stream(6)
        bb = complex_normal(rng, (DIMS.subcarriers, DIMS.users, DIMS.users))
        bb = bb + 3.0 * np.eye(DIMS.users)
        assert achievable_rate_hybrid(eff, bb, link) == pytest.approx(base, rel=1e-9)
        zf = zf_baseband(eff)
        assert achievable_rate_hybrid(eff, zf, link) == pytest.approx(base, rel=1e-9)

    def test_orthonormal_rows_reduce_to_white_capacity(self):
        dims = SystemDims(antennas=6, users=3, taps=2, subcarriers=8)
        ch = rich(7, dims)
        q, _ = np.linalg.qr(complex_normal(stream(8), (6, 6)))
        w = CombinerIR(TapSequence(0, q[:3][None]))
        eff = effective_channel(w, ch)
        link = LinkBudget.from_snr_db(3.0)
        grid = dft_of_taps(eff.taps, 8)
        assert achievable_rate_hybrid(eff, None, link) == pytest.approx(
            capacity(grid, link), rel=1e-12
        )

    def test_never_exceeds_raw_capacity(self):
        link = LinkBudget.from_snr_db(10.0)
        for seed in range(5):
            ch = rich(50 + seed)
            raw = capacity(channel_spectrum(ch), link)
            for build in (mf_combiner, rf_ltap, rf_1tap):
                eff = effective_channel(build(ch), ch)
                assert achievable_rate_hybrid(eff, None, link) <= raw + 1e-9

    def test_matched_filter_preserves_capacity(self):
        # MF keeps all signal dimensions; with exact noise accounting no
        # information is lost
        ch = rich(9)
        link = LinkBudget.from_snr_db(5.0)
        eff = effective_channel(mf_combiner(ch), ch)
        assert achievable_rate_hybrid(eff, None, link) == pytest.approx(
            capacity(channel_spectrum(ch), link), rel=1e-9
        )

    def test_rate_spectral_agrees_with_effective_route(self):
        ch = rich(10)
        w = rf_ltap(ch)
        link = LinkBudget.from_snr_db(0.0)
        eff = effective_channel(w, ch)
        via_grids = rate_spectral(
            dft_of_taps(w.taps, DIMS.subcarriers), channel_spectrum(ch), link
        )
        assert achievable_rate_hybrid(eff, None, link) == pytest.approx(via_grids, rel=1e-10)

    def test_singular_noise_covariance_rejected(self):
        # a zero combiner leaves an all-zero noise covariance
        taps = TapSequence(0, np.ones((1, 2, 2), dtype=complex))
        eff = EffectiveChannel(CombinerIR(TapSequence(0, np.zeros((1, 2, 2)))), taps, 4)
        with pytest.raises(SingularMatrixError, match="noise covariance"):
            achievable_rate_hybrid(eff, None, LinkBudget())

    def test_misaligned_baseband_rejected(self):
        ch = rich(11)
        eff = effective_channel(rf_1tap(ch), ch)
        with pytest.raises(ValueError):
            achievable_rate_hybrid(eff, np.eye(2)[None], LinkBudget())


class TestPdpAndSinr:
    def test_pdp_layout(self):
        taps = np.zeros((2, 2, 2), dtype=complex)
        taps[0] = [[1.0, 2.0], [3.0, 4.0]]
        taps[1] = [[5.0, 6.0], [7.0, 8.0]]
        pdp = pdp_of_effective(EffectiveChannel(WHITE, TapSequence(-1, taps), 2))
        assert pdp.offset == -1
        np.testing.assert_allclose(pdp.power[0, 1], [4.0, 36.0])
        np.testing.assert_allclose(pdp.power[1, 1], [16.0, 64.0])

    def test_single_tap_identity_channel(self):
        eff = EffectiveChannel(WHITE, TapSequence(0, np.eye(2, dtype=complex)[None]), 1)
        link = LinkBudget(transmit_power=2.0, noise_variance=0.5)
        got = sinr_from_pdp(pdp_of_effective(eff), np.array([0.5, 0.5]), link)
        np.testing.assert_allclose(got.signal, 2.0)
        np.testing.assert_allclose(got.isi, 0.0)
        np.testing.assert_allclose(got.mui, 0.0)
        np.testing.assert_allclose(got.sinr, 4.0)

    def test_handcrafted_breakdown(self):
        power = np.zeros((2, 2, 3))
        power[0, 0] = [0.1, 4.0, 0.3]
        power[0, 1] = [0.2, 0.2, 0.2]
        power[1, 1] = [0.0, 9.0, 0.0]
        power[1, 0] = [0.5, 0.0, 0.0]
        from hybeam.metrics import EffectivePdp

        pdp = EffectivePdp(power, offset=-1)
        link = LinkBudget(transmit_power=2.0, noise_variance=1.0)
        got = sinr_from_pdp(pdp, np.array([1.0, 2.0]), link)
        np.testing.assert_allclose(got.signal, [8.0, 18.0])
        np.testing.assert_allclose(got.isi, [0.8, 0.0])
        np.testing.assert_allclose(got.mui, [1.2, 1.0])
        np.testing.assert_allclose(got.sinr, [8.0 / 3.0, 6.0])
        assert sum_rate_from_sinr(got) == pytest.approx(
            math.log2(1 + 8.0 / 3.0) + math.log2(7.0), rel=1e-12
        )

    def test_zero_delay_must_be_stored(self):
        from hybeam.metrics import EffectivePdp

        pdp = EffectivePdp(np.ones((1, 1, 2)), offset=1)
        with pytest.raises(ValueError):
            sinr_from_pdp(pdp, np.array([1.0]), LinkBudget())

    def test_noise_must_be_positive(self):
        eff = EffectiveChannel(WHITE, TapSequence(0, np.eye(2, dtype=complex)[None]), 1)
        with pytest.raises(ValueError):
            sinr_from_pdp(pdp_of_effective(eff), np.array([1.0, 0.0]), LinkBudget())

    def test_power_grid_equals_per_link_path_exactly(self):
        ch = rich(60)
        w = rf_ltap(ch)
        pdp = pdp_of_effective(effective_channel(w, ch))
        noise = combiner_noise_power(w, 1.0)
        links = [LinkBudget.from_snr_db(s) for s in (-10.0, -2.5, 0.0, 7.0, 20.0, 40.0)]
        expected = [sum_rate_from_sinr(sinr_from_pdp(pdp, noise, link)) for link in links]
        got = sinr_sum_rates(pdp, noise, [link.transmit_power for link in links])
        np.testing.assert_array_equal(got, expected)

    def test_power_grid_rejects_what_the_breakdown_rejects(self):
        from hybeam.metrics import EffectivePdp

        eff = EffectiveChannel(WHITE, TapSequence(0, np.eye(2, dtype=complex)[None]), 1)
        with pytest.raises(ValueError):
            sinr_sum_rates(pdp_of_effective(eff), np.array([1.0, 0.0]), [1.0])
        with pytest.raises(ValueError):
            sinr_sum_rates(EffectivePdp(np.ones((1, 1, 2)), offset=1), np.array([1.0]), [1.0])

    def test_same_user_coupling_expectations(self):
        # per-tap phase alignment: the off-zero same-user couplings average to
        # partial sums of the profile, the cross-user totals to the tap count
        dims = SystemDims(antennas=32, users=2, taps=4, subcarriers=16)
        pdp_in = exponential_pdp(dims.taps, dims.users)
        draws = 2000
        acc_same = np.zeros((dims.users, 2 * dims.taps - 1))
        acc_cross = np.zeros((dims.users, dims.users))
        for seed in range(draws):
            ch = draw_rich(dims, pdp_in, seed=seed)
            eff = effective_channel(rf_ltap(ch), ch)
            pdp = pdp_of_effective(eff)
            acc_same += np.einsum("uun->un", pdp.power)
            acc_cross += pdp.power.sum(axis=2)
        acc_same /= draws
        acc_cross /= draws
        zero = dims.taps - 1
        for u in range(dims.users):
            gains = pdp_in.gains[:, u]
            for n in (-3, -2, -1, 1, 2, 3):
                if n < 0:
                    expected = gains[: dims.taps + n].sum()
                else:
                    expected = gains[n:].sum()
                assert acc_same[u, zero + n] == pytest.approx(expected, rel=0.09), (u, n)
        for u in range(dims.users):
            for v in range(dims.users):
                if u != v:
                    assert acc_cross[u, v] == pytest.approx(dims.taps, rel=0.05)

    def test_empirical_sum_rate_approaches_closed_form(self):
        # the interference denominator keeps fluctuating at any array size, so
        # the concave log of the sum rate is the quantity that converges
        dims = SystemDims(antennas=2500, users=4, taps=4, subcarriers=128)
        pdp_in = exponential_pdp(dims.taps, dims.users)
        link = LinkBudget.from_snr_db(0.0)
        draws = 30
        acc = {"ltap": 0.0, "1tap": 0.0}
        for seed in range(draws):
            ch = draw_rich(dims, pdp_in, seed=seed)
            for name, build in (("ltap", rf_ltap), ("1tap", rf_1tap)):
                w = build(ch)
                eff = effective_channel(w, ch)
                noise = combiner_noise_power(w, link.noise_variance)
                acc[name] += sum_rate_from_sinr(
                    sinr_from_pdp(pdp_of_effective(eff), noise, link)
                )
        for name, limit in (("ltap", sinr_limit_ltap), ("1tap", sinr_limit_1tap)):
            target = sum(
                math.log2(1.0 + limit(link, dims.antennas, dims.users, pdp_in.column(u)))
                for u in range(dims.users)
            )
            assert acc[name] / draws == pytest.approx(target, rel=0.05), name


class TestRmsDelaySpread:
    def test_single_impulse(self):
        assert delay_moments(np.array([0.0, 5.0, 0.0]), 0) == (1.0, 0.0)

    def test_two_equal_taps(self):
        mean, rms = delay_moments(np.array([1.0, 1.0]), 0)
        assert mean == pytest.approx(0.5, abs=1e-14)
        assert rms == pytest.approx(0.5, abs=1e-14)

    def test_four_to_one_profile(self):
        mean, rms = delay_moments(np.array([4.0, 1.0]), 0)
        assert mean == pytest.approx(0.2, abs=1e-14)
        assert rms == pytest.approx(0.4, abs=1e-14)

    def test_shift_moves_mean_not_rms(self):
        base_mean, base_rms = delay_moments(np.array([1.0, 2.0, 1.0]), 0)
        mean, rms = delay_moments(np.array([1.0, 2.0, 1.0]), -3)
        assert mean == pytest.approx(base_mean - 3.0, abs=1e-12)
        assert rms == pytest.approx(base_rms, abs=1e-12)

    def test_scale_invariant(self):
        profile = np.array([0.3, 1.2, 0.8, 0.1])
        assert delay_moments(7.0 * profile, 0)[1] == pytest.approx(
            delay_moments(profile, 0)[1], rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            delay_moments(np.zeros(3), 0)
        with pytest.raises(ValueError):
            delay_moments(np.array([1.0, -0.5]), 0)
        with pytest.raises(ValueError):
            # one of the two profiles has no positive mass
            delay_moments(np.array([[1.0, 1.0], [0.0, 0.0]]), 0)

    def test_moments_over_last_axis_match_single_profiles(self):
        power = np.abs(complex_normal(stream(62), (3, 2, 5))) ** 2
        mean, rms = delay_moments(power, -2)
        for index in np.ndindex(3, 2):
            single_mean, single_rms = delay_moments(power[index], -2)
            assert mean[index] == pytest.approx(single_mean, abs=1e-14)
            assert rms[index] == pytest.approx(single_rms, abs=1e-14)

    def test_report_matches_per_user_loop(self):
        ch = rich(60)
        eff = effective_channel(mf_combiner(ch), ch)
        pdp = pdp_of_effective(eff)
        mean, rms = delay_spread_report(pdp)
        for u in range(DIMS.users):
            single_mean, single_rms = delay_moments(pdp.power[u, u], pdp.offset)
            assert rms[u] == pytest.approx(single_rms, abs=1e-14)
            assert mean[u] == pytest.approx(single_mean, abs=1e-14)

    def test_combining_shrinks_spread(self):
        # per-tap alignment concentrates power at delay zero
        dims = SystemDims(antennas=128, users=2, taps=4, subcarriers=16)
        ch = rich(61, dims)
        eff = effective_channel(rf_ltap(ch), ch)
        _, rms = delay_spread_report(pdp_of_effective(eff))
        raw_profile = np.abs(ch.taps.taps[:, 0, 0]) ** 2
        assert np.all(rms < delay_moments(raw_profile, 0)[1])
