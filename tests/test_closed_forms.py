"""Closed-form limits: worked values, oracles, monotonicity, consistency."""

import math

import numpy as np
import pytest

from hybeam.channel import PowerDelayProfile, exponential_pdp, stream
from hybeam.closed_forms import (
    MODEL_1TAP,
    MODEL_LTAP,
    capacity_limit,
    delay_spread_envelopes,
    predict,
    sinr_ceiling_1tap,
    sinr_ceiling_ltap,
    sinr_limit_1tap,
    sinr_limit_ltap,
)
from hybeam.metrics import LinkBudget

UNIFORM4 = np.full(4, 0.25)


def dirichlet_profile(key, taps, users):
    """Random normalized profile built from exponential draws."""
    u = stream(key).random((taps, users))
    w = -np.log1p(-u)
    return PowerDelayProfile(w / w.sum(axis=0))


class TestSinrLimits:
    def test_uniform_profile_worked_value(self):
        # M=100, U=4, L=4, unit powers: coherent gain (pi/4)*100*|4*0.5|^2
        # over 4 + 15 leaked streams
        link = LinkBudget()
        got = sinr_limit_ltap(link, 100, 4, UNIFORM4)
        assert got == pytest.approx(100.0 * math.pi / 19.0, rel=1e-12)
        assert got == pytest.approx(16.5347, abs=5e-5)

    def test_uniform_profile_1tap_worked_value(self):
        link = LinkBudget()
        got = sinr_limit_1tap(link, 100, 4, UNIFORM4)
        assert got == pytest.approx(0.25 * 25.0 * math.pi / 4.75, rel=1e-12)
        assert got == pytest.approx(4.134, abs=5e-4)

    def test_single_user_flat_channel(self):
        # U=1, L=1: both limits collapse to (pi/4) * M * snr
        link = LinkBudget(transmit_power=2.0, noise_variance=0.5)
        one = np.array([1.0])
        expected = math.pi / 4.0 * 64 * link.snr
        assert sinr_limit_ltap(link, 64, 1, one) == pytest.approx(expected, rel=1e-12)
        assert sinr_limit_1tap(link, 64, 1, one) == pytest.approx(expected, rel=1e-12)

    def test_linear_in_antennas(self):
        link = LinkBudget.from_snr_db(3.0)
        col = exponential_pdp(4, 4).column(2)
        a = sinr_limit_ltap(link, 100, 4, col)
        b = sinr_limit_ltap(link, 200, 4, col)
        assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_decreasing_in_users(self):
        link = LinkBudget.from_snr_db(10.0)
        col = exponential_pdp(4, 4).column(0)
        values = [sinr_limit_ltap(link, 100, users, col) for users in (1, 2, 4, 8)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_increasing_in_power_toward_ceiling(self):
        col = exponential_pdp(4, 4).column(1)
        values = [
            sinr_limit_ltap(LinkBudget(transmit_power=p), 100, 4, col)
            for p in (0.1, 1.0, 10.0, 1e3)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        ceiling = sinr_ceiling_ltap(100, 4, col)
        assert values[-1] < ceiling

    def test_ceilings_match_large_power_limit(self):
        col = exponential_pdp(4, 4).column(3)
        strong = LinkBudget(transmit_power=1e12)
        assert sinr_limit_ltap(strong, 100, 4, col) == pytest.approx(
            sinr_ceiling_ltap(100, 4, col), rel=1e-9
        )
        assert sinr_limit_1tap(strong, 100, 4, col) == pytest.approx(
            sinr_ceiling_1tap(100, 4, col), rel=1e-9
        )

    def test_column_validation(self):
        link = LinkBudget()
        with pytest.raises(ValueError):
            sinr_limit_ltap(link, 100, 4, np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            sinr_limit_1tap(link, 100, 4, np.array([1.5, -0.5]))


class TestCapacityLimit:
    def test_matches_matrix_oracle(self):
        # same number via an explicit diagonal log-det
        link = LinkBudget.from_snr_db(5.0)
        pdp = exponential_pdp(4, 3)
        for model in (MODEL_LTAP, MODEL_1TAP):
            if model == MODEL_LTAP:
                collected = np.sqrt(pdp.gains).sum(axis=0) ** 2
            else:
                collected = pdp.gains[0]
            gram = np.diag(link.snr * math.pi / 4.0 * 100 * collected)
            sign, logabs = np.linalg.slogdet(np.eye(3) + gram)
            assert capacity_limit(link, 100, pdp, model) == pytest.approx(
                logabs / math.log(2.0), rel=1e-12
            )

    def test_per_tap_never_below_single_tap(self):
        link = LinkBudget.from_snr_db(0.0)
        for key in range(20):
            pdp = dirichlet_profile(700 + key, 4, 3)
            assert capacity_limit(link, 64, pdp, MODEL_LTAP) >= capacity_limit(
                link, 64, pdp, MODEL_1TAP
            )

    def test_flat_channel_models_agree(self):
        link = LinkBudget.from_snr_db(7.0)
        pdp = exponential_pdp(1, 4)
        assert capacity_limit(link, 100, pdp, MODEL_LTAP) == pytest.approx(
            capacity_limit(link, 100, pdp, MODEL_1TAP), rel=1e-12
        )

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            capacity_limit(LinkBudget(), 100, exponential_pdp(4, 4), "3tap")


class TestEnvelopesAndPredict:
    def test_envelope_values(self):
        low, high = delay_spread_envelopes(np.array([100.0, 400.0]))
        np.testing.assert_allclose(low, [0.1, 0.05], atol=1e-14)
        np.testing.assert_allclose(high, [0.3, 0.15], atol=1e-14)

    def test_envelope_validation(self):
        with pytest.raises(ValueError):
            delay_spread_envelopes(np.array([0.5]))

    def test_predict_bundles_consistently(self):
        link = LinkBudget.from_snr_db(0.0)
        pdp = exponential_pdp(4, 4)
        for model in (MODEL_LTAP, MODEL_1TAP):
            bundle = predict(link, 100, pdp, model)
            assert bundle.model == model
            assert bundle.sinr.shape == (4,)
            assert bundle.sum_rate == pytest.approx(
                float(np.sum(np.log2(1.0 + bundle.sinr))), rel=1e-12
            )
            assert bundle.capacity == pytest.approx(
                capacity_limit(link, 100, pdp, model), rel=1e-12
            )

    def test_predict_ordering(self):
        link = LinkBudget.from_snr_db(0.0)
        pdp = exponential_pdp(4, 4)
        assert predict(link, 100, pdp, MODEL_LTAP).capacity > predict(
            link, 100, pdp, MODEL_1TAP
        ).capacity

    def test_predict_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            predict(LinkBudget(), 100, exponential_pdp(4, 4), "mf")
