"""Closed-form limits: worked values, oracles, monotonicity, consistency."""

import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybeam.channel import PowerDelayProfile, exponential_pdp, stream
from hybeam.closed_forms import (
    COHERENT_GAIN,
    MODEL_1TAP,
    MODEL_LTAP,
    _model,
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

    def test_ceilings_of_a_lone_stream_are_infinite(self):
        # one user on one tap leaks nothing under either model, and a lone
        # user whose power is all on its leading tap nothing to the
        # single-tap network: each ceiling is inf, without a warning
        for ceiling in (sinr_ceiling_ltap, sinr_ceiling_1tap):
            assert ceiling(100, 1, [1.0]) == math.inf
        assert sinr_ceiling_1tap(100, 1, [1.0, 0.0]) == math.inf
        assert math.isfinite(sinr_ceiling_ltap(100, 1, [1.0, 0.0]))

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

    @pytest.mark.parametrize("model", [MODEL_LTAP, MODEL_1TAP])
    def test_rates_to_2_ulp_at_low_snr(self, model):
        # log2(1 + x) against a 50-digit decimal reference on the same float
        # SINRs and gains: forming 1 + x would lose ulp(1) / x relative
        link = LinkBudget.from_snr_db(-30.0)
        pdp = exponential_pdp(4, 4)
        bundle = predict(link, 100, pdp, model)
        collected = np.array([_model(model, 4, pdp.column(u))[0] for u in range(4)])
        gains = link.snr * COHERENT_GAIN * 100 * collected
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            ln2 = decimal.Decimal(2).ln()
            for got, xs in ((bundle.sum_rate, bundle.sinr), (bundle.capacity, gains)):
                exact = float(sum((1 + decimal.Decimal(float(x))).ln() / ln2 for x in xs))
                assert abs(got - exact) <= 2 * math.ulp(exact), (got, exact)

    def test_predict_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            predict(LinkBudget(), 100, exponential_pdp(4, 4), "mf")


@st.composite
def profiles(draw):
    """A profile of 1 to 16 users over 1 to 8 taps, whose columns may hold zero taps."""
    taps = draw(st.integers(1, 8))
    users = draw(st.integers(1, 16))
    weights = st.lists(st.floats(0.0, 1.0), min_size=taps, max_size=taps).filter(any)
    columns = [np.array(draw(weights)) for _ in range(users)]
    return PowerDelayProfile(np.stack([w / w.sum() for w in columns], axis=1))


class TestOracle:
    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(
        pdp=profiles(),
        antennas=st.integers(1, 10_000),
        power=st.floats(1e-3, 1e3),
        noise=st.floats(1e-3, 1e3),
    )
    def test_every_closed_form_matches_its_expression(self, pdp, antennas, power, noise):
        # the limits written out per user.  log2(1 + g) at a tiny g turns
        # the last bit of g into a large relative error, so each gain g is
        # formed in the module's order: for the single-tap network it is then
        # the same number, and the per-tap network collects at least 1
        link = LinkBudget(transmit_power=power, noise_variance=noise)
        taps, users = pdp.gains.shape
        gain = math.pi / 4.0 * antennas
        collected = {MODEL_LTAP: [], MODEL_1TAP: []}
        for u in range(users):
            p = pdp.column(u)
            coherent = math.fsum(math.sqrt(x) for x in p) ** 2
            tail = math.fsum(p[1:])
            collected[MODEL_LTAP].append(coherent)
            collected[MODEL_1TAP].append(p[0])
            ltap = gain * power * coherent / (taps * noise + power * (users * taps - 1))
            one_tap = gain * power * p[0] / (noise + power * (tail + users - 1))
            assert sinr_limit_ltap(link, antennas, users, p) == pytest.approx(ltap, rel=1e-14)
            assert sinr_limit_1tap(link, antennas, users, p) == pytest.approx(one_tap, rel=1e-14)
            # a ceiling with nothing leaked is infinite
            leaked = users * taps - 1
            expected = gain * coherent / leaked if leaked else math.inf
            assert sinr_ceiling_ltap(antennas, users, p) == pytest.approx(expected, rel=1e-14)
            leaked = tail + users - 1
            expected = gain * p[0] / leaked if leaked else math.inf
            assert sinr_ceiling_1tap(antennas, users, p) == pytest.approx(expected, rel=1e-14)
        per_user = {MODEL_LTAP: sinr_limit_ltap, MODEL_1TAP: sinr_limit_1tap}
        for model, powers in collected.items():
            capacity = math.fsum(
                math.log1p(link.snr * (math.pi / 4.0) * antennas * c) / math.log(2.0)
                for c in powers
            )
            assert capacity_limit(link, antennas, pdp, model) == pytest.approx(capacity, rel=1e-14)
            bundle = predict(link, antennas, pdp, model)
            assert bundle.capacity == capacity_limit(link, antennas, pdp, model)
            assert list(bundle.sinr) == [
                per_user[model](link, antennas, users, pdp.column(u)) for u in range(users)
            ]
