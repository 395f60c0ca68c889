"""Channel generators: profile shapes, draw statistics, reproducibility."""

import math
import re

import numpy as np
import pytest

from hybeam.channel import (
    ChannelRealization,
    PowerDelayProfile,
    SparseChannelConfig,
    SystemDims,
    channel_spectrum,
    complex_normal,
    draw_rich,
    draw_sparse,
    dump_channel,
    exponential_pdp,
    laplace,
    load_channel_dump,
    steering_vector,
    stream,
)
from hybeam.numerics import TapSequence

DIMS = SystemDims(antennas=16, users=3, taps=4, subcarriers=32)


class TestStreams:
    def test_same_key_reproduces(self):
        a = complex_normal(stream(7, 1), (100,))
        b = complex_normal(stream(7, 1), (100,))
        np.testing.assert_array_equal(a, b)

    def test_complex_normal_phasors_from_tan_match_cos_and_sin(self):
        # the same uniforms through radius * (cos + i sin)(2*pi*u)
        draws = complex_normal(stream(8), (100_000,))
        rng = stream(8)
        radius = np.sqrt(-np.log1p(-rng.random(100_000)))
        angle = 2.0 * np.pi * rng.random(100_000)
        expected = radius * np.cos(angle) + 1j * radius * np.sin(angle)
        assert np.max(np.abs(draws - expected) / np.abs(expected)) <= 2e-15

    def test_distinct_keys_differ(self):
        a = complex_normal(stream(7, 1), (100,))
        b = complex_normal(stream(7, 2), (100,))
        assert np.max(np.abs(a - b)) > 1e-3

    def test_key_order_matters(self):
        a = complex_normal(stream(1, 2), (50,))
        b = complex_normal(stream(2, 1), (50,))
        assert np.max(np.abs(a - b)) > 1e-3

    def test_negative_key_masked(self):
        # keys are folded into the unsigned 64-bit range, not rejected
        assert stream(-1).random() == stream((1 << 64) - 1).random()

    def test_complex_normal_moments(self):
        z = complex_normal(stream(11), (100_000,))
        assert abs(z.mean()) < 0.02
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=0.02)
        assert np.mean(np.abs(z)) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=0.01)
        assert np.var(z.real) == pytest.approx(0.5, rel=0.03)
        assert np.var(z.imag) == pytest.approx(0.5, rel=0.03)

    @pytest.mark.parametrize("shape", [(7,), (4, 25, 4), (2, 3, 400, 1)])
    def test_complex_normal_is_the_polar_inverse_transform(self, shape):
        # the magnitude from the first draw, the phase exp(2j*pi*u) from the second
        rng = stream(12, len(shape))
        u_mag, u_phase = rng.random(shape), rng.random(shape)
        expected = np.sqrt(-np.log1p(-u_mag)) * np.exp(2j * np.pi * u_phase)
        z = complex_normal(stream(12, len(shape)), shape)
        assert z.shape == shape and z.dtype == complex
        np.testing.assert_allclose(z, expected, rtol=1e-15, atol=0.0)

    def test_distinct_seeds_uncorrelated(self):
        a = complex_normal(stream(21), (10_000,)).real
        b = complex_normal(stream(22), (10_000,)).real
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.05

    def test_laplace_moments(self):
        scale = 0.7
        x = laplace(stream(31), scale, (200_000,))
        assert abs(x.mean()) < 0.01
        assert np.mean(np.abs(x)) == pytest.approx(scale, rel=0.02)
        assert np.var(x) == pytest.approx(2.0 * scale**2, rel=0.03)

    def test_laplace_finite_at_extremes(self):
        x = laplace(stream(32), 1.0, (100_000,))
        assert np.all(np.isfinite(x))


class TestExponentialPdp:
    def test_first_user_uniform(self):
        pdp = exponential_pdp(4, 3)
        np.testing.assert_allclose(pdp.column(0), 0.25, atol=1e-14)

    def test_columns_sum_to_one(self):
        pdp = exponential_pdp(6, 5)
        np.testing.assert_allclose(pdp.gains.sum(axis=0), 1.0, atol=1e-12)

    def test_second_user_leading_tap(self):
        # decay rate 1/5 for the second user: direct evaluation
        expected = 1.0 / sum(math.exp(-0.2 * l) for l in range(4))
        assert exponential_pdp(4, 4).gains[0, 1] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.3292, abs=5e-5)

    def test_columns_nonincreasing(self):
        pdp = exponential_pdp(5, 4)
        assert np.all(np.diff(pdp.gains, axis=0) <= 1e-15)

    def test_later_users_more_concentrated(self):
        pdp = exponential_pdp(4, 4)
        assert np.all(np.diff(pdp.gains[0]) > 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            exponential_pdp(0, 2)
        with pytest.raises(ValueError):
            PowerDelayProfile(np.array([[0.5], [0.4]]))
        with pytest.raises(ValueError):
            PowerDelayProfile(np.array([[1.5], [-0.5]]))


class TestSystemDims:
    def test_validation(self):
        with pytest.raises(ValueError):
            SystemDims(antennas=2, users=4, taps=4, subcarriers=128)
        with pytest.raises(ValueError):
            SystemDims(antennas=8, users=2, taps=0, subcarriers=16)
        with pytest.raises(ValueError):
            SystemDims(antennas=8, users=2, taps=4, subcarriers=6)

    @pytest.mark.parametrize("field", ["antennas", "users", "taps", "subcarriers"])
    @pytest.mark.parametrize("value", [100.5, True, math.inf, math.nan, "100"])
    def test_counts_are_whole_numbers(self, field, value):
        # a draw reads each count as an array size, so none may reach it
        counts = dict(antennas=100, users=4, taps=4, subcarriers=128)
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            SystemDims(**{**counts, field: value})
        dims = SystemDims(**{**counts, field: np.int64(counts[field])})
        assert dims == SystemDims(**counts) and type(getattr(dims, field)) is int

    def test_spectrum_beyond_memory_rejected(self):
        for antennas in (4_000_000_000, 10**20, 10**400):
            with pytest.raises(ValueError, match="complex spectrum needs more than the"):
                SystemDims(antennas=antennas, users=4, taps=4, subcarriers=128)


class TestDrawRich:
    def test_reproducible(self):
        pdp = exponential_pdp(DIMS.taps, DIMS.users)
        a = draw_rich(DIMS, pdp, seed=42)
        b = draw_rich(DIMS, pdp, seed=42)
        np.testing.assert_array_equal(a.taps.taps, b.taps.taps)
        c = draw_rich(DIMS, pdp, seed=43)
        assert np.max(np.abs(a.taps.taps - c.taps.taps)) > 1e-3

    def test_shape_and_offset(self):
        ch = draw_rich(DIMS, exponential_pdp(DIMS.taps, DIMS.users), seed=1)
        assert ch.taps.offset == 0
        assert ch.taps.taps.shape == (DIMS.taps, DIMS.antennas, DIMS.users)

    def test_tap_powers_follow_profile(self):
        dims = SystemDims(antennas=400, users=3, taps=4, subcarriers=32)
        pdp = exponential_pdp(dims.taps, dims.users)
        powers = np.zeros((dims.taps, dims.users))
        draws = 25
        for seed in range(draws):
            ch = draw_rich(dims, pdp, seed=seed)
            powers += np.mean(np.abs(ch.taps.taps) ** 2, axis=1)
        np.testing.assert_allclose(powers / draws, pdp.gains, rtol=0.05)

    def test_entry_magnitude_mean(self):
        # |entry| / sqrt(gain) should average sqrt(pi)/2 like a unit Gaussian
        dims = SystemDims(antennas=2000, users=4, taps=4, subcarriers=32)
        pdp = exponential_pdp(dims.taps, dims.users)
        ch = draw_rich(dims, pdp, seed=9)
        normalized = np.abs(ch.taps.taps) / np.sqrt(pdp.gains)[:, None, :]
        assert normalized.mean() == pytest.approx(math.sqrt(math.pi) / 2.0, rel=0.01)

    def test_profile_shape_mismatch(self):
        with pytest.raises(ValueError):
            draw_rich(DIMS, exponential_pdp(3, DIMS.users), seed=0)


class TestSteeringVector:
    def test_unit_norm(self):
        for m in (1, 4, 9):
            assert np.linalg.norm(steering_vector(m, 1.1)) == pytest.approx(1.0, abs=1e-12)

    def test_broadside_is_constant(self):
        v = steering_vector(8, math.pi / 2)
        np.testing.assert_allclose(v, 1.0 / math.sqrt(8), atol=1e-12)

    def test_endfire_alternates(self):
        v = steering_vector(4, 0.0, spacing_ratio=0.5)
        np.testing.assert_allclose(v, np.array([1.0, -1.0, 1.0, -1.0]) / 2.0, atol=1e-12)

    def test_quarter_wavelength_spacing(self):
        v = steering_vector(4, 0.0, spacing_ratio=0.25)
        np.testing.assert_allclose(v, np.array([1.0, 1.0j, -1.0, -1.0j]) / 2.0, atol=1e-12)

    def test_broadcasts_over_angles(self):
        angles = np.array([[0.0, 0.4], [1.1, math.pi / 2], [2.5, 3.0]])
        grid = steering_vector(6, angles, spacing_ratio=0.3)
        assert grid.shape == (6, 3, 2)
        for index in np.ndindex(3, 2):
            np.testing.assert_allclose(
                grid[(slice(None), *index)], steering_vector(6, angles[index], 0.3), atol=1e-15
            )

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 8, 9, 100, 400, 500])
    def test_doubling_matches_long_double_phasors(self, m):
        # exp(1j*k*phi) for the same rounded phase phi, with k*phi and the
        # phasor evaluated in long double
        angles = np.concatenate([np.linspace(0.0, 2.0 * np.pi, 37), [0.3, 1.0e-9, 2.9]])
        for ratio in (0.5, 0.3, 2.7):
            phase = (2.0 * np.pi * ratio) * np.cos(angles)
            wide = np.arange(m, dtype=np.longdouble)
            turns = np.multiply.outer(wide, phase.astype(np.longdouble))
            exact = np.cos(turns) + 1j * np.sin(turns)
            unit = steering_vector(m, angles, ratio) * math.sqrt(m)
            assert float(np.max(np.abs(unit - exact))) < 1e-13

    def test_ramp_that_is_not_finite_raises_without_warnings(self):
        # warnings are errors under this suite's settings, so a leaked
        # RuntimeWarning would fail the match
        cases = ((np.inf, 0.5, 4), (np.nan, 0.5, 4), (0.0, np.inf, 4), (0.0, 1.0e306, 500))
        for angle, ratio, m in cases:
            with pytest.raises(ValueError, match="phase ramp"):
                steering_vector(m, np.array([0.2, angle]), ratio)
        # the same step over too few elements to overflow is a number
        assert np.all(np.isfinite(steering_vector(2, 0.0, 1.0e306)))


class TestDrawSparse:
    def test_matches_einsum_oracle(self):
        # the path sum and the phasors against einsum of complex exponentials
        for dims, cfg, seed in (
            (DIMS, SparseChannelConfig(), 4),
            (SystemDims(100, 4, 4, 128), SparseChannelConfig(), 5),
            (SystemDims(7, 2, 1, 4), SparseChannelConfig(3, 20.0, 0.3), 6),
        ):
            pdp = exponential_pdp(dims.taps, dims.users)
            shape = (dims.taps, cfg.paths_per_cluster, dims.users)
            rng = stream(seed)
            centers = 2.0 * np.pi * rng.random((dims.taps, dims.users))
            offsets = laplace(rng, np.deg2rad(cfg.angular_spread_deg) / np.sqrt(2.0), shape)
            gains = complex_normal(rng, shape) * np.sqrt(pdp.gains)[:, None, :]
            angles = centers[:, None, :] + offsets
            ramp = 2j * np.pi * cfg.spacing_ratio * np.arange(dims.antennas)
            responses = np.exp(np.multiply.outer(ramp, np.cos(angles))) / np.sqrt(dims.antennas)
            scale = np.sqrt(dims.antennas / (dims.taps * cfg.paths_per_cluster))
            oracle = scale * np.einsum("lpu,mlpu->lmu", gains, responses)
            taps = draw_sparse(dims, pdp, cfg, seed).taps.taps
            np.testing.assert_allclose(taps, oracle, rtol=0.0, atol=1e-12 * np.max(np.abs(oracle)))

    def test_reproducible(self):
        pdp = exponential_pdp(DIMS.taps, DIMS.users)
        cfg = SparseChannelConfig()
        a = draw_sparse(DIMS, pdp, cfg, seed=5)
        b = draw_sparse(DIMS, pdp, cfg, seed=5)
        np.testing.assert_array_equal(a.taps.taps, b.taps.taps)

    def test_shape(self):
        ch = draw_sparse(DIMS, exponential_pdp(DIMS.taps, DIMS.users), SparseChannelConfig(), seed=3)
        assert ch.taps.taps.shape == (DIMS.taps, DIMS.antennas, DIMS.users)
        assert ch.taps.offset == 0

    def test_single_path_column_has_flat_magnitude(self):
        # one path per cluster: each column is one scaled steering vector,
        # so its entries share a single magnitude
        cfg = SparseChannelConfig(paths_per_cluster=1)
        ch = draw_sparse(DIMS, exponential_pdp(DIMS.taps, DIMS.users), cfg, seed=8)
        mags = np.abs(ch.taps.taps)
        spread = mags.max(axis=1) - mags.min(axis=1)
        assert np.max(spread) < 1e-12

    def test_expected_column_power(self):
        dims = SystemDims(antennas=16, users=2, taps=2, subcarriers=8)
        pdp = exponential_pdp(dims.taps, dims.users)
        cfg = SparseChannelConfig()
        total = np.zeros((dims.taps, dims.users))
        draws = 3000
        for seed in range(draws):
            ch = draw_sparse(dims, pdp, cfg, seed=seed)
            total += np.sum(np.abs(ch.taps.taps) ** 2, axis=1)
        expected = dims.antennas * pdp.gains / dims.taps
        np.testing.assert_allclose(total / draws, expected, rtol=0.08)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SparseChannelConfig(paths_per_cluster=0)
        with pytest.raises(ValueError):
            SparseChannelConfig(angular_spread_deg=0.0)
        with pytest.raises(ValueError):
            SparseChannelConfig(spacing_ratio=-0.5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("paths_per_cluster", 2.5),
            ("paths_per_cluster", True),
            ("paths_per_cluster", "3"),
            ("angular_spread_deg", math.inf),
            ("angular_spread_deg", math.nan),
            ("spacing_ratio", math.inf),
            ("spacing_ratio", 1e308),
        ],
    )
    def test_config_rejects_what_a_draw_cannot_honour(self, field, value):
        with pytest.raises(ValueError, match=field):
            SparseChannelConfig(**{field: value})

    def test_config_takes_integer_path_counts(self):
        cfg = SparseChannelConfig(paths_per_cluster=np.int64(3))
        assert cfg.paths_per_cluster == 3 and type(cfg.paths_per_cluster) is int


class TestSpectrumAndDump:
    def test_flat_for_single_tap(self):
        dims = SystemDims(antennas=4, users=2, taps=1, subcarriers=8)
        ch = draw_rich(dims, exponential_pdp(1, 2), seed=2)
        grid = channel_spectrum(ch)
        for k in range(8):
            np.testing.assert_allclose(grid[k], ch.taps.taps[0], atol=1e-14)

    def test_matches_direct_sum(self):
        ch = draw_rich(DIMS, exponential_pdp(DIMS.taps, DIMS.users), seed=4)
        grid = channel_spectrum(ch, 16)
        for k in (0, 3, 15):
            expected = sum(
                ch.taps.taps[l] * np.exp(-2j * np.pi * l * k / 16) for l in range(DIMS.taps)
            )
            np.testing.assert_allclose(grid[k], expected, atol=1e-12)

    def test_dump_round_trip(self, tmp_path):
        ch = draw_rich(DIMS, exponential_pdp(DIMS.taps, DIMS.users), seed=77)
        path = tmp_path / "chan.txt"
        dump_channel(ch, path, seed=77, model="rich")
        meta, taps = load_channel_dump(path)
        assert meta["antennas"] == DIMS.antennas
        assert meta["users"] == DIMS.users
        assert meta["taps"] == DIMS.taps
        assert meta["seed"] == 77
        assert meta["model"] == "rich"
        np.testing.assert_array_equal(taps.taps, ch.taps.taps)

    def test_dump_header_format(self, tmp_path):
        ch = draw_rich(DIMS, exponential_pdp(DIMS.taps, DIMS.users), seed=1)
        path = tmp_path / "chan.txt"
        dump_channel(ch, path, seed=1, model="rich")
        lines = path.read_text().splitlines()
        assert lines[0] == "# hybeam channel dump"
        assert lines[1].startswith("# antennas=")
        body = [line for line in lines if not line.startswith("#")]
        assert len(body) == DIMS.taps * DIMS.antennas * DIMS.users

    def _dump_lines(self, tmp_path):
        ch = draw_rich(DIMS, exponential_pdp(DIMS.taps, DIMS.users), seed=5)
        path = tmp_path / "chan.txt"
        dump_channel(ch, path, seed=5, model="rich")
        return path, path.read_text().splitlines()

    def test_dump_rejects_out_of_range_index(self, tmp_path):
        path, lines = self._dump_lines(tmp_path)
        for bad in ("-1 0 0 1 0", f"0 {DIMS.antennas} 0 1 0", f"0 0 {DIMS.users} 1 0"):
            path.write_text("\n".join(lines + [bad]) + "\n")
            with pytest.raises(ValueError, match="outside"):
                load_channel_dump(path)

    def test_dump_rejects_duplicate_entry(self, tmp_path):
        path, lines = self._dump_lines(tmp_path)
        path.write_text("\n".join(lines + ["0 0 0 1 0"]) + "\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_channel_dump(path)

    def test_dump_rejects_missing_entry(self, tmp_path):
        path, lines = self._dump_lines(tmp_path)
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="lacks 1 of"):
            load_channel_dump(path)

    def test_dump_counts_entries_before_allocating(self, tmp_path):
        # a header alone, declaring 10**12 antennas: hundreds of TiB of taps
        path = self._with_header_field(tmp_path, "antennas", str(10**12), entries=False)
        assert len(path.read_text().splitlines()) == 3
        size = DIMS.taps * 10**12 * DIMS.users
        with pytest.raises(ValueError, match=rf"chan\.txt: dump lacks {size} of {size} entries"):
            load_channel_dump(path)

    def test_dump_names_the_line_of_a_malformed_entry(self, tmp_path):
        path, lines = self._dump_lines(tmp_path)
        for bad in ("0 x 0 1 0", "0 0 0 1", "0 0 0 1 0 0", "0 0 0 1 y"):
            path.write_text("\n".join(lines[:5] + [bad] + lines[5:]) + "\n")
            message = rf"chan\.txt:6: malformed dump line: '{bad}'"
            with pytest.raises(ValueError, match=message):
                load_channel_dump(path)

    def _with_header_field(self, tmp_path, field, text, entries=True):
        """A dump whose header sets ``field=text``, with or without its entries."""
        path, lines = self._dump_lines(tmp_path)
        header, count = re.subn(rf"\b{field}=\S+", f"{field}={text}", lines[1])
        if not count:
            header += f" {field}={text}"
        rest = lines[2:] if entries else lines[2:3]
        path.write_text("\n".join([lines[0], header, *rest]) + "\n")
        return path

    def test_dump_rejects_counts_below_one(self, tmp_path):
        for field in ("antennas", "users", "taps"):
            # header only: zero antennas would load as an empty tap sequence
            path = self._with_header_field(tmp_path, field, "0", entries=False)
            message = rf"chan\.txt: dump header field {field} must be an integer in \[1,"
            with pytest.raises(ValueError, match=message):
                load_channel_dump(path)

    def test_dump_rejects_unknown_header_field(self, tmp_path):
        path = self._with_header_field(tmp_path, "extra", "x")
        with pytest.raises(ValueError, match=r"chan\.txt: unknown dump header field 'extra'"):
            load_channel_dump(path)

    def test_dump_rejects_a_header_field_given_twice(self, tmp_path):
        # a later header line would otherwise silently win: 1 antenna, then 2
        path = tmp_path / "chan.txt"
        path.write_text(
            "# hybeam channel dump\n"
            "# antennas=1 users=1 taps=1 seed=3 model=rich\n"
            "# antennas=2\n"
            "0 0 0 1 0\n"
        )
        with pytest.raises(ValueError, match=r"chan\.txt: dump header field antennas given twice"):
            load_channel_dump(path)
        # on one line too, whether the two values differ or not
        for field in ("seed", "model"):
            path, lines = self._dump_lines(tmp_path)
            value = re.search(rf"\b{field}=\S+", lines[1]).group()
            path.write_text("\n".join([lines[0], f"{lines[1]} {value}", *lines[2:]]) + "\n")
            with pytest.raises(ValueError, match=rf"chan\.txt: dump header field {field} given twice"):
                load_channel_dump(path)

    def test_dump_rejects_non_integer_header_field(self, tmp_path):
        for field, text in (("antennas", "16.0"), ("users", "x"), ("seed", "")):
            path = self._with_header_field(tmp_path, field, text)
            message = rf"chan\.txt: dump header field {field} is not an integer: '{text}'"
            with pytest.raises(ValueError, match=message):
                load_channel_dump(path)

    def test_realization_validation(self):
        pdp = exponential_pdp(DIMS.taps, DIMS.users)
        taps = complex_normal(stream(1), (DIMS.taps, DIMS.antennas, DIMS.users))
        with pytest.raises(ValueError):
            ChannelRealization(DIMS, TapSequence(1, taps), pdp)
        with pytest.raises(ValueError):
            ChannelRealization(DIMS, TapSequence(0, taps[:, :2, :]), pdp)
