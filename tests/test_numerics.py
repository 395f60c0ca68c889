"""Tap-sequence transforms against naive oracles and algebraic identities."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybeam.beamforming import zf_spectrum
from hybeam.channel import complex_normal, stream
from hybeam import experiments
from hybeam.channel import SystemDims
from hybeam.numerics import (
    GRAM_SCREEN_RTOL,
    LDL_MAX_ORDER,
    SingularMatrixError,
    TapSequence,
    circular_convolve,
    dft_of_taps,
    first_rank_deficient,
    gram_eigvals,
    gram_spectrum,
    ldl_pivots,
)


def random_seq(key, span, rows, cols, offset=0):
    return TapSequence(offset, complex_normal(stream(key), (span, rows, cols)))


def embed_mod_k(seq, k):
    """K-periodic embedding of a tap sequence: absolute delays folded mod K."""
    rows, cols = seq.shape
    out = np.zeros((k, rows, cols), dtype=complex)
    for i, delay in enumerate(seq.delays):
        out[delay % k] += seq.taps[i]
    return out


def naive_dft(embedded):
    """Direct double-loop DFT of a K-slot embedded sequence."""
    k = embedded.shape[0]
    out = np.zeros_like(embedded)
    for bin_ in range(k):
        for slot in range(k):
            out[bin_] += embedded[slot] * np.exp(-2j * np.pi * slot * bin_ / k)
    return out


def naive_circular(a_embedded, b_embedded):
    """Direct modular-index circular convolution of embedded sequences."""
    k = a_embedded.shape[0]
    out = np.zeros((k, a_embedded.shape[1], b_embedded.shape[2]), dtype=complex)
    for n in range(k):
        for m in range(k):
            out[n] += a_embedded[m] @ b_embedded[(n - m) % k]
    return out


class TestTapSequence:
    def test_tap_lookup_and_zero_padding(self):
        taps = np.arange(12, dtype=complex).reshape(3, 2, 2)
        seq = TapSequence(-1, taps)
        assert seq.span == 3
        assert seq.shape == (2, 2)
        np.testing.assert_array_equal(seq.delays, [-1, 0, 1])
        np.testing.assert_array_equal(seq.tap(0), taps[1])
        np.testing.assert_array_equal(seq.tap(5), np.zeros((2, 2)))
        np.testing.assert_array_equal(seq.tap(-2), np.zeros((2, 2)))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            TapSequence(0, np.ones((2, 2)))
        with pytest.raises(ValueError):
            TapSequence(0, np.ones((0, 2, 2)))
        bad = np.ones((1, 2, 2), dtype=complex)
        bad[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            TapSequence(0, bad)


class TestDftOfTaps:
    def test_single_tap_is_flat(self):
        tap = np.array([[1.0 + 2.0j, 0.5], [0.0, -1.0j]])
        grid = dft_of_taps(TapSequence(0, tap[None]), 4)
        for k in range(4):
            np.testing.assert_array_equal(grid[k], tap)

    def test_two_taps_sum_and_difference(self):
        a = np.array([[2.0 + 0.0j]])
        b = np.array([[0.5 - 1.0j]])
        grid = dft_of_taps(TapSequence(0, np.stack([a, b])), 2)
        np.testing.assert_allclose(grid[0], a + b, atol=1e-15)
        np.testing.assert_allclose(grid[1], a - b, atol=1e-15)

    def test_offset_becomes_phase_ramp(self):
        tap = np.array([[1.0 + 1.0j]])
        grid = dft_of_taps(TapSequence(1, tap[None]), 8)
        for k in range(8):
            np.testing.assert_allclose(grid[k], tap * np.exp(-2j * np.pi * k / 8), atol=1e-14)

    def test_matches_naive_dft(self):
        seq = random_seq(101, 4, 2, 3, offset=-2)
        grid = dft_of_taps(seq, 8)
        np.testing.assert_allclose(grid, naive_dft(embed_mod_k(seq, 8)), atol=1e-12)

    def test_aliasing_rejected(self):
        seq = random_seq(102, 5, 2, 2)
        with pytest.raises(ValueError, match="aliasing"):
            dft_of_taps(seq, 4)
        with pytest.raises(ValueError):
            dft_of_taps(seq, 0)

    def test_parseval(self):
        for key in range(5):
            seq = random_seq(200 + key, 3, 2, 2, offset=-1)
            grid = dft_of_taps(seq, 16)
            time_energy = np.sum(np.abs(seq.taps) ** 2)
            freq_energy = np.sum(np.abs(grid) ** 2) / 16
            np.testing.assert_allclose(freq_energy, time_energy, rtol=1e-10)

    def test_linearity(self):
        a = random_seq(301, 3, 2, 2)
        b = random_seq(302, 3, 2, 2)
        combined = TapSequence(0, a.taps + 2.0 * b.taps)
        np.testing.assert_allclose(
            dft_of_taps(combined, 8),
            dft_of_taps(a, 8) + 2.0 * dft_of_taps(b, 8),
            atol=1e-12,
        )


class TestLeadingAxes:
    def test_stacked_sequences_transform_as_each_alone(self):
        a = TapSequence(-2, complex_normal(stream(740), (2, 3, 4, 6, 3)))
        for transform in (dft_of_taps, gram_spectrum):
            stacked = transform(a, 8)
            for index in np.ndindex(2, 3):
                alone = transform(a[index], 8)
                np.testing.assert_allclose(
                    stacked[index], alone, rtol=0.0, atol=1e-13 * np.abs(alone).max()
                )

    def test_stack_and_index_round_trip(self):
        seqs = [random_seq(742 + key, 2, 3, 2, offset=-1) for key in range(3)]
        stacked = TapSequence.stack(seqs)
        assert (stacked.span, stacked.shape, stacked.offset) == (2, (3, 2), -1)
        for i, seq in enumerate(seqs):
            np.testing.assert_array_equal(stacked[i].taps, seq.taps)
            np.testing.assert_array_equal(stacked.tap(0)[i], seq.tap(0))
        with pytest.raises(ValueError, match="one offset"):
            TapSequence.stack([seqs[0], random_seq(745, 2, 3, 2, offset=0)])


class TestCircularConvolve:
    def test_identity_tap(self):
        seq = random_seq(401, 3, 2, 2)
        ident = TapSequence(0, np.eye(2, dtype=complex)[None])
        out = circular_convolve(ident, seq, 8)
        assert out.offset == seq.offset
        np.testing.assert_allclose(out.taps, seq.taps, atol=1e-15)

    def test_offsets_add(self):
        a = np.array([[1.0, 2.0j]])
        b = np.array([[3.0], [0.5 - 0.5j]])
        out = circular_convolve(TapSequence(-1, a[None]), TapSequence(2, b[None]), 4)
        assert out.offset == 1
        assert out.span == 1
        np.testing.assert_allclose(out.taps[0], a @ b, atol=1e-15)

    def test_dimension_mismatch(self):
        a = random_seq(402, 2, 2, 3)
        b = random_seq(403, 2, 2, 2)
        with pytest.raises(ValueError, match="mismatch"):
            circular_convolve(a, b, 8)

    def test_aliasing_guard(self):
        a = random_seq(404, 3, 2, 2)
        b = random_seq(405, 3, 2, 2)
        with pytest.raises(ValueError, match="aliasing"):
            circular_convolve(a, b, 4)

    def test_matches_naive_circular_convolution(self):
        a = random_seq(406, 4, 2, 2, offset=-3)
        b = random_seq(407, 3, 2, 2, offset=1)
        out = circular_convolve(a, b, 8)
        np.testing.assert_allclose(
            embed_mod_k(out, 8), naive_circular(embed_mod_k(a, 8), embed_mod_k(b, 8)), atol=1e-12
        )

    def test_convolution_theorem(self):
        a = random_seq(408, 4, 3, 2, offset=-1)
        b = random_seq(409, 2, 2, 2)
        product = np.matmul(dft_of_taps(a, 8), dft_of_taps(b, 8))
        np.testing.assert_allclose(dft_of_taps(circular_convolve(a, b, 8), 8), product, atol=1e-10)

    def test_equals_tap_pair_double_loop_exactly(self):
        # the batched form adds the products of each output tap in the same order
        a = random_seq(320, 3, 2, 5, offset=-2)
        b = random_seq(321, 4, 5, 3, offset=1)
        expected = np.zeros((6, 2, 3), dtype=complex)
        for i in range(a.span):
            for j in range(b.span):
                expected[i + j] += a.taps[i] @ b.taps[j]
        np.testing.assert_array_equal(circular_convolve(a, b, 8).taps, expected)

    def test_bilinearity(self):
        a = random_seq(410, 2, 2, 2)
        b = random_seq(411, 2, 2, 2)
        c = random_seq(412, 2, 2, 2)
        lhs = circular_convolve(a, TapSequence(0, b.taps + c.taps), 8)
        rhs = circular_convolve(a, b, 8).taps + circular_convolve(a, c, 8).taps
        np.testing.assert_allclose(lhs.taps, rhs, atol=1e-12)


class TestPinvTall:
    """The left pseudoinverse of tall matrices, which ``zf_spectrum`` takes per matrix of a stack."""

    def test_unitary_inverse_is_adjoint(self):
        q, _ = np.linalg.qr(complex_normal(stream(600), (5, 5)))
        np.testing.assert_allclose(zf_spectrum(q[None])[0], q.conj().T, atol=1e-12)

    def test_orthonormal_columns(self):
        q, _ = np.linalg.qr(complex_normal(stream(601), (8, 3)))
        np.testing.assert_allclose(zf_spectrum(q[None])[0], q.conj().T, atol=1e-12)

    def test_left_inverse_residual(self):
        stack = np.stack([complex_normal(stream(610 + key), (8, 4)) for key in range(5)])
        p = zf_spectrum(stack)
        np.testing.assert_allclose(p @ stack, np.broadcast_to(np.eye(4), (5, 4, 4)), atol=1e-10)
        # projector property of m @ p
        np.testing.assert_allclose((stack @ p) @ stack, stack, atol=1e-10)

    def test_rank_deficient_raises(self):
        m = complex_normal(stream(620), (6, 2))
        dup = np.concatenate([m, m[:, :1]], axis=1)
        with pytest.raises(SingularMatrixError, match="singular"):
            zf_spectrum(dup[None])

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            zf_spectrum(np.zeros((1, 4, 2)))

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError, match="tall"):
            zf_spectrum(np.ones((1, 2, 4)))

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(
        k=st.integers(1, 6),
        cols=st.integers(1, 4),
        extra_rows=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_matches_per_matrix_calls(self, k, cols, extra_rows, seed):
        stack = complex_normal(stream(630, seed), (k, cols + extra_rows, cols))
        expected = np.concatenate([zf_spectrum(m[None]) for m in stack])
        np.testing.assert_allclose(zf_spectrum(stack), expected, rtol=0.0, atol=1e-12)

    def test_stack_names_first_rank_deficient_matrix(self):
        stack = complex_normal(stream(640), (5, 4, 2))
        stack[3, :, 1] = stack[3, :, 0]
        stack[4] = 0.0
        with pytest.raises(SingularMatrixError) as info:
            zf_spectrum(stack)
        assert info.value.subcarrier == 3


def planted(key, rows, cols, ratio):
    """Random ``rows x cols`` matrix with singular values from 1 down to ``ratio``;
    ``ratio=0`` duplicates a column instead, so the matrix is exactly rank deficient."""
    base = complex_normal(stream(650, key), (rows, cols))
    if ratio == 0.0:
        base[:, -1] = base[:, 0]
        return base
    u, _ = np.linalg.qr(base)
    v, _ = np.linalg.qr(complex_normal(stream(651, key), (cols, cols)))
    return (u * np.geomspace(1.0, ratio, cols)) @ v.conj().T


def spectrum_seq(stack, offset=0):
    """Tap sequence whose frequency response on ``len(stack)`` subcarriers is
    ``stack`` up to a unit phase per subcarrier, which keeps every rank."""
    return TapSequence(offset, np.fft.ifft(stack, axis=0))


def lag_gram(seq, k):
    return gram_spectrum(seq, k)


def rank_verdict(seq, k, gram):
    """First rank-deficient subcarrier per sequence, -1 for full rank, as a list
    (an int for a sequence without leading axes)."""
    return first_rank_deficient(seq, k, gram).tolist()


def adjoint(mats):
    return np.conj(np.swapaxes(mats, -1, -2))


def hermitian(rng, kind, n):
    """An ``n x n`` Hermitian matrix of a kind whose definiteness no rounding can flip."""
    if kind == "zero":
        return np.zeros((n, n), dtype=complex)
    a = complex_normal(rng, (2 * n, n))
    pd = adjoint(a) @ a + 0.5 * np.eye(n)
    if kind == "pd":
        return pd
    if kind == "singular":
        # one exactly zero row and column
        j = int(rng.integers(n))
        pd[j, :] = 0.0
        pd[:, j] = 0.0
        return pd
    lam = np.linalg.eigvalsh(pd)
    if kind == "indefinite":
        return pd - 0.5 * (lam[0] + lam[-1]) * np.eye(n) if n > 1 else -pd
    return -pd  # negative definite


class TestLdlPivots:
    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(
        n=st.integers(1, LDL_MAX_ORDER),
        lead=st.lists(st.integers(1, 3), max_size=2),
        snr_db=st.lists(st.floats(-20.0, 30.0), min_size=1, max_size=3),
        form=st.sampled_from(["plain", "identity base", "base"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pivot_product_is_the_determinant(self, n, lead, snr_db, form, seed):
        rng = stream(710, seed)
        a = complex_normal(rng, (*lead, 2 * n, n))
        gram = adjoint(a) @ a + 0.5 * np.eye(n)
        b = complex_normal(rng, (*lead, n, n))
        base = b @ adjoint(b) + 0.5 * np.eye(n)
        snrs = 10.0 ** (np.asarray(snr_db) / 10.0)
        if form == "plain":
            mats, pivots = gram[None], ldl_pivots(gram)[None]
        elif form == "identity base":
            mats = np.eye(n) + snrs[(...,) + (None,) * (len(lead) + 2)] * gram
            pivots = ldl_pivots(gram, snrs)
        else:
            mats = base + snrs[(...,) + (None,) * (len(lead) + 2)] * gram
            pivots = ldl_pivots(gram, snrs, base)
        assert pivots.shape == (*mats.shape[:-2], n)
        sign, logabs = np.linalg.slogdet(mats)
        np.testing.assert_allclose(sign, 1.0, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(np.prod(pivots, axis=-1), np.exp(logabs), rtol=1e-12)

    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(
        n=st.integers(1, LDL_MAX_ORDER),
        kinds=st.lists(
            st.sampled_from(["pd", "singular", "indefinite", "negative", "zero"]),
            min_size=1,
            max_size=6,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pivots_positive_exactly_when_cholesky_succeeds(self, n, kinds, seed):
        rng = stream(720, seed)
        # a (2, len(kinds)) stack: every kind twice, on two leading axes
        stack = np.stack([[hermitian(rng, kind, n) for kind in kinds] for _ in range(2)])
        positive = np.all(ldl_pivots(stack) > 0.0, axis=-1)
        for index in np.ndindex(*stack.shape[:-2]):
            try:
                np.linalg.cholesky(stack[index])
                factored = True
            except np.linalg.LinAlgError:
                factored = False
            assert positive[index] == factored, kinds[index[1]]


class TestGramSpectrum:
    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(
        span=st.integers(1, 6),
        offset=st.integers(-6, 6),
        cols=st.integers(1, 4),
        extra_rows=st.integers(0, 6),
        extra_bins=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_gram_of_the_dft(self, span, offset, cols, extra_rows, extra_bins, seed):
        seq = TapSequence(offset, complex_normal(stream(700, seed), (span, cols + extra_rows, cols)))
        k = span + extra_bins
        grid = dft_of_taps(seq, k)
        expected = np.conj(np.swapaxes(grid, 1, 2)) @ grid
        np.testing.assert_allclose(
            gram_spectrum(seq, k), expected, rtol=0.0, atol=1e-12 * np.abs(expected).max()
        )

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        span=st.integers(2, 7),
        offset=st.integers(-6, 6),
        cols=st.integers(1, 3),
        extra_rows=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_short_grid_samples_the_dtft(self, span, offset, cols, extra_rows, seed, data):
        # a grid shorter than the sequence still samples A(f)^H A(f) at f = k/K
        k = data.draw(st.integers(1, span - 1))
        seq = TapSequence(offset, complex_normal(stream(701, seed), (span, cols + extra_rows, cols)))
        for bin_ in range(k):
            response = sum(
                tap * np.exp(-2j * np.pi * delay * bin_ / k)
                for delay, tap in zip(seq.delays, seq.taps)
            )
            expected = response.conj().T @ response
            np.testing.assert_allclose(
                gram_spectrum(seq, k)[bin_],
                expected,
                rtol=0.0,
                atol=1e-12 * np.sum(np.abs(seq.taps) ** 2) * span,
            )

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            gram_spectrum(random_seq(702, 2, 3, 2), 0)


class TestRankCheck:
    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(
        kinds=st.lists(
            st.sampled_from([None, 1e-3, 1e-5, 1e-9, 1e-11, 0.0, "zero"]), min_size=1, max_size=6
        ),
        cols=st.integers(2, 4),
        extra_rows=st.integers(0, 40),
        scale_exp=st.integers(-6, 6),
        offset=st.integers(-3, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    # sigma ratio within rounding of SINGULARITY_RTOL: the verdict must not
    # depend on how many subcarriers the screen doubted
    @example(kinds=[None, 1e-10, None], cols=2, extra_rows=0, scale_exp=0, offset=1, seed=60)
    def test_screen_decides_as_the_svd_alone(self, kinds, cols, extra_rows, scale_exp, offset, seed):
        # the lag-formed Gram screens; the decision is the SVD's on the DFT
        rows = cols + extra_rows
        stack = 10.0**scale_exp * np.stack(
            [
                complex_normal(stream(652, seed, i), (rows, cols))
                if kind is None
                else np.zeros((rows, cols))
                if kind == "zero"
                else planted(seed + i, rows, cols, kind)
                for i, kind in enumerate(kinds)
            ]
        )
        seq = spectrum_seq(stack, offset)
        k = len(kinds)
        assert rank_verdict(seq, k, lag_gram(seq, k)) == rank_verdict(seq, k, None)

    def test_planted_ratios_around_the_threshold(self):
        kinds = [1e-3, 1e-5, 1e-9, 1e-11, 0.0]
        stack = np.stack([planted(660 + i, 6, 3, kind) for i, kind in enumerate(kinds)])
        for part, verdict in ((stack, 3), (stack[:3], -1), (stack[4:], 0)):
            seq = spectrum_seq(part)
            assert rank_verdict(seq, len(part), lag_gram(seq, len(part))) == verdict
        # a stack of sequences names the first deficient subcarrier of each
        seqs = TapSequence.stack([spectrum_seq(stack[:3]), spectrum_seq(stack[2:])])
        assert rank_verdict(seqs, 3, lag_gram(seqs, 3)) == [-1, 1]

    def test_vanishing_response_is_rejected(self):
        # taps [a, -2a, a] cancel exactly at subcarrier 0 and nowhere else; the
        # lag-formed Gram there is roundoff, which for some draws is positive
        # definite and would pass a screen relative to its own largest eigenvalue
        fooled = 0
        for seed in range(200):
            a = complex_normal(stream(700, seed), (6, 3))
            seq = TapSequence(seed % 5 - 2, np.stack([a, -2.0 * a, a]))
            gram = lag_gram(seq, 8)
            lam = np.linalg.eigvalsh(gram)
            fooled += lam[0, 0] > GRAM_SCREEN_RTOL * lam[0, -1]
            assert rank_verdict(seq, 8, gram) == 0
        assert fooled > 0

    def test_well_conditioned_stack_needs_no_svd(self, monkeypatch):
        seq = random_seq(670, 3, 12, 4, offset=-1)

        def no_svd(*args, **kwargs):
            raise AssertionError("the Gram screen should have decided")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert rank_verdict(seq, 16, lag_gram(seq, 16)) == -1
        stacked = TapSequence.stack([seq] + [random_seq(671 + key, 3, 12, 4, offset=-1) for key in range(3)])
        assert rank_verdict(stacked, 16, lag_gram(stacked, 16)) == [-1] * 4

    def test_small_orders_run_without_eigendecompositions(self, monkeypatch):
        # at orders up to LDL_MAX_ORDER every rate, screen and noise check
        # reads pivots: a fig8-like run needs no eigvalsh, Cholesky or solve
        def banned(*args, **kwargs):
            raise AssertionError("the runner called a LAPACK factorization")

        for name in ("eigvalsh", "cholesky", "solve"):
            monkeypatch.setattr(np.linalg, name, banned)
        s = experiments.Scenario(
            name="small_fig8",
            dims=SystemDims(antennas=24, users=4, taps=4, subcarriers=32),
            snr_db=(-10.0, 10.0, 30.0),
            realizations=experiments.CHUNK + 2,
            schemes=experiments.PRESETS["fig8"].scenario.schemes,
            channel_model="sparse",
        )
        assert s.dims.users <= LDL_MAX_ORDER
        result = experiments.run_scenario(s, workers=1)
        assert result.failures == 0
        assert all(np.isfinite(row.value) for row in result.rows)

    def test_one_subcarrier_grid_names_subcarrier_0(self):
        seq = TapSequence(0, planted(680, 5, 3, 0.0)[None])
        for gram in (None, lag_gram(seq, 1)):
            assert rank_verdict(seq, 1, gram) == 0

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError, match="tall"):
            first_rank_deficient(TapSequence(0, np.ones((3, 2, 4))), 4)

    def test_gram_eigvals_ascending_and_match_singular_values(self):
        stack = complex_normal(stream(690), (3, 7, 3))
        lam = gram_eigvals(stack)
        singvals = np.linalg.svd(stack, compute_uv=False)
        np.testing.assert_allclose(lam, singvals[:, ::-1] ** 2, rtol=1e-12)
