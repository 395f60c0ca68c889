"""Tap-sequence transforms against naive oracles and algebraic identities."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybeam.beamforming import zf_spectrum
from hybeam.channel import complex_normal, stream
from hybeam import experiments
from hybeam.channel import SystemDims
from hybeam.metrics import whiten
from hybeam.numerics import (
    GRAM_SCREEN_RTOL,
    LDL_MAX_ORDER,
    SINGULARITY_RTOL,
    SingularMatrixError,
    TapSequence,
    circular_convolve,
    dft_of_taps,
    first_rank_deficient,
    gram_of_lags,
    lag_products,
    Tridiagonal,
    _lower_entries,
    tridiagonalize,
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
        for transform in (dft_of_taps, lambda seq, k: gram_of_lags(lag_products(seq), k)):
            stacked = transform(a, 8)
            for index in np.ndindex(2, 3):
                alone = transform(a[index], 8)
                np.testing.assert_allclose(
                    stacked[index], alone, rtol=0.0, atol=1e-13 * np.abs(alone).max()
                )

    def test_stacked_convolutions_are_each_convolution(self):
        # stacked on both sides, and one sequence against a stack
        a = TapSequence(-2, complex_normal(stream(746), (3, 3, 2, 5)))
        b = TapSequence(1, complex_normal(stream(747), (3, 4, 5, 2)))
        single = b[0]
        both, broadcast = circular_convolve(a, b, 8), circular_convolve(a, single, 8)
        assert both.offset == broadcast.offset == -1
        for i in range(3):
            np.testing.assert_array_equal(both.taps[i], circular_convolve(a[i], b[i], 8).taps)
            np.testing.assert_array_equal(broadcast.taps[i], circular_convolve(a[i], single, 8).taps)

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


def lag_screen(seq, k):
    """The rank screen the runner passes: the reduction of the lag-formed Grams."""
    return tridiagonalize(_lower_entries(gram_of_lags(lag_products(seq), k)))


def rank_verdict(seq, k, screen):
    """First rank-deficient subcarrier per sequence, -1 for full rank, as a list
    (an int for a sequence without leading axes)."""
    return first_rank_deficient(seq, k, screen).tolist()


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


class TestPivotsAndWhitening:
    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(
        n=st.integers(1, LDL_MAX_ORDER),
        lead=st.lists(st.integers(1, 3), max_size=2),
        snr_db=st.lists(st.floats(-20.0, 30.0), min_size=1, max_size=3),
        form=st.sampled_from(["plain", "identity base", "base"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pivot_product_is_the_determinant(self, n, lead, snr_db, form, seed):
        # "plain" reads the pivots of the reduction itself; the SNR forms the
        # pivot products of the reduction of G, or of the matrix whitened
        # against a base B: det(B + snr G) = det(B) det(I + snr T)
        rng = stream(710, seed)
        a = complex_normal(rng, (*lead, 2 * n, n))
        gram = adjoint(a) @ a + 0.5 * np.eye(n)
        b = complex_normal(rng, (*lead, n, n))
        base = b @ adjoint(b) + 0.5 * np.eye(n)
        snrs = 10.0 ** (np.asarray(snr_db) / 10.0)
        if form == "plain":
            pivots = tridiagonalize(_lower_entries(gram))._pivots(1.0, 0.0)
            mats, dets = gram[None], np.prod(list(pivots), axis=0)[None]
        elif form == "identity base":
            mats = np.eye(n) + snrs[(...,) + (None,) * (len(lead) + 2)] * gram
            dets = np.exp2(tridiagonalize(_lower_entries(gram)).log2dets(snrs))
        else:
            mats = base + snrs[(...,) + (None,) * (len(lead) + 2)] * gram
            # a signal S with S S^H = gram, whitened against the base
            root = np.broadcast_to(np.sqrt(0.5) * np.eye(n), (*lead, n, n))
            signal = np.concatenate([adjoint(a), root], axis=-1)
            white, singular = whiten(signal, base)
            assert not np.any(singular)
            dets = np.exp2(tridiagonalize(_lower_entries(white @ adjoint(white))).log2dets(snrs))
            dets = dets * np.exp(np.linalg.slogdet(base)[1])
        assert dets.shape == mats.shape[:-2]
        sign, logabs = np.linalg.slogdet(mats)
        np.testing.assert_allclose(sign, 1.0, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(dets, np.exp(logabs), rtol=1e-12)

    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(
        n=st.integers(1, LDL_MAX_ORDER + 4),
        kinds=st.lists(
            st.sampled_from(["pd", "singular", "indefinite", "negative", "zero"]),
            min_size=1,
            max_size=6,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_whiten_marks_exactly_where_cholesky_fails(self, n, kinds, seed):
        rng = stream(720, seed)
        # a (2, len(kinds)) stack: every kind twice, on two leading axes
        stack = np.stack([[hermitian(rng, kind, n) for kind in kinds] for _ in range(2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, singular = whiten(np.ones((n, 1)), stack)
        assert singular.shape == stack.shape[:-2]
        for index in np.ndindex(*stack.shape[:-2]):
            try:
                np.linalg.cholesky(stack[index])
                factored = True
            except np.linalg.LinAlgError:
                factored = False
            assert singular[index] != factored, kinds[index[1]]


def log2det(mats):
    sign, logabs = np.linalg.slogdet(mats)
    np.testing.assert_allclose(sign, 1.0, rtol=0.0, atol=1e-12)
    return logabs / np.log(2.0)


class TestTridiagonal:
    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(
        n=st.integers(1, LDL_MAX_ORDER),
        extra_rows=st.integers(0, 3),
        lead=st.lists(st.integers(1, 3), max_size=2),
        snr_db=st.lists(st.floats(-20.0, 30.0), min_size=1, max_size=7),
        colored=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_log2dets_match_slogdet(self, n, extra_rows, lead, snr_db, colored, seed):
        # white: det(I + snr G); colored: det(C + snr S S^H) / det(C) through
        # the reduction of the whitened signal's Gram
        rng = stream(730, seed)
        snrs = 10.0 ** (np.asarray(snr_db) / 10.0)
        grid = snrs[(...,) + (None,) * (len(lead) + 2)]
        if colored:
            s = complex_normal(rng, (*lead, n, n + extra_rows))
            b = complex_normal(rng, (*lead, n, n))
            cov = b @ adjoint(b) + 0.5 * np.eye(n)
            white, singular = whiten(s, cov)
            assert not np.any(singular)
            expected = log2det(cov + grid * (s @ adjoint(s))) - log2det(cov)
            white = adjoint(white) @ white
        else:
            a = complex_normal(rng, (*lead, n + extra_rows, n))
            white = adjoint(a) @ a
            expected = log2det(np.eye(n) + grid * white)
        got = tridiagonalize(_lower_entries(white)).log2dets(snrs)
        assert got.shape == (len(snrs), *lead)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(
        n=st.integers(1, LDL_MAX_ORDER),
        lead=st.lists(st.integers(1, 3), max_size=2),
        snr_db=st.lists(st.floats(-20.0, 30.0), min_size=1, max_size=7),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_log2dets_of_square_match_slogdet(self, n, lead, snr_db, seed):
        # det(I + snr G^2) from the reduction of G itself, G Hermitian and
        # indefinite: the imaginary-scale pivots never vanish
        rng = stream(735, seed)
        snrs = 10.0 ** (np.asarray(snr_db) / 10.0)
        b = complex_normal(rng, (*lead, n, n))
        g = b + adjoint(b)
        grid = snrs[(...,) + (None,) * (len(lead) + 2)]
        expected = log2det(np.eye(n) + grid * (g @ g))
        got = tridiagonalize(_lower_entries(g)).log2dets_of_square(snrs)
        assert got.shape == (len(snrs), *lead)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
        # a diagonal of eigenvalues gives sum log2(1 + snr * lambda^2)
        eigs = np.moveaxis(np.linalg.eigvalsh(g), -1, 0)
        expected = np.sum(np.log2(1.0 + snrs[(...,) + (None,) * (len(lead) + 1)] * eigs**2), axis=1)
        np.testing.assert_allclose(
            Tridiagonal(eigs, np.zeros_like(eigs[1:])).log2dets_of_square(snrs),
            expected,
            rtol=1e-12,
            atol=0.0,
        )

    def test_zero_sub_column_is_not_reflected(self):
        # column 0 has no entries below the diagonal: T keeps it as it is
        rng = stream(731)
        a = complex_normal(rng, (6, 3))
        gram = np.zeros((2, 4, 4), dtype=complex)
        gram[:, 0, 0] = 2.0
        gram[:, 1:, 1:] = adjoint(a) @ a
        reduced = tridiagonalize(_lower_entries(gram))
        assert np.all(reduced.diag[0] == 2.0) and np.all(reduced.off2[0] == 0.0)
        np.testing.assert_array_equal(reduced.diag[:, 0], reduced.diag[:, 1])
        snrs = [0.1, 10.0]
        expected = log2det(np.eye(4) + np.asarray(snrs)[:, None, None, None] * gram)
        np.testing.assert_allclose(reduced.log2dets(snrs), expected, rtol=1e-12)

    def test_reducible_tridiagonal(self):
        # a zero off-diagonal splits T: the determinant is the blocks' product
        diag = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        off2 = np.array([0.5, 0.0, 2.0, 0.25])
        dense = np.diag(diag) + np.diag(np.sqrt(off2), 1) + np.diag(np.sqrt(off2), -1)
        snrs = [0.01, 1.0, 100.0]
        got = Tridiagonal(diag, off2).log2dets(snrs)
        expected = log2det(np.eye(5) + np.asarray(snrs)[:, None, None] * dense)
        np.testing.assert_allclose(got, expected, rtol=1e-12)
        # and a Hermitian matrix made of two blocks reduces to a split T
        rng = stream(732)
        a, b = complex_normal(rng, (4, 2)), complex_normal(rng, (5, 3))
        blocks = np.zeros((5, 5), dtype=complex)
        blocks[:2, :2] = adjoint(a) @ a
        blocks[2:, 2:] = adjoint(b) @ b
        reduced = tridiagonalize(_lower_entries(blocks))
        assert reduced.off2[1] == 0.0
        expected = log2det(np.eye(5) + np.asarray(snrs)[:, None, None] * blocks)
        np.testing.assert_allclose(reduced.log2dets(snrs), expected, rtol=1e-12)

    def test_overflowing_product_falls_back_to_the_sum_of_logs(self):
        # three pivots of 1e200 overflow their product; the other matrix's
        # result is the same bits as alone
        diag = np.array([[1e200, 1.0], [1e200, 2.0], [1e200, 3.0]])
        reduced = Tridiagonal(diag, np.zeros((2, 2)))
        got = reduced.log2dets([1.0, 10.0])
        expected = np.sum(np.log2(1.0 + np.array([1.0, 10.0])[:, None, None] * diag), axis=1)
        np.testing.assert_allclose(got, expected, rtol=1e-15)
        np.testing.assert_array_equal(got[:, 1], reduced[1].log2dets([1.0, 10.0]))

    def test_streamed_product_is_the_product_of_the_pivot_list(self):
        # log2dets multiplies the pivots as it makes them: the same bits as
        # the product of the whole list, and where that product overflows (a
        # fourth matrix, of pivots 1e200), the sum of the list's log2
        a = complex_normal(stream(735), (3, 8, 4))
        reduced = tridiagonalize(_lower_entries(adjoint(a) @ a))
        reduced = Tridiagonal(
            np.concatenate([reduced.diag, np.full((4, 1), 1e200)], axis=1),
            np.concatenate([reduced.off2, np.zeros((3, 1))], axis=1),
        )
        snrs = np.array([0.1, 1.0, 1e3])
        pivots = list(reduced._pivots(snrs[:, None], 1.0))
        with np.errstate(over="ignore"):
            product = pivots[0]
            for pivot in pivots[1:]:
                product = product * pivot
        expected = np.log2(product)
        spoiled = ~np.isfinite(expected)
        assert spoiled[:, 3].all() and not spoiled[:, :3].any()
        expected[spoiled] = sum(np.log2(pivot[spoiled]) for pivot in pivots)
        np.testing.assert_array_equal(reduced.log2dets(snrs), expected)

    @pytest.mark.parametrize("n", [2, 4, LDL_MAX_ORDER])
    def test_rank_deficient_gram(self, n):
        # a repeated column: det(I + snr G) is still read exactly, and the
        # shifted reduction has a pivot that is not positive, as the shifted
        # Gram has a negative eigenvalue
        a = complex_normal(stream(733, n), (3, 2 * n, n))
        a[..., -1] = a[..., 0]
        gram = adjoint(a) @ a
        snrs = [0.1, 1.0, 1e3]
        expected = log2det(np.eye(n) + np.asarray(snrs)[:, None, None, None] * gram)
        reduced = tridiagonalize(_lower_entries(gram))
        np.testing.assert_allclose(reduced.log2dets(snrs), expected, rtol=1e-12)
        shift = 1e-8 * np.trace(gram, axis1=-2, axis2=-1).real
        smallest = np.linalg.eigvalsh(gram - shift[:, None, None] * np.eye(n))[..., 0]
        assert not np.any(reduced.positive_definite(-shift))
        assert np.all(smallest < 0.0)
        assert np.all(reduced.positive_definite(shift))

    @pytest.mark.parametrize("n", [1, 3, LDL_MAX_ORDER, LDL_MAX_ORDER + 1])
    def test_singular_noise_spoils_only_its_own_matrix(self, n):
        # in a stack of four grids of two, one C has a zero row and column
        # and one is negative definite: whiten's mask says so, and the other
        # grids whiten and reduce to the bits they have alone, without a warning
        rng = stream(734, n)
        signal = complex_normal(rng, (4, 2, n, n + 1))
        kinds = ("pd", "singular", "negative", "pd")
        cov = np.stack([[hermitian(rng, kind, n), hermitian(rng, "pd", n)] for kind in kinds])
        snrs = [1.0, 10.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            white, singular = whiten(signal, cov)
            alone = [whiten(signal[i], cov[i]) for i in range(4)]
            rates = tridiagonalize(_lower_entries(adjoint(white) @ white)).log2dets(snrs)
            alone_rates = [
                tridiagonalize(_lower_entries(adjoint(w) @ w)).log2dets(snrs) for w, _ in alone
            ]
        assert singular.tolist() == [[False, False], [True, False], [True, False], [False, False]]
        assert np.all(white[1:3, 0] == 0.0)
        for i in (0, 3):
            np.testing.assert_array_equal(white[i], alone[i][0])
            np.testing.assert_array_equal(rates[:, i], alone_rates[i])
            assert np.all(np.isfinite(rates[:, i]))


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
        gram = gram_of_lags(lag_products(seq), k)
        np.testing.assert_allclose(gram, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())

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
                gram_of_lags(lag_products(seq), k)[bin_],
                expected,
                rtol=0.0,
                atol=1e-12 * np.sum(np.abs(seq.taps) ** 2) * span,
            )

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            gram_of_lags(lag_products(random_seq(702, 2, 3, 2)), 0)


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
        # the reduced lag-formed Gram screens; the decision is the SVD's on the DFT
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
        alone = rank_verdict(seq, k, None)
        assert rank_verdict(seq, k, lag_screen(seq, k)) == alone

    def test_planted_ratios_around_the_threshold(self):
        kinds = [1e-3, 1e-5, 1e-9, 1e-11, 0.0]
        stack = np.stack([planted(660 + i, 6, 3, kind) for i, kind in enumerate(kinds)])
        for part, verdict in ((stack, 3), (stack[:3], -1), (stack[4:], 0)):
            seq = spectrum_seq(part)
            assert rank_verdict(seq, len(part), lag_screen(seq, len(part))) == verdict
        # a stack of sequences names the first deficient subcarrier of each
        seqs = TapSequence.stack([spectrum_seq(stack[:3]), spectrum_seq(stack[2:])])
        assert rank_verdict(seqs, 3, lag_screen(seqs, 3)) == [-1, 1]

    def test_vanishing_response_is_rejected(self):
        # taps [a, -2a, a] cancel exactly at subcarrier 0 and nowhere else; the
        # lag-formed Gram there is roundoff, which for some draws is positive
        # definite and would pass a screen relative to its own largest eigenvalue
        fooled = 0
        for seed in range(200):
            a = complex_normal(stream(700, seed), (6, 3))
            seq = TapSequence(seed % 5 - 2, np.stack([a, -2.0 * a, a]))
            gram = gram_of_lags(lag_products(seq), 8)
            lam = np.linalg.eigvalsh(gram)
            fooled += lam[0, 0] > GRAM_SCREEN_RTOL * lam[0, -1]
            assert rank_verdict(seq, 8, tridiagonalize(_lower_entries(gram))) == 0
        assert fooled > 0

    def test_response_vanished_to_roundoff_is_rejected(self):
        # subcarrier 2 is the others' response scaled by 1e-15: well conditioned
        # against its own largest singular value, roundoff against the scale
        # of the sequence.  zf_spectrum has no taps and keeps the per-matrix test
        stack = np.stack([planted(695 + i, 6, 3, 0.5) for i in range(4)])
        stack[2] *= 1e-15
        singvals = np.linalg.svd(stack[2], compute_uv=False)
        assert singvals[-1] > SINGULARITY_RTOL * singvals[0]
        seq = spectrum_seq(stack, offset=-1)
        for screen in (None, lag_screen(seq, 4)):
            assert rank_verdict(seq, 4, screen) == 2
        assert np.all(np.isfinite(zf_spectrum(stack)))

    def test_well_conditioned_stack_needs_no_svd(self, monkeypatch):
        seq = random_seq(670, 3, 12, 4, offset=-1)

        def no_svd(*args, **kwargs):
            raise AssertionError("the Gram screen should have decided")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert rank_verdict(seq, 16, lag_screen(seq, 16)) == -1
        stacked = TapSequence.stack([seq] + [random_seq(671 + key, 3, 12, 4, offset=-1) for key in range(3)])
        assert rank_verdict(stacked, 16, lag_screen(stacked, 16)) == [-1] * 4

    def test_small_orders_run_without_eigendecompositions(self, monkeypatch):
        # at orders up to LDL_MAX_ORDER every rate and screen reads the
        # tridiagonal reduction, and whiten calls Cholesky's gufunc itself: a
        # fig8-like run needs no eigvalsh, np.linalg.cholesky or solve
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
        for screen in (None, lag_screen(seq, 1)):
            assert rank_verdict(seq, 1, screen) == 0

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError, match="tall"):
            first_rank_deficient(TapSequence(0, np.ones((3, 2, 4))), 4)
