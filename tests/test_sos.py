"""Tests for the SOS normal equations, solvers and Hermitian free variables."""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from semiblind import model, sos
from semiblind.errors import SingularSystemError
from helpers import (
    brute_force_system,
    dense_gram,
    draw_block,
    gram_only,
    hermitian_blocks,
    record_chunk_sizes,
    seeded_rng,
    sos_trials,
    sylvester,
)


class TestCrossGrams:
    @given(
        users=st.integers(1, 4),
        taps=st.integers(1, 5),
        gain=st.integers(2, 16),
        symbols=st.integers(1, 7),
        chunk=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(users=2, taps=5, gain=6, symbols=7, chunk=3, seed=0)  # P = N-1, last chunk of 1
    @example(users=4, taps=3, gain=16, symbols=7, chunk=2, seed=1)
    @example(users=1, taps=1, gain=2, symbols=1, chunk=1, seed=2)
    @example(users=1, taps=3, gain=4, symbols=5, chunk=5, seed=3)
    def test_property_matches_window_products(self, users, taps, gain, symbols, chunk, seed):
        # oracle: W_0 W_b^T of the float64 Sylvester windows, symbol by symbol,
        # and the chips each window gains and drops
        gain = max(gain, taps + 1)
        chips = seeded_rng(seed).choice(np.array([-1, 1], dtype=np.int8), (users, symbols, gain))
        windows = [chips[:, :, taps - 1 - a : gain - a].astype(float) for a in range(taps)]
        lo = 0
        for block, row, edges in sos._cross_grams(chips, taps, chunk):
            assert block == slice(lo, min(lo + chunk, symbols))
            assert row.shape == (taps, block.stop - lo, users, users)
            assert row.dtype == edges.dtype == np.float32
            for b, got in enumerate(row):
                ref = np.einsum("imn,jmn->mij", windows[0][:, block], windows[b][:, block])
                assert np.array_equal(got, ref)
            assert edges.shape == (block.stop - lo, taps - 1, 2, users)
            for a in range(1, taps):
                gained, dropped = chips[:, block, taps - 1 - a], chips[:, block, gain - a]
                assert np.array_equal(edges[:, a - 1, 0], gained.T)
                assert np.array_equal(edges[:, a - 1, 1], dropped.T)
            lo = block.stop
        assert lo == symbols

    @given(
        users=st.integers(1, 4),
        taps=st.integers(1, 4),
        gain=st.integers(2, 12),
        symbols=st.integers(1, 7),
        chunk=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(users=2, taps=4, gain=5, symbols=7, chunk=3, seed=0)  # P = N-1, last chunk of 1
    # strides on which numpy 2.4's np.negative(x, out=y) writes wrong values
    @example(users=1, taps=3, gain=4, symbols=5, chunk=5, seed=3)
    def test_property_gram_matches_window_products(self, users, taps, gain, symbols, chunk, seed):
        # oracle: T summed in int64 from the cross-Grams B[a, b] = W_a W_b^T of
        # every symbol's windows, so every upper and lower cross-Gram that
        # _gram's rank-2 recursion builds, in chunks of ``chunk`` symbols, is
        # checked exactly; both round (x +- y) / (2 Mi N^2) once
        gain = max(gain, taps + 1)
        chips = seeded_rng(seed).choice(np.array([-1, 1], dtype=np.int8), (users, symbols, gain))
        windows = np.stack([chips[:, :, taps - 1 - a : gain - a] for a in range(taps)])
        cross = np.einsum("aimn,bjmn->mijab", windows, windows, dtype=np.int64)
        sums = np.einsum("mijab,mijcd->iacjbd", cross, cross).reshape((users * taps * taps,) * 2)
        with mock.patch.object(sos, "_GRAM_CHUNK_ELEMS", chunk * taps * taps * users * users):
            blocks = sos._gram(chips, taps)
        refs = hermitian_blocks(sums.astype(float), users, taps)
        for block, ref in zip(blocks, refs, strict=True):
            assert np.array_equal(block, ref / (symbols * gain * gain))


class TestBuildNormalEquations:
    def test_scalar_case_unit_gram(self):
        # K=1, P=1: T = (1/M) sum ||s||^4 = 1 (exact for dyadic 1/N)
        p = model.SystemParams(users=1, gain=16, taps=1, symbols=8, noise_var=0.1)
        gains = model.sample_channel(p, seeded_rng(40))
        chips, _, windows = draw_block(p, gains, seeded_rng(41))
        _, (real, imag) = sos.build_normal_equations(windows, chips, p)
        # at P = 1 the real block is T and the imaginary block is empty
        assert real.shape == (1, 1)
        assert imag.shape == (0, 0)
        assert real[0, 0] == 1.0

    def test_kron_block_identity(self):
        p = model.SystemParams(users=2, gain=8, taps=2, symbols=3, noise_var=0.2)
        gains = model.sample_channel(p, seeded_rng(42))
        chips, _, windows = draw_block(p, gains, seeded_rng(43))
        c0 = sylvester(chips[0, 0] / np.sqrt(p.gain), 2)
        c1 = sylvester(chips[1, 0] / np.sqrt(p.gain), 2)
        q0, q1 = np.kron(c0, c0), np.kron(c1, c1)
        assert np.allclose(q0.T @ q1, np.kron(c0.T @ c1, c0.T @ c1), atol=1e-14)

    @pytest.mark.parametrize("users,gain,taps", [(1, 6, 2), (2, 8, 2), (3, 10, 3), (2, 9, 1)])
    def test_matches_brute_force(self, users, gain, taps):
        p = model.SystemParams(users=users, gain=gain, taps=taps, symbols=5, noise_var=0.3)
        gains = model.sample_channel(p, seeded_rng(44, users, gain))
        chips, _, windows = draw_block(p, gains, seeded_rng(45, users, gain))
        rhs, blocks = sos.build_normal_equations(windows, chips, p)
        gram = dense_gram(blocks)
        gram_ref, rhs_ref = brute_force_system(p, chips, windows, p.noise_var)
        assert np.max(np.abs(gram - gram_ref)) <= 1e-12 * np.max(np.abs(gram_ref))
        assert np.max(np.abs(rhs - rhs_ref)) <= 1e-12 * np.max(np.abs(rhs_ref))

    def test_gram_concentrates(self):
        # K=4, N=32, P=2, M=200 -> max |T - I| < 0.15
        p = model.SystemParams(users=4, gain=32, taps=2, symbols=200)
        gram = gram_only(p, seeded_rng(46))
        assert np.max(np.abs(gram - np.eye(16))) < 0.15

    def test_info_range_subset(self):
        # the moments of M_t = 4 of 10 symbols are those of the last 6 alone
        p = model.SystemParams(users=2, gain=16, taps=2, symbols=10, noise_var=0.1)
        gains = model.sample_channel(p, seeded_rng(47))
        chips, _, windows = draw_block(p, gains, seeded_rng(48))
        sub_rhs, sub_gram = sos.build_normal_equations(windows, chips, replace(p, train_symbols=4))
        p_t = replace(p, symbols=6)
        full_rhs, full_gram = sos.build_normal_equations(windows[4:], chips[:, 4:, :], p_t)
        for sub, full in zip(sub_gram, full_gram, strict=True):
            assert np.array_equal(sub, full)
        assert np.array_equal(sub_rhs, full_rhs)

    @pytest.mark.parametrize("users,gain,taps,symbols", [(3, 16, 3, 6), (2, 64, 3, 3)])
    def test_gram_exact_for_dyadic_gain(self, users, gain, taps, symbols):
        # 1/sqrt(N) is a power of two, so the oracle's float64 sums, and
        # their halved sums and differences, are exact too, and both round
        # the same rational once on the division by M
        p = model.SystemParams(users=users, gain=gain, taps=taps, symbols=symbols)
        gains = model.sample_channel(p, seeded_rng(74, gain))
        chips, _, windows = draw_block(p, gains, seeded_rng(75, gain))
        _, blocks = sos.build_normal_equations(windows, chips, p)
        sums, _ = brute_force_system(p, chips, windows, p.noise_var, mean=False)
        for block, ref in zip(blocks, hermitian_blocks(sums, users, taps), strict=True):
            assert np.array_equal(block, ref / symbols)

    @pytest.mark.parametrize(
        "users,gain,taps,symbols", [(3, 16, 3, 4), (2, 64, 3, 8), (2, 16, 1, 4)]
    )
    def test_blocks_equal_reduced_oracle_for_dyadic_data(self, users, gain, taps, symbols):
        # with M_i N^2 a power of two the oracle's T is exact, so the map
        # from T to the blocks and dense_gram's map back are exact too
        p = model.SystemParams(users=users, gain=gain, taps=taps, symbols=symbols)
        gains = model.sample_channel(p, seeded_rng(83, gain))
        chips, _, windows = draw_block(p, gains, seeded_rng(84, gain))
        _, blocks = sos.build_normal_equations(windows, chips, p)
        gram_ref, _ = brute_force_system(p, chips, windows, p.noise_var)
        for block, ref in zip(blocks, hermitian_blocks(gram_ref, users, taps), strict=True):
            assert np.array_equal(block, ref)
        assert np.array_equal(dense_gram(blocks), gram_ref)

    @pytest.mark.parametrize("symbols", [4364, 4365])
    def test_float32_orbit_sums_equal_float64_reference(self, symbols):
        # N = 64, P = 3: M_i (N-P+1)^2 is 16 775 216 <= 2^24 at 4364 symbols,
        # whose orbit sums are kept in float32, and passes 2^24 at 4365, whose
        # sums stay float64; the (a, a, a, a) diagonal sums reach that bound.
        # The reference sums the same integers in float64 from the windows
        p = model.SystemParams(users=2, gain=64, taps=3, symbols=symbols, train_symbols=0)
        chips = model.sample_codes(p, seeded_rng(86))
        _, blocks = sos.build_normal_equations(
            np.zeros((symbols, p.window), dtype=complex), chips, p
        )
        w = np.stack([chips[:, :, 2 - a : 64 - a] for a in range(3)]).astype(float)
        cross = np.einsum("aimn,bjmn->mabij", w, w)  # B_ij[a, b] per symbol
        sums = np.einsum("mabij,mcdij->iacjbd", cross, cross)  # G[a, b, c, d][i, j]
        assert sums.max() == symbols * p.window**2
        dense = sums.reshape(2 * 9, 2 * 9)  # row (i, a P + c), column (j, b P + d)
        for block, ref in zip(blocks, hermitian_blocks(dense, 2, 3), strict=True):
            assert np.array_equal(block, ref / (symbols * 64 * 64))

    @pytest.mark.parametrize("taps", [1, 2, 3, 4])
    def test_block_orders(self, taps):
        # the real block spans the diagonal and upper real parts, the
        # imaginary block the upper imaginary parts, per user
        p = model.SystemParams(users=3, gain=9, taps=taps, symbols=2)
        _, (real, imag) = sos.build_normal_equations(
            np.zeros((2, p.window), dtype=complex), model.sample_codes(p, seeded_rng(85, taps)), p
        )
        assert real.shape == (3 * taps * (taps + 1) // 2,) * 2
        assert imag.shape == (3 * taps * (taps - 1) // 2,) * 2
        for block in (real, imag):
            assert np.array_equal(block, block.T)

    def test_chunked_gram_bit_identical(self, monkeypatch):
        p = model.SystemParams(users=4, gain=12, taps=3, symbols=20, noise_var=0.2)
        gains = model.sample_channel(p, seeded_rng(76))
        chips, _, windows = draw_block(p, gains, seeded_rng(77))
        _, whole = sos.build_normal_equations(windows, chips, p)
        # room for 3 symbols of the 9 (4 x 4) cross-Grams: 7 chunks
        monkeypatch.setattr(sos, "_GRAM_CHUNK_ELEMS", 3 * 9 * 16)
        sizes = record_chunk_sizes(monkeypatch, sos)
        _, chunked = sos.build_normal_equations(windows, chips, p)
        assert sizes == [3] * 6 + [2]
        for part, ref in zip(chunked, whole, strict=True):
            assert np.array_equal(part, ref)

    def test_chunked_synthesis_and_correlator_bit_identical(self, monkeypatch):
        # 3 symbols per chunk: 6 chunks and a 2-symbol tail for the 20 windows,
        # 5 chunks and a 2-symbol tail for the correlator's 17 symbols
        p = model.SystemParams(users=4, gain=12, taps=3, symbols=20, noise_var=0.2)
        gains = model.sample_channel(p, seeded_rng(86))
        chips = model.sample_codes(p, seeded_rng(87))
        symbols = model.sample_symbols(p, seeded_rng(88))
        results = []
        for chunk_elems in (p.users * p.symbols * p.gain, 3 * p.users * p.gain):
            monkeypatch.setattr(model, "_CHUNK_ELEMS", chunk_elems)
            windows = model.synthesize_received(p, gains, chips, symbols, seeded_rng(89))
            # each chunk's outputs are overwritten by the next: copy them out
            outputs = [a.copy() for _, a in sos._correlate(chips[:, 3:], windows[3:], p.taps)]
            results.append((windows, np.concatenate(outputs)))
        for chunked, whole in zip(results[1], results[0], strict=True):
            assert np.array_equal(chunked, whole)

    @pytest.mark.parametrize("case", ["one_chip", "unit_chips", "int8_min", "two"])
    def test_gram_rejects_non_sign_chips(self, case):
        p = model.SystemParams(users=2, gain=16, taps=2, symbols=5, noise_var=0.1)
        gains = model.sample_channel(p, seeded_rng(78))
        bad, _, windows = draw_block(p, gains, seeded_rng(79))
        if case == "one_chip":
            bad[1, 2, 3] = 0
        elif case == "int8_min":
            bad[1, 2, 3] = -128  # |-128| wraps to -128 in int8
        elif case == "two":
            bad[0, 4, 15] = 2
        else:
            bad = bad / np.sqrt(p.gain)  # the +-1/sqrt(N) chips, not their signs
        # the right-hand side sums the signs exactly in int8 too
        for include_gram in (True, False):
            with pytest.raises(ValueError, match="exactly"):
                sos.build_normal_equations(windows, bad, p, include_gram)

    def test_rhs_peak_memory(self):
        # the right-hand side of one trial at K = 64, M = 400, N = 64, P = 3
        # checks the chips and correlates them a symbol chunk at a time, and
        # adds each chunk's real product of the outputs into the moments, so
        # it peaks below 1.8 MB (0.67 MB): its chunk buffers alone
        p = model.SystemParams(users=64, gain=64, taps=3, symbols=400, train_symbols=80)
        gains = model.sample_channel(p, seeded_rng(90))
        chips, _, windows = draw_block(p, gains, seeded_rng(91))
        tracemalloc.start()
        try:
            sos.build_normal_equations(windows, chips, replace(p, noise_var=0.5), include_gram=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.8e6

    def test_gram_peak_memory(self):
        # with the Gram, the same trial block holds one chunk of cross-Grams,
        # one transposed lower cross-Gram and the 27 orbit sums, and assembles
        # the two Hermitian blocks after the chunks are freed: below 3.0 MB
        p = model.SystemParams(users=64, gain=64, taps=3, symbols=400, train_symbols=80)
        gains = model.sample_channel(p, seeded_rng(90))
        chips, _, windows = draw_block(p, gains, seeded_rng(91))
        tracemalloc.start()
        try:
            sos.build_normal_equations(windows, chips, replace(p, noise_var=0.5), include_gram=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.0e6

    def test_rhs_is_exactly_hermitian(self):
        # so hermitianize leaves the identity-mode estimate d = y as it is
        p = model.SystemParams(users=8, gain=32, taps=3, symbols=60, train_symbols=12, noise_var=0.5)
        gains = model.sample_channel(p, seeded_rng(92))
        chips, _, windows = draw_block(p, gains, seeded_rng(93))
        rhs, _ = sos.build_normal_equations(windows, chips, p, include_gram=False)
        assert np.array_equal(sos.hermitianize(rhs), rhs)

    def test_gram_rejects_windows_beyond_exact_float32(self):
        # N-P+1 = 4097: a product of two cross-Gram entries can reach 4097^2 > 2^24
        p = model.SystemParams(users=1, gain=4098, taps=2, symbols=1)
        chips = model.sample_codes(p, seeded_rng(82))
        windows = np.zeros((1, p.window), dtype=complex)
        with pytest.raises(ValueError, match="4096"):
            sos.build_normal_equations(windows, chips, p)

    @pytest.mark.parametrize("case", ["symbol_count", "window_too_long"])
    def test_rejects_mismatched_windows(self, case):
        p = model.SystemParams(users=2, gain=16, taps=2, symbols=6, noise_var=0.1)
        gains = model.sample_channel(p, seeded_rng(80))
        chips, _, windows = draw_block(p, gains, seeded_rng(81))
        if case == "symbol_count":
            windows = windows[:5]
        else:
            # N + 1 chips per window would mean a channel order of 0
            windows = np.ones((p.symbols, p.gain + 1), dtype=complex)
        with pytest.raises(ValueError, match="window"):
            sos.build_normal_equations(windows, chips, p)

    @given(data=st.data())
    def test_property_matches_brute_force_on_subsets(self, data):
        # random shapes, a random M_t and the block cut at a random stop
        users = data.draw(st.integers(1, 4), label="K")
        taps = data.draw(st.integers(1, 4), label="P")
        gain = data.draw(st.integers(taps + 1, 12), label="N")
        symbols = data.draw(st.integers(1, 6), label="M")
        start = data.draw(st.integers(0, symbols - 1), label="M_t")
        stop = data.draw(st.integers(start + 1, symbols), label="stop")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        p = model.SystemParams(users=users, gain=gain, taps=taps, symbols=symbols, noise_var=0.3)
        rng = seeded_rng(seed)
        chips = model.sample_codes(p, rng)
        shape = (symbols, p.window)
        windows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        rhs, blocks = sos.build_normal_equations(
            windows[:stop], chips[:, :stop], replace(p, symbols=stop, train_symbols=start)
        )
        gram = dense_gram(blocks)
        p_sub = replace(p, symbols=stop - start)
        gram_ref, rhs_ref = brute_force_system(
            p_sub, chips[:, start:stop], windows[start:stop], p.noise_var
        )
        assert np.max(np.abs(gram - gram_ref)) <= 1e-12 * np.max(np.abs(gram_ref))
        assert np.max(np.abs(rhs - rhs_ref)) <= 1e-12 * np.max(np.abs(rhs_ref))

    def test_empty_range_rejected(self):
        # M_t = M leaves no information symbol
        p = model.SystemParams(users=2, gain=16, taps=2, symbols=10, train_symbols=10)
        gains = model.sample_channel(p, seeded_rng(49))
        chips, _, windows = draw_block(p, gains, seeded_rng(50))
        with pytest.raises(ValueError, match="at least one information symbol"):
            sos.build_normal_equations(windows, chips, p)


class TestEstimateSos:
    def test_consistency_noiseless_single_user(self):
        # sigma=0, K=1, M=5000, N=64, P=2: ||d_hat - d||/||d|| < 0.05
        p = model.SystemParams(users=1, gain=64, taps=2, symbols=5000, noise_var=0.0)
        gains = model.sample_channel(p, seeded_rng(51))
        chips, _, windows = draw_block(p, gains, seeded_rng(52))
        rhs, gram = sos.build_normal_equations(windows, chips, p, include_gram=False)
        assert gram is None
        est = sos.estimate_sos(rhs, gram)
        d = model.vec_outer(gains[0])
        rel = np.linalg.norm(est[0] - d) / np.linalg.norm(d)
        assert rel < 0.05

    def test_identity_and_solve_agree_when_gram_trivial(self):
        p = model.SystemParams(users=1, gain=16, taps=1, symbols=6, noise_var=0.2)
        gains = model.sample_channel(p, seeded_rng(53))
        chips, _, windows = draw_block(p, gains, seeded_rng(54))
        rhs, gram = sos.build_normal_equations(windows, chips, p)
        ident = sos.estimate_sos(rhs)
        solve = sos.estimate_sos(rhs, gram)
        assert np.array_equal(ident, solve)

    def test_low_load_solve_succeeds(self):
        # K=8, N=64, P=3: beta = 0.125 < 1/P, direct solve with finite cond
        p = model.SystemParams(users=8, gain=64, taps=3, symbols=200, noise_var=0.5)
        gains = model.sample_channel(p, seeded_rng(55))
        chips, _, windows = draw_block(p, gains, seeded_rng(56))
        rhs, gram = sos.build_normal_equations(windows, chips, p)
        est = sos.estimate_sos(rhs, gram)
        assert est.shape == (8, 9)
        assert np.all(np.isfinite(est))
        assert np.linalg.cond(dense_gram(gram)) < 100

    @pytest.mark.parametrize(
        "users,taps,info",
        [
            (1, 1, range(12)),
            (4, 1, range(12)),
            (1, 2, range(12)),
            (3, 2, range(12)),
            (1, 3, range(12)),
            (3, 3, range(3, 12)),
            (1, 4, range(12)),
            (2, 4, range(12)),
        ],
    )
    def test_block_solve_matches_dense_oracle_solve(self, users, taps, info):
        p = model.SystemParams(users=users, gain=16, taps=taps, symbols=12, noise_var=0.3)
        gains = model.sample_channel(p, seeded_rng(86, users, taps))
        chips, _, windows = draw_block(p, gains, seeded_rng(87, users, taps))
        rhs, blocks = sos.build_normal_equations(windows, chips, replace(p, train_symbols=info.start))
        p_sub = replace(p, symbols=len(info))
        gram_ref, rhs_ref = brute_force_system(p_sub, chips[:, info], windows[info], p.noise_var)
        ref = np.linalg.solve(gram_ref, rhs_ref.reshape(-1)).reshape(rhs.shape)
        est = sos.estimate_sos(rhs, blocks)
        assert np.max(np.abs(est - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_solve_is_exactly_hermitian(self):
        p = model.SystemParams(users=8, gain=32, taps=3, symbols=60, noise_var=0.5)
        gains = model.sample_channel(p, seeded_rng(57))
        chips, _, windows = draw_block(p, gains, seeded_rng(58))
        rhs, blocks = sos.build_normal_equations(windows, chips, replace(p, train_symbols=12))
        est = sos.estimate_sos(rhs, blocks)
        assert np.array_equal(sos.hermitianize(est), est)

    def test_empty_imaginary_block_is_skipped(self, monkeypatch):
        # P = 1: only the K x K real block is factored, never the 0 x 0 one
        p = model.SystemParams(users=3, gain=16, taps=1, symbols=6, noise_var=0.2)
        gains = model.sample_channel(p, seeded_rng(59))
        chips, _, windows = draw_block(p, gains, seeded_rng(60))
        rhs, blocks = sos.build_normal_equations(windows, chips, p)
        orders = []
        cholesky = np.linalg.cholesky

        def recording(a):
            orders.append(a.shape[0])
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", recording)
        est = sos.estimate_sos(rhs, blocks)
        assert orders == [3]
        assert np.all(np.isfinite(est))

    def test_each_block_takes_its_own_ridge(self):
        # K = 3, P = 2: a well-conditioned 9 x 9 real block beside a rank-2
        # imaginary block; only the singular block is ridged, by its own diagonal
        rng = seeded_rng(61)
        a = rng.standard_normal((12, 9))
        real = 1e4 * (a.T @ a + np.eye(9))
        v, w = np.array([1.0, 1.0, 0.0]), np.array([0.0, 1.0, 1.0])
        imag = np.outer(v, v) + np.outer(w, w)
        rhs = sos.free_vars_inverse(rng.standard_normal((3, 4)))
        f = sos.free_vars(sos.estimate_sos(rhs, (real, imag))) * sos.free_weights(2)
        y = sos.free_vars(rhs)
        _, _, is_im = sos.free_slot_index(2)
        x_re, y_re = f[:, ~is_im].reshape(-1), y[:, ~is_im].reshape(-1)
        assert np.linalg.norm(real @ x_re - y_re) <= 1e-12 * np.linalg.norm(y_re)
        ridge = sos._RIDGE * np.linalg.norm(np.diag(imag))
        x_im = f[:, is_im].reshape(-1)
        y_im = y[:, is_im].reshape(-1)
        assert np.allclose((imag + ridge * np.eye(3)) @ x_im, y_im, rtol=0, atol=1e-6)
        assert np.linalg.norm(x_im) > 1e6  # the null-space part is scaled by 1/ridge

    def test_singular_block_reports_its_own_condition(self):
        # K = 2, P = 2: the SPD real block has condition 6, the indefinite
        # imaginary block 3; the error names the block that failed
        real = np.diag(np.arange(1.0, 7.0))
        imag = np.diag([1.0, -3.0])
        rhs = sos.free_vars_inverse(seeded_rng(62).standard_normal((2, 4)))
        with pytest.raises(SingularSystemError) as info:
            sos.estimate_sos(rhs, (real, imag))
        assert info.value.condition == pytest.approx(3.0)

    def test_unbiased_identity_single_user(self):
        # mean of d_hat over 500 draws within 3 standard errors of d
        p = model.SystemParams(users=1, gain=256, taps=2, symbols=100, noise_var=1.0)
        gains = model.sample_channel(p, seeded_rng(63))
        draws = sos_trials(p, gains, 500, 64, mode="identity")[:, 0, :]
        err = draws - model.vec_outer(gains[0])
        se = err.std(axis=0) / np.sqrt(err.shape[0])
        bias = np.abs(err.mean(axis=0))
        assert np.all(bias <= 3 * se)


class TestSolveSpd:
    def test_spd_gram_matches_general_solve(self):
        rng = seeded_rng(70)
        a = rng.standard_normal((12, 8))
        gram = a.T @ a + np.eye(8)
        rhs = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        x = sos._solve_spd(gram, rhs)
        assert np.allclose(x, np.linalg.solve(gram, rhs), rtol=1e-12, atol=0)

    def test_rank_deficient_gram_takes_the_ridge(self):
        # rank 2 of 3 in exact integers, so the last Cholesky pivot is exactly 0
        v, w = np.array([1.0, 1.0, 0.0]), np.array([0.0, 1.0, 1.0])
        gram = np.outer(v, v) + np.outer(w, w)
        rhs = np.array([1.0 + 2.0j, -0.5j, 3.0])
        x = sos._solve_spd(gram, rhs)
        ridge = sos._RIDGE * np.linalg.norm(np.diag(gram))
        assert np.allclose((gram + ridge * np.eye(3)) @ x, rhs, rtol=0, atol=1e-6)
        assert np.linalg.norm(x) > 1e6  # the null-space part of rhs is scaled by 1/ridge

    def test_singular_gram_that_passes_cholesky_takes_the_ridge(self):
        # rank one: Cholesky's rounding leaves a tiny positive last pivot,
        # while the LU of the solve meets an exact zero
        gram = np.full((2, 2), 0.7)
        np.linalg.cholesky(gram)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(gram, np.ones(2))
        rhs = np.array([1.0 + 2.0j, -0.5j])
        x = sos._solve_spd(gram, rhs)
        ridge = sos._RIDGE * np.linalg.norm(np.diag(gram))
        assert np.allclose((gram + ridge * np.eye(2)) @ x, rhs, rtol=0, atol=1e-6)

    def test_spd_gram_builds_no_ridged_copy(self, monkeypatch):
        # the first factor is accepted, so the ridged Gram is never formed:
        # the one block factored is a view of gram itself
        factored = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(a) or cholesky(a))
        gram = np.diag([2.0, 3.0])
        assert np.allclose(sos._solve_spd(gram, np.array([2.0, 3.0])), 1.0)
        assert len(factored) == 1 and np.shares_memory(factored[0], gram)

    def test_indefinite_gram_raises(self):
        gram = np.diag([1.0, -1.0])
        with pytest.raises(SingularSystemError) as info:
            sos._solve_spd(gram, np.array([1.0 + 0j, 1.0]))
        assert info.value.condition == pytest.approx(1.0)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("case", ["spd", "ridge", "raise"])
    def test_input_is_left_unchanged(self, dtype, case):
        # the factor is written over gram's lower triangle and undone on every
        # path: order 130 spans three blocks; rank 60 < 130 takes the ridge
        rng = seeded_rng(71)
        n = 130
        a = rng.standard_normal((n if case == "spd" else 60, n)).astype(dtype)
        if dtype is complex:
            a += 1j * rng.standard_normal(a.shape)
        gram = a.conj().T @ a
        gram = (gram + gram.conj().T) / 2  # exactly Hermitian
        if case == "raise":
            gram[70, 70] = -1.0
        before = gram.copy()
        rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if case == "raise":
            with pytest.raises(SingularSystemError):
                sos._solve_spd(gram, rhs)
        else:
            sos._solve_spd(gram, rhs)
        assert np.array_equal(gram, before)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 384])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_in_place_factor_matches_cholesky(self, n, dtype):
        rng = seeded_rng(72)
        a = rng.standard_normal((n + 8, n)).astype(dtype)
        if dtype is complex:
            a += 1j * rng.standard_normal(a.shape)
        gram = a.conj().T @ a
        gram = (gram + gram.conj().T) / 2
        factor = gram.copy()
        assert sos._factor_lower(factor)
        ref = np.linalg.cholesky(gram)
        assert np.max(np.abs(np.tril(factor) - ref)) <= 1e-12 * np.max(np.abs(ref))
        upper = np.triu_indices(n, 1)
        assert np.array_equal(factor[upper], gram[upper])

    def test_factors_no_block_above_the_solve_block(self, monkeypatch):
        # an order-384 system (the K = 64, P = 3 real SOS block) is factored
        # a diagonal block at a time, so LAPACK never copies the whole Gram
        rng = seeded_rng(73)
        a = rng.standard_normal((400, 384))
        gram = a.T @ a
        orders = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: orders.append(len(m)) or cholesky(m))
        rhs = rng.standard_normal(384)
        x = sos._solve_spd(gram, rhs)
        assert orders and max(orders) <= sos._SOLVE_BLOCK
        assert np.linalg.norm(gram @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


class TestGramToIdentityTrend:
    def test_shrinking_deviation(self):
        # fixed P, beta: max|T - I| falls as (N, M) grow (3 seeds per size here;
        # the 20-seed version is in the acceptance suite)
        means = []
        for gain, symbols in [(32, 100), (64, 400)]:
            p = model.SystemParams(
                users=round(0.25 * gain), gain=gain, taps=3, symbols=symbols
            )
            devs = [
                np.max(np.abs(gram_only(p, seeded_rng(65, gain, s)) - np.eye(p.users * 9)))
                for s in range(3)
            ]
            means.append(np.mean(devs))
        assert means[1] < means[0]

    def test_average_gram_well_conditioned(self):
        # E{T} over 50 draws at K=16, N=64, P=3 is nonsingular, cond < 100
        p = model.SystemParams(users=16, gain=64, taps=3, symbols=50)
        total = sum(gram_only(p, seeded_rng(66, s)) for s in range(50)) / 50
        assert np.linalg.cond(total) < 100


class TestHermitianize:
    def test_fixed_point(self):
        rng = seeded_rng(67)
        g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        d = model.vec_outer(g)
        assert np.allclose(sos.hermitianize(d), d)

    def test_documented_example(self):
        mat = np.array([[1, 2j], [0, 1]])
        out = model.unvec(sos.hermitianize(mat.reshape(-1, order="F")), 2)
        assert np.allclose(out, [[1, 1j], [-1j, 1]])

    def test_idempotent_and_exact(self):
        rng = seeded_rng(68)
        d = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        once = sos.hermitianize(d)
        mat = model.unvec(once, 3)
        assert np.max(np.abs(mat - mat.conj().T)) == 0.0
        assert np.array_equal(sos.hermitianize(once), once)

    @given(data=st.data())
    def test_property_idempotent_on_stacks(self, data):
        shape = data.draw(st.lists(st.integers(1, 3), max_size=2), label="batch")
        taps = data.draw(st.integers(1, 5), label="P")
        rng = seeded_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        size = (*shape, taps * taps)
        d = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        once = sos.hermitianize(d)
        assert once.shape == d.shape
        assert np.array_equal(sos.hermitianize(once), once)

    def test_per_user_stack(self):
        rng = seeded_rng(69)
        est = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        out = sos.hermitianize(est)
        assert out.shape == est.shape
        for k in range(2):
            mat = model.unvec(out[k], 2)
            assert np.allclose(mat, mat.conj().T)
            assert np.array_equal(out[k], sos.hermitianize(est[k]))


class TestFreeVars:
    def test_scalar_case(self):
        assert sos.free_vars(np.array([2.5 + 0j])) == pytest.approx([2.5])

    def test_documented_ordering(self):
        mat = np.array([[1, 0.3 - 0.4j], [0.3 + 0.4j, 2]])
        f = sos.free_vars(mat.reshape(-1, order="F"))
        assert np.allclose(f, [1.0, 2.0, 0.3, -0.4])

    @pytest.mark.parametrize("taps", [1, 2, 3, 5])
    def test_round_trip(self, taps):
        rng = seeded_rng(71, taps)
        g = rng.standard_normal(taps) + 1j * rng.standard_normal(taps)
        d = sos.hermitianize(
            model.vec_outer(g) + 0.1 * sos.hermitianize(
                rng.standard_normal(taps * taps) + 1j * rng.standard_normal(taps * taps)
            )
        )
        f = sos.free_vars(d)
        assert f.shape == (taps * taps,)
        assert np.allclose(sos.free_vars_inverse(f), d, atol=1e-14)

    @given(taps=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_property_inverse_round_trip(self, taps, seed):
        f = 10.0 * seeded_rng(seed).standard_normal(taps * taps)
        assert np.max(np.abs(sos.free_vars(sos.free_vars_inverse(f)) - f)) <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            sos.free_vars(np.array([1.0, 1j, 1j, 2.0]))

    def test_basis_matches_inverse(self):
        taps = 3
        basis = sos.hermitian_basis(taps)
        rng = seeded_rng(72)
        f = rng.standard_normal(taps * taps)
        direct = np.einsum("s,sij->ij", f, basis)
        assert np.allclose(direct.reshape(-1, order="F"), sos.free_vars_inverse(f))

    @pytest.mark.parametrize("taps", [1, 2, 3, 4])
    def test_outer_free_jacobian_batched(self, taps):
        rng = seeded_rng(74, taps)
        g = rng.standard_normal((2, 3, taps)) + 1j * rng.standard_normal((2, 3, taps))
        stack = sos.outer_free_jacobian(g)
        assert stack.shape == (2, 3, taps * taps, 2 * taps)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(stack[idx], sos.outer_free_jacobian(g[idx]))

    def test_weights_measure_frobenius(self):
        taps = 3
        rng = seeded_rng(73)
        d = sos.hermitianize(
            rng.standard_normal(9) + 1j * rng.standard_normal(9)
        )
        f = sos.free_vars(d)
        assert np.sum(sos.free_weights(taps) * f**2) == pytest.approx(
            np.linalg.norm(d) ** 2
        )
