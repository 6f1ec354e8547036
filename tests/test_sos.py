"""Tests for the SOS normal equations, solvers and Hermitian free variables."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semiblind import model, sos
from semiblind.errors import SingularSystemError
from helpers import draw_block, gram_only, seeded_rng, sos_trials


def brute_force_system(params, chips, windows, noise_var):
    """Materialize Q(m) explicitly; the oracle the fast path must match.

    Returns (T, y) with y in the (K, P^2) per-user layout.
    """
    k, p, n_w = params.users, params.taps, params.window
    dim = k * p * p
    gram = np.zeros((dim, dim))
    rhs = np.zeros(dim, dtype=complex)
    eye_vec = np.eye(n_w).reshape(-1, order="F")
    for m in range(params.symbols):
        q = np.hstack(
            [
                np.kron(
                    model.sylvester(chips[u, m], p),
                    model.sylvester(chips[u, m], p),
                )
                for u in range(k)
            ]
        )
        r = windows[m]
        gram += q.T @ q
        rhs += q.T @ np.outer(r, r.conj()).reshape(-1, order="F")
        rhs -= noise_var * (q.T @ eye_vec)
    return gram / params.symbols, rhs.reshape(k, p * p) / params.symbols


class TestBuildNormalEquations:
    def test_scalar_case_unit_gram(self):
        # K=1, P=1: T = (1/M) sum ||s||^4 = 1 (exact for dyadic 1/N)
        p = model.SystemParams(users=1, gain=16, taps=1, symbols=8, noise_var=0.1)
        gains = model.sample_channel(p, seeded_rng(40))
        chips, _, windows = draw_block(p, gains, seeded_rng(41))
        _, gram = sos.build_normal_equations(chips, windows, range(8), p.noise_var)
        assert gram.shape == (1, 1)
        assert gram[0, 0] == 1.0

    def test_kron_block_identity(self):
        p = model.SystemParams(users=2, gain=8, taps=2, symbols=3, noise_var=0.2)
        gains = model.sample_channel(p, seeded_rng(42))
        chips, _, windows = draw_block(p, gains, seeded_rng(43))
        c0 = model.sylvester(chips[0, 0], 2)
        c1 = model.sylvester(chips[1, 0], 2)
        q0, q1 = np.kron(c0, c0), np.kron(c1, c1)
        assert np.allclose(q0.T @ q1, np.kron(c0.T @ c1, c0.T @ c1), atol=1e-14)

    @pytest.mark.parametrize("users,gain,taps", [(1, 6, 2), (2, 8, 2), (3, 10, 3), (2, 9, 1)])
    def test_matches_brute_force(self, users, gain, taps):
        p = model.SystemParams(users=users, gain=gain, taps=taps, symbols=5, noise_var=0.3)
        gains = model.sample_channel(p, seeded_rng(44, users, gain))
        chips, _, windows = draw_block(p, gains, seeded_rng(45, users, gain))
        rhs, gram = sos.build_normal_equations(chips, windows, range(5), p.noise_var)
        gram_ref, rhs_ref = brute_force_system(p, chips, windows, p.noise_var)
        assert np.max(np.abs(gram - gram_ref)) <= 1e-12 * np.max(np.abs(gram_ref))
        assert np.max(np.abs(rhs - rhs_ref)) <= 1e-12 * np.max(np.abs(rhs_ref))

    def test_gram_concentrates(self):
        # K=4, N=32, P=2, M=200 -> max |T - I| < 0.15
        p = model.SystemParams(users=4, gain=32, taps=2, symbols=200)
        gram = gram_only(p, seeded_rng(46))
        assert np.max(np.abs(gram - np.eye(16))) < 0.15

    def test_info_range_subset(self):
        p = model.SystemParams(users=2, gain=16, taps=2, symbols=10, noise_var=0.1)
        gains = model.sample_channel(p, seeded_rng(47))
        chips, _, windows = draw_block(p, gains, seeded_rng(48))
        sub_rhs, sub_gram = sos.build_normal_equations(chips, windows, range(4, 10), p.noise_var)
        p_t = model.SystemParams(users=2, gain=16, taps=2, symbols=6, noise_var=0.1)
        full_rhs, full_gram = sos.build_normal_equations(
            chips[:, 4:, :], windows[4:], range(6), p_t.noise_var
        )
        assert np.array_equal(sub_gram, full_gram)
        assert np.array_equal(sub_rhs, full_rhs)

    @pytest.mark.parametrize("users,gain,taps,symbols", [(3, 16, 3, 6), (2, 64, 3, 3)])
    def test_gram_exact_for_dyadic_gain(self, users, gain, taps, symbols):
        # 1/sqrt(N) is a power of two, so the oracle's float64 sums are exact
        # too and both round the same rational once
        p = model.SystemParams(users=users, gain=gain, taps=taps, symbols=symbols)
        gains = model.sample_channel(p, seeded_rng(74, gain))
        chips, _, windows = draw_block(p, gains, seeded_rng(75, gain))
        _, gram = sos.build_normal_equations(chips, windows, range(symbols), p.noise_var)
        gram_ref, _ = brute_force_system(p, chips, windows, p.noise_var)
        assert np.array_equal(gram, gram_ref)

    def test_chunked_gram_bit_identical(self, monkeypatch):
        p = model.SystemParams(users=4, gain=12, taps=3, symbols=20, noise_var=0.2)
        gains = model.sample_channel(p, seeded_rng(76))
        chips, _, windows = draw_block(p, gains, seeded_rng(77))
        _, whole = sos.build_normal_equations(chips, windows, range(20), p.noise_var)
        # room for 3 symbols of the 9 (4 x 4) cross-Grams: 7 chunks
        monkeypatch.setattr(sos, "_GRAM_CHUNK_ELEMS", 3 * 9 * 16)
        _, chunked = sos.build_normal_equations(chips, windows, range(20), p.noise_var)
        assert np.array_equal(chunked, whole)

    @pytest.mark.parametrize("case", ["one_chip", "unit_chips"])
    def test_gram_rejects_non_sign_chips(self, case):
        p = model.SystemParams(users=2, gain=16, taps=2, symbols=5, noise_var=0.1)
        gains = model.sample_channel(p, seeded_rng(78))
        bad, _, windows = draw_block(p, gains, seeded_rng(79))
        if case == "one_chip":
            bad[1, 2, 3] *= 1.0 + 1e-12
        else:
            bad *= np.sqrt(p.gain)  # +-1, not +-1/sqrt(N)
        with pytest.raises(ValueError, match="sqrt"):
            sos.build_normal_equations(bad, windows, range(5), p.noise_var)
        # the right-hand side alone takes any chips
        sos.build_normal_equations(bad, windows, range(5), p.noise_var, include_gram=False)

    def test_gram_rejects_windows_beyond_exact_float32(self):
        # N-P+1 = 4097: a product of two cross-Gram entries can reach 4097^2 > 2^24
        p = model.SystemParams(users=1, gain=4098, taps=2, symbols=1)
        chips = model.sample_codes(p, seeded_rng(82))
        windows = np.zeros((1, p.window), dtype=complex)
        with pytest.raises(ValueError, match="4096"):
            sos.build_normal_equations(chips, windows, range(1), 0.0)

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
            sos.build_normal_equations(
                chips, windows, range(5), p.noise_var
            )

    @given(data=st.data())
    def test_property_matches_brute_force_on_subsets(self, data):
        # random shapes and a random nonempty subset of symbols, in any order
        users = data.draw(st.integers(1, 4), label="K")
        taps = data.draw(st.integers(1, 4), label="P")
        gain = data.draw(st.integers(taps + 1, 12), label="N")
        symbols = data.draw(st.integers(1, 6), label="M")
        info = data.draw(
            st.lists(st.integers(0, symbols - 1), min_size=1, max_size=symbols, unique=True),
            label="info_range",
        )
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        p = model.SystemParams(users=users, gain=gain, taps=taps, symbols=symbols, noise_var=0.3)
        rng = seeded_rng(seed)
        chips = model.sample_codes(p, rng)
        shape = (symbols, p.window)
        windows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        rhs, gram = sos.build_normal_equations(chips, windows, info, p.noise_var)
        p_sub = model.SystemParams(
            users=users, gain=gain, taps=taps, symbols=len(info), noise_var=0.3
        )
        gram_ref, rhs_ref = brute_force_system(
            p_sub,
            chips[:, info, :],
            windows[info],
            p.noise_var,
        )
        assert np.max(np.abs(gram - gram_ref)) <= 1e-12 * np.max(np.abs(gram_ref))
        assert np.max(np.abs(rhs - rhs_ref)) <= 1e-12 * np.max(np.abs(rhs_ref))

    def test_empty_range_rejected(self):
        p = model.SystemParams(users=2, gain=16, taps=2, symbols=10)
        gains = model.sample_channel(p, seeded_rng(49))
        chips, _, windows = draw_block(p, gains, seeded_rng(50))
        with pytest.raises(ValueError):
            sos.build_normal_equations(chips, windows, [], 0.0)


class TestEstimateSos:
    def test_consistency_noiseless_single_user(self):
        # sigma=0, K=1, M=5000, N=64, P=2: ||d_hat - d||/||d|| < 0.05
        p = model.SystemParams(users=1, gain=64, taps=2, symbols=5000, noise_var=0.0)
        gains = model.sample_channel(p, seeded_rng(51))
        chips, _, windows = draw_block(p, gains, seeded_rng(52))
        rhs, gram = sos.build_normal_equations(chips, windows, range(5000), 0.0, include_gram=False)
        assert gram is None
        est = sos.estimate_sos(rhs, gram)
        d = model.vec_outer(gains[0])
        rel = np.linalg.norm(est[0] - d) / np.linalg.norm(d)
        assert rel < 0.05

    def test_identity_and_solve_agree_when_gram_trivial(self):
        p = model.SystemParams(users=1, gain=16, taps=1, symbols=6, noise_var=0.2)
        gains = model.sample_channel(p, seeded_rng(53))
        chips, _, windows = draw_block(p, gains, seeded_rng(54))
        rhs, gram = sos.build_normal_equations(chips, windows, range(6), p.noise_var)
        ident = sos.estimate_sos(rhs)
        solve = sos.estimate_sos(rhs, gram)
        assert np.array_equal(ident, solve)

    def test_low_load_solve_succeeds(self):
        # K=8, N=64, P=3: beta = 0.125 < 1/P, direct solve with finite cond
        p = model.SystemParams(users=8, gain=64, taps=3, symbols=200, noise_var=0.5)
        gains = model.sample_channel(p, seeded_rng(55))
        chips, _, windows = draw_block(p, gains, seeded_rng(56))
        rhs, gram = sos.build_normal_equations(chips, windows, range(200), p.noise_var)
        est = sos.estimate_sos(rhs, gram)
        assert est.shape == (8, 9)
        assert np.all(np.isfinite(est))
        assert np.linalg.cond(gram) < 100

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

    def test_indefinite_gram_raises(self):
        gram = np.diag([1.0, -1.0])
        with pytest.raises(SingularSystemError) as info:
            sos._solve_spd(gram, np.array([1.0 + 0j, 1.0]))
        assert info.value.condition == pytest.approx(1.0)


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
