"""Tests for the training, moment-matching and subspace estimators."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from semiblind import analytic, estimators, model, sos
from semiblind.errors import ConfigError
from helpers import (
    draw_block,
    record_chunk_sizes,
    representative_channels,
    seeded_rng,
    sylvester,
    training_trials,
)


def random_taps(taps, *key):
    rng = seeded_rng(*key)
    return (rng.standard_normal(taps) + 1j * rng.standard_normal(taps)) / np.sqrt(2 * taps)


class TestTrainingEstimate:
    def test_single_user_noiseless_exact(self):
        # unit symbols and dyadic chips make the estimate exact in floats
        p = model.SystemParams(users=1, gain=16, taps=1, symbols=4, train_symbols=4)
        gains = model.sample_channel(p, seeded_rng(120))
        chips = model.sample_codes(p, seeded_rng(121))
        symbols = np.ones((1, 4), complex)
        windows = model.synthesize_received(p, gains, chips, symbols, seeded_rng(122))
        g_bar = estimators.training_estimate(windows, chips, symbols, p)
        # exact up to summation order: every product in the chain is dyadic
        assert np.max(np.abs(g_bar - gains)) < 1e-15

    def test_single_user_noiseless_multipath(self):
        # K=1, sigma=0, P=3, M_t=200, N=64: the joint least-squares fit
        # removes the inter-tap self-interference, so it is exact up to rounding
        p = model.SystemParams(users=1, gain=64, taps=3, symbols=200, train_symbols=200)
        gains = model.sample_channel(p, seeded_rng(123))
        chips, symbols, windows = draw_block(p, gains, seeded_rng(124))
        g_bar = estimators.training_estimate(windows, chips, symbols, p)
        rel = np.linalg.norm(g_bar - gains) / np.linalg.norm(gains)
        assert rel < 1e-12

    def test_error_variance(self):
        # empirical Var(g_bar - g) within 15% of noise_var/M_t at K=16, N=64,
        # M_t=100; the finite-size factor N/(N-P+1) (1 + K P/(M_t (N-P+1)))
        # is 1.02 here
        p = model.SystemParams(
            users=16, gain=64, taps=2, symbols=100, train_symbols=100, noise_var=4.0
        )
        gains = representative_channels(p, 125)
        draws = training_trials(p, gains, 500, 126)
        err = draws - gains[None]
        emp = np.var(err)  # E|x - mean|^2, the complex variance
        assert emp == pytest.approx(p.noise_var / 100, rel=0.15)

    def test_matches_stacked_least_squares(self):
        # oracle: lstsq on the explicitly stacked S(m) = [x_k(m) C_k^(m)]_k
        p = model.SystemParams(
            users=3, gain=8, taps=2, symbols=6, train_symbols=4, noise_var=0.3
        )
        gains = model.sample_channel(p, seeded_rng(129))
        chips, symbols, windows = draw_block(p, gains, seeded_rng(130))
        stacked = np.vstack([
            np.hstack([
                symbols[k, m] * sylvester(chips[k, m] / np.sqrt(p.gain), p.taps)
                for k in range(p.users)
            ])
            for m in range(p.train_symbols)
        ])
        rhs = windows[: p.train_symbols].reshape(-1)
        ref = np.linalg.lstsq(stacked, rhs, rcond=None)[0].reshape(p.users, p.taps)
        g_bar = estimators.training_estimate(windows, chips, symbols, p)
        assert np.max(np.abs(g_bar - ref)) < 1e-12

    @pytest.mark.parametrize("seed", [57, 97, 99, 119])
    def test_exactly_singular_gram_takes_the_ridge(self, seed):
        # K P = 4 taps from M_t (N-P+1) = 6 samples of length-3 codes: for
        # these draws the Gram has rank 3, Cholesky still passes on a tiny
        # pivot, and the solve must fall back to the ridge instead of
        # leaking numpy's LinAlgError
        p = model.SystemParams(
            users=4, gain=3, taps=1, symbols=4, train_symbols=2, noise_var=0.3
        )
        rng = seeded_rng(seed)
        gains = model.sample_channel(p, rng)
        chips, symbols, windows = draw_block(p, gains, rng)
        g_bar = estimators.training_estimate(windows, chips, symbols, p)
        assert np.all(np.isfinite(g_bar))

    @given(
        users=st.integers(1, 4),
        gain=st.integers(2, 12),
        taps=st.integers(1, 11),
        mt=st.integers(1, 6),
        kind=st.sampled_from(["qpsk", "real", "gaussian"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(users=1, gain=2, taps=1, mt=1, kind="qpsk", seed=0)
    @example(users=4, gain=12, taps=1, mt=6, kind="real", seed=1)
    @example(users=3, gain=12, taps=11, mt=1, kind="real", seed=2)
    @example(users=2, gain=7, taps=6, mt=5, kind="qpsk", seed=3)
    @example(users=2, gain=7, taps=3, mt=5, kind="gaussian", seed=4)
    def test_property_lag_gram_matches_stacked(self, users, gain, taps, mt, kind, seed):
        # oracle: sum_m S(m)^H S(m) over the explicitly stacked float64
        # Sylvester blocks of the +-1/sqrt(N) chips
        taps = min(taps, gain - 1)  # so P = N-1 comes up often
        rng = seeded_rng(seed)
        chips = rng.choice(np.array([-1, 1], dtype=np.int8), size=(users, mt, gain))
        signs = rng.choice([-1.0, 1.0], size=(2, users, mt))
        if kind == "qpsk":
            x = (signs[0] + 1j * signs[1]) / np.sqrt(2.0)
        elif kind == "real":
            x = signs[0]
        else:
            x = rng.standard_normal((users, mt)) + 1j * rng.standard_normal((users, mt))
            # not summable exactly in float32
            with pytest.raises(ValueError, match="real and imaginary"):
                estimators._training_gram(chips, x, taps)
            return
        stacked = np.vstack([
            np.hstack([
                x[k, m] * sylvester(chips[k, m] / np.sqrt(gain), taps)
                for k in range(users)
            ])
            for m in range(mt)
        ])
        ref = stacked.conj().T @ stacked
        gram = estimators._training_gram(chips, x, taps)
        assert np.max(np.abs(gram - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.array_equal(gram, gram.conj().T)

    def test_chunked_lag_gram_bit_identical(self, monkeypatch):
        # every chunk's float32 sums are exact integers, so the chunking
        # (here 3 symbols whose weighted sums of 5-chip windows reach
        # 3 * 2 * 5, with a partial last chunk) cannot change the Gram
        rng = seeded_rng(133)
        chips = rng.choice(np.array([-1, 1], dtype=np.int8), size=(3, 8, 7))
        signs = rng.choice([-1.0, 1.0], size=(2, 3, 8))
        x = (signs[0] + 1j * signs[1]) / np.sqrt(2.0)
        whole = estimators._training_gram(chips, x, 3)
        monkeypatch.setattr(estimators, "_EXACT_INT_F32", 3 * 2 * 5)
        sizes = record_chunk_sizes(monkeypatch, estimators)
        assert np.array_equal(estimators._training_gram(chips, x, 3), whole)
        assert sizes == [3, 3, 2]

    @pytest.mark.parametrize("case", ["two_levels", "zero"])
    def test_rejects_symbols_off_one_level(self, case):
        p = model.SystemParams(users=2, gain=8, taps=2, symbols=4, train_symbols=4)
        gains = model.sample_channel(p, seeded_rng(134))
        chips, symbols, windows = draw_block(p, gains, seeded_rng(135))
        if case == "two_levels":
            symbols[1, 2] *= 2.0  # parts +-sqrt(2) beside +-1/sqrt(2)
        else:
            symbols[:] = 0.0
        with pytest.raises(ValueError, match="0 or \\+-u"):
            estimators.training_estimate(windows, chips, symbols, p)

    def test_rejects_underdetermined_training(self):
        # M_t (N-P+1) = 1 * 6 training samples cannot fix K P = 24 taps
        p = model.SystemParams(users=8, gain=8, taps=3, symbols=10, train_symbols=1)
        gains = model.sample_channel(p, seeded_rng(131))
        chips, symbols, windows = draw_block(p, gains, seeded_rng(132))
        with pytest.raises(ConfigError, match="K P"):
            estimators.training_estimate(windows, chips, symbols, p)

    @pytest.mark.parametrize(
        "case, match",
        [
            ("unit_chips", "exactly"),
            ("int16_two", "exactly"),
            ("window_one_chip_short", "windows"),
            ("too_few_windows", "windows"),
        ],
    )
    def test_rejects_block_off_contract(self, case, match):
        # noiseless at K = 4, N = 16, P = 2, M = 40, M_t = 20, each of these
        # gave wrong gains, or failed inside numpy broadcasting, without a check
        p = model.SystemParams(users=4, gain=16, taps=2, symbols=40, train_symbols=20)
        gains = model.sample_channel(p, seeded_rng(136))
        chips, symbols, windows = draw_block(p, gains, seeded_rng(137))
        if case == "unit_chips":
            chips = chips / np.sqrt(p.gain)
        elif case == "int16_two":
            chips = chips.astype(np.int16) * 2
        elif case == "window_one_chip_short":
            windows = windows[:, :-1]
        else:
            windows = windows[:10]
        with pytest.raises(ValueError, match=match):
            estimators.training_estimate(windows, chips, symbols, p)

    def test_requires_training_symbols(self):
        p = model.SystemParams(users=2, gain=16, taps=2, symbols=10, train_symbols=0)
        gains = model.sample_channel(p, seeded_rng(127))
        chips, symbols, windows = draw_block(p, gains, seeded_rng(128))
        with pytest.raises(ConfigError):
            estimators.training_estimate(windows, chips, symbols, p)


class TestWeightW:
    def test_limits(self):
        assert estimators.weight_w(0.5, 1.0, 1e12) == pytest.approx(0.0, abs=1e-11)
        assert estimators.weight_w(0.5, 1.0, 1.0) == pytest.approx(0.5)

    def test_reference_value(self):
        # alpha=0.2, sigma=0.5, sigma_d2=5/3
        val = estimators.weight_w(0.2, 0.5, 5 / 3)
        assert val == pytest.approx(0.4 / (0.4 + 0.2 * 5 / 3), rel=1e-12)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigError):
            estimators.weight_w(1.0, 0.5, 1.0)


class TestMmSemiblind:
    def test_training_only_weight_returns_gbar(self):
        g = random_taps(3, 130)
        gbar = g + 0.05 * random_taps(3, 131)
        out = estimators.mm_semiblind(gbar, model.vec_outer(g), 0.0)
        assert np.allclose(out.gains, gbar, atol=1e-15)
        assert out.diagnostics.iterations <= 1

    def test_pure_moment_weight_matches_moments(self):
        # w=1 with exact moments: the minimizer reproduces them
        g = random_taps(3, 132)
        d = model.vec_outer(g)
        gbar = g + 1e-3 * random_taps(3, 133)
        out = estimators.mm_semiblind(gbar, d, 1.0)
        assert out.diagnostics.cost_trace[-1] < 1e-16
        assert np.linalg.norm(model.vec_outer(out.gains) - d) < 1e-8

    def test_consistent_inputs_recover_truth(self):
        g = random_taps(3, 134)
        out = estimators.mm_semiblind(g, model.vec_outer(g), 0.6)
        assert np.linalg.norm(out.gains - g) < 1e-8

    def test_cost_monotone_on_noisy_inputs(self):
        rng = seeded_rng(135)
        for i in range(10):
            g = random_taps(3, 136, i)
            gbar = g + 0.2 * random_taps(3, 137, i)
            d = sos.hermitianize(
                model.vec_outer(g)
                + 0.3 * (rng.standard_normal(9) + 1j * rng.standard_normal(9))
            )
            out = estimators.mm_semiblind(gbar, d, 0.7)
            trace = np.array(out.diagnostics.cost_trace)
            assert np.all(np.diff(trace) <= 1e-15)
            assert out.diagnostics.converged

    def test_small_weight_continuity(self):
        # ||g_hat(w) - g_bar|| -> 0 as w -> 0
        g = random_taps(3, 138)
        gbar = g + 0.1 * random_taps(3, 139)
        d = sos.hermitianize(model.vec_outer(g) + 0.2 * random_taps(9, 140))
        gaps = [
            np.linalg.norm(estimators.mm_semiblind(gbar, d, w).gains - gbar)
            for w in (1e-1, 1e-2, 1e-3)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3

    def test_subnormal_weight_returns_gbar(self):
        # a w too small to move g_bar in float64 returns it, where the Newton start
        # and slope would overflow (garbage at w = 5e-309, no convergence at 1e-319)
        rng = seeded_rng(142)
        gbar = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        d = model.vec_outer(gbar + 0.1)
        for w in np.logspace(-323, -290, 34):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = estimators.mm_semiblind(gbar, d, w)
            assert np.all(np.isfinite(out.gains)), w
            assert np.max(np.abs(out.gains - gbar)) <= 1e-12, w
            assert out.diagnostics.converged, w

    def test_rejects_bad_weight(self):
        g = random_taps(2, 141)
        with pytest.raises(ValueError):
            estimators.mm_semiblind(g, model.vec_outer(g), 1.5)

    @pytest.mark.parametrize("weight", [1e-3, 0.3, 0.7, 0.999])
    def test_global_optimality_certificate(self, weight):
        # [(1-w+2w||g||^2) I - 2w D] g = (1-w) g_bar with that matrix PSD is
        # necessary and sufficient for the unique global minimizer
        rng = seeded_rng(154)
        for i in range(60):
            taps = 1 + i % 5
            gbar = rng.standard_normal(taps) + 1j * rng.standard_normal(taps)
            if i % 6 == 0:
                gbar[:] = 0  # every a_i = 0: the hard case when lambda_max is large
            noise = rng.standard_normal(taps * taps) + 1j * rng.standard_normal(taps * taps)
            d = sos.hermitianize(model.vec_outer(random_taps(taps, 155, i)) + noise)
            out = estimators.mm_semiblind(gbar, d, weight)
            g = out.gains
            d_mat = model.unvec(d, taps)
            mu = 1 - weight + 2 * weight * np.linalg.norm(g) ** 2
            lhs = mu * np.eye(taps) - 2 * weight * d_mat
            scale = mu + 2 * weight * np.linalg.norm(d_mat, 2)
            resid = np.linalg.norm(lhs @ g - (1 - weight) * gbar)
            assert resid <= 1e-10 * (scale * np.linalg.norm(g) + np.linalg.norm(gbar))
            assert np.linalg.eigvalsh(lhs)[0] >= -1e-10 * scale
            assert out.diagnostics.converged
            assert out.diagnostics.cost_trace[-1] <= out.diagnostics.cost_trace[0]

    def test_hard_case_puts_norm_on_top_eigenvector(self):
        # g_bar = e_2 orthogonal to the top eigenvector of D = diag(3, 2, -1),
        # w = 0.5: mu = b_max = 3, so ||g||^2 = 5/2, g_2 = 0.5 / (3 - 2) and the
        # top component carries the missing 5/2 - 1/4 = 9/4
        d = np.diag([3.0, 2.0, -1.0]).astype(complex).reshape(-1, order="F")
        out = estimators.mm_semiblind(np.array([0, 1, 0], dtype=complex), d, 0.5)
        assert np.allclose(np.abs(out.gains), [1.5, 0.5, 0.0], atol=1e-14)

    def test_batched_matches_row_by_row(self):
        rng = seeded_rng(156)
        k, taps = 16, 3
        gbar = rng.standard_normal((k, taps)) + 1j * rng.standard_normal((k, taps))
        d = sos.hermitianize(
            rng.standard_normal((k, taps * taps)) + 1j * rng.standard_normal((k, taps * taps))
        )
        batch = estimators.mm_semiblind(gbar, d, 0.4)
        rows = [estimators.mm_semiblind(gbar[i], d[i], 0.4) for i in range(k)]
        assert batch.gains.shape == (k, taps)
        assert np.max(np.abs(batch.gains - [r.gains for r in rows])) <= 1e-13
        total = sum(r.diagnostics.cost_trace[-1] for r in rows)
        assert batch.diagnostics.cost_trace[-1] == pytest.approx(total)
        assert batch.diagnostics.converged


class TestPrincipalEigvec:
    def test_exact_rank_one(self):
        g = random_taps(3, 142)
        u = estimators.principal_eigvec(model.vec_outer(g))
        assert np.linalg.norm(u) == pytest.approx(1.0)
        assert abs(u.conj() @ g) == pytest.approx(np.linalg.norm(g), rel=1e-12)

    def test_phase_convention(self):
        g = random_taps(3, 143)
        u = estimators.principal_eigvec(model.vec_outer(g))
        lead = u[np.flatnonzero(np.abs(u) > 1e-12)[0]]
        assert lead.imag == pytest.approx(0.0, abs=1e-14)
        assert lead.real > 0

    def test_degenerate_input_still_unit(self):
        d = np.eye(3, dtype=complex).reshape(-1, order="F")
        u = estimators.principal_eigvec(d)
        assert np.linalg.norm(u) == pytest.approx(1.0)
        gbar = random_taps(3, 144)
        out = estimators.subspace_semiblind(gbar, d, 1.0)
        assert np.allclose(out.gains, (u.conj() @ gbar) * u)

    def test_perturbation_bound(self):
        # sin^2(u, g) <= 4 eps^2 ||E||^2 / gap^2 for small Hermitian E
        rng = seeded_rng(145)
        eps = 1e-3
        for i in range(20):
            g = random_taps(3, 146, i)
            noise = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            e_mat = 0.5 * (noise + noise.conj().T)
            d = model.vec_outer(g) + eps * e_mat.reshape(-1, order="F")
            u = estimators.principal_eigvec(d)
            energy = np.linalg.norm(g) ** 2
            sin2 = 1 - abs(u.conj() @ g) ** 2 / energy
            bound = 4 * eps**2 * np.linalg.norm(e_mat, 2) ** 2 / energy**2
            assert sin2 <= bound + 1e-15


class TestSubspaceSemiblind:
    def test_omega_zero_passthrough(self):
        gbar = random_taps(3, 147)
        out = estimators.subspace_semiblind(gbar, np.eye(3, dtype=complex).reshape(-1), 0.0)
        assert np.array_equal(out.gains, gbar)

    def test_exact_subspace_noiseless(self):
        g = random_taps(3, 148)
        for omega in (0.0, 0.4, 1.0):
            out = estimators.subspace_semiblind(g, model.vec_outer(g), omega)
            assert np.allclose(out.gains, g, atol=1e-12)

    def test_phase_invariance(self):
        # replacing u by e^{j phi} u cannot change the estimate: compute the
        # combination explicitly for rotated eigenvectors
        g = random_taps(3, 149)
        gbar = g + 0.1 * random_taps(3, 150)
        d = model.vec_outer(g)
        u = estimators.principal_eigvec(d)
        ref = estimators.subspace_semiblind(gbar, d, 0.6).gains
        for phi in (0.3, 1.2, -2.0):
            u_rot = np.exp(1j * phi) * u
            rotated = 0.6 * (u_rot.conj() @ gbar) * u_rot + 0.4 * gbar
            assert np.allclose(rotated, ref, atol=1e-14)

    def test_diagnostics_populated(self):
        g = random_taps(3, 151)
        out = estimators.subspace_semiblind(g, model.vec_outer(g), 0.25)
        assert out.diagnostics.weight == 0.25

    def test_diagnostics_keep_only_what_a_fit_computes(self):
        names = [f.name for f in dataclasses.fields(estimators.FitDiagnostics)]
        assert names == ["weight", "iterations", "converged", "cost_trace"]

    def test_batch_matches_rows(self):
        # one call over a (K, P) stack equals K row-by-row calls, with
        # per-user omegas from one batched optimal_omega call
        k, taps = 6, 3
        p = model.SystemParams(
            users=k, gain=64, taps=taps, symbols=400, train_symbols=80, noise_var=0.5
        )
        rng = seeded_rng(154)
        g = np.array([random_taps(taps, 155, i) for i in range(k)])
        gbar = g + 0.1 * np.array([random_taps(taps, 156, i) for i in range(k)])
        noise = rng.standard_normal((k, taps**2)) + 1j * rng.standard_normal((k, taps**2))
        d = sos.hermitianize(model.vec_outer(g) + 0.05 * noise)
        omega = analytic.optimal_omega(gbar, p)
        rows = [analytic.optimal_omega(gbar[i], p) for i in range(k)]
        assert omega.shape == (k,)
        assert np.max(np.abs(omega - rows)) <= 1e-13
        u = estimators.principal_eigvec(d)
        u_rows = np.array([estimators.principal_eigvec(d[i]) for i in range(k)])
        assert np.max(np.abs(u - u_rows)) <= 1e-13
        batch = estimators.subspace_semiblind(gbar, d, omega)
        fits = [estimators.subspace_semiblind(gbar[i], d[i], rows[i]) for i in range(k)]
        assert batch.gains.shape == (k, taps)
        assert np.max(np.abs(batch.gains - [f.gains for f in fits])) <= 1e-13


class TestSubspaceBeatsTraining:
    @pytest.mark.parametrize("noise_var", [0.25, 0.5, 1.0])
    def test_oracle_omega_improves_on_training(self, noise_var):
        # one-sided comparison at 2 standard errors, 500 trials
        p = model.SystemParams(
            users=16, gain=64, taps=3, symbols=400, train_symbols=80,
            noise_var=noise_var,
        )
        gains = representative_channels(p, 152)
        omega = analytic.optimal_omega(gains, p)
        trials = 500
        diff = np.empty(trials)  # training error - subspace error, per trial
        for t in range(trials):
            chips, symbols, windows = draw_block(p, gains, seeded_rng(153, t))
            g_bar = estimators.training_estimate(windows, chips, symbols, p)
            rhs, _ = sos.build_normal_equations(windows, chips, p, include_gram=False)
            d_hat = sos.estimate_sos(rhs)
            fit = estimators.subspace_semiblind(g_bar, d_hat, omega)
            err_tr = np.sum(np.abs(g_bar - gains) ** 2)
            diff[t] = err_tr - np.sum(np.abs(fit.gains - gains) ** 2)
        se = diff.std(ddof=1) / np.sqrt(trials)
        assert diff.mean() > 2 * se
