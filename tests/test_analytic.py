"""Tests for the closed-form error predictions and their Monte Carlo oracles."""

import inspect
import math

import numpy as np
import pytest

from semiblind import analytic, estimators, harness, model, sos
from semiblind.errors import ConfigError, SingularSystemError
from helpers import (
    draw_block,
    mm_sandwich,
    representative_channels,
    seeded_rng,
    sos_trials,
)


def params_for(users=32, gain=64, taps=3, symbols=400, train=80, noise=0.5):
    return model.SystemParams(
        users=users, gain=gain, taps=taps, symbols=symbols,
        train_symbols=train, noise_var=noise,
    )


def random_taps(taps, *key):
    rng = seeded_rng(*key)
    return (rng.standard_normal(taps) + 1j * rng.standard_normal(taps)) / np.sqrt(2 * taps)


def omega_part(sigma, params):
    """Omega read back from Sigma = lam^2 I + lam Omega."""
    lam = params.noise_var + params.load  # despread interference-plus-noise power
    return (sigma - lam * lam * np.eye(sigma.shape[-1])) / lam


def entrywise_omega(g):
    """Omega by its entrywise four-case rule, the oracle of the Kronecker form.

    Index i of the vec'd error addresses matrix position
    (row, col) = (i mod P, i // P): both positions equal gives the sum of the
    two tap powers, matching columns the product of the row taps, matching
    rows the conjugate product of the column taps, and anything else zero.
    """
    p = g.shape[0]
    om = np.zeros((p * p, p * p), dtype=complex)
    for i in range(p * p):
        for j in range(p * p):
            (ri, ci), (rj, cj) = (i % p, i // p), (j % p, j // p)
            if i == j:
                om[i, j] = abs(g[ci]) ** 2 + abs(g[ri]) ** 2
            elif ci == cj:
                om[i, j] = g[ri] * g[rj].conj()
            elif ri == rj:
                om[i, j] = g[ci].conj() * g[cj]
    return om


class TestSosCovariance:
    def test_scalar_channel(self):
        p = params_for(taps=1)
        g = np.array([0.8 + 0.6j])
        sig = analytic.predict_sos_covariance(g, p)
        lam = p.noise_var + p.load  # despread interference-plus-noise power
        assert omega_part(sig, p)[0, 0] == pytest.approx(2 * abs(g[0]) ** 2)
        expected = lam**2 + 2 * lam * abs(g[0]) ** 2
        assert sig[0, 0].real == pytest.approx(expected)

    def test_omega_diagonal(self):
        p = params_for()
        g = random_taps(3, 80)
        om = omega_part(analytic.predict_sos_covariance(g, p), p)
        idx = np.arange(9)
        expect = np.abs(g[idx // 3]) ** 2 + np.abs(g[idx % 3]) ** 2
        assert np.allclose(np.diag(om).real, expect)
        assert np.allclose(np.diag(om).imag, 0.0)

    @pytest.mark.parametrize("taps", [1, 2, 3, 4])
    def test_omega_matches_entrywise_rule(self, taps):
        g = np.stack([random_taps(taps, 79, taps, i) for i in range(4)])
        om = analytic._omega_matrix(g)
        for gi, oi in zip(g, om):
            np.testing.assert_allclose(oi, entrywise_omega(gi), rtol=1e-15, atol=1e-15)

    def test_hermitian_psd(self):
        p = params_for()
        for i in range(10):
            g = random_taps(3, 81, i)
            sig = analytic.predict_sos_covariance(g, p)
            assert np.allclose(sig, sig.conj().T)
            assert np.linalg.eigvalsh(sig).min() >= -1e-10

    def test_diagonal_floor(self):
        # the channel-independent floor c = lam^2 of lam^2 I + lam Omega
        p = params_for()
        sig = analytic.predict_sos_covariance(random_taps(3, 82), p)
        floor = (p.noise_var + p.load) ** 2
        assert np.all(np.diag(sig).real >= floor - 1e-12)

    def test_rejects_zero_channel(self):
        with pytest.raises(ValueError):
            analytic.predict_sos_covariance(np.zeros(3, complex), params_for())


class TestAverageSosVariance:
    def test_reference_point(self):
        # beta=0.5, sigma=0.5, P=3 -> 5/3, up to rounding of the float sum
        val = analytic.average_sos_variance(params_for())
        assert val == pytest.approx(5 / 3, abs=2 * math.ulp(5 / 3))

    def test_vanishes_without_load_or_noise(self):
        p = model.SystemParams(users=1, gain=10**6, taps=3, symbols=10, noise_var=0.0)
        assert analytic.average_sos_variance(p) == pytest.approx(0.0, abs=1e-5)

    def test_matches_trace_average_over_channels(self):
        # sigma_d2 = E_g{trace(Sigma)/P^2}: Omega's diagonal averages to 2/P
        p = params_for()
        traces = [
            np.trace(analytic.predict_sos_covariance(random_taps(3, 83, i), p)).real / 9
            for i in range(1000)
        ]
        assert np.mean(traces) == pytest.approx(analytic.average_sos_variance(p), rel=0.02)


class TestRealCovariance:
    @staticmethod
    def build(g, p):
        return analytic.real_covariance(analytic.predict_sos_covariance(g, p), p)

    def test_scalar_channel(self):
        # P=1: the single free variable is real, so its variance is the full
        # complex variance
        p = params_for(taps=1)
        g = np.array([0.9 - 0.2j])
        sigma_zz = self.build(g, p)
        sigma_df = sigma_zz[2:, 2:] * (p.symbols - p.train_symbols)
        sig = analytic.predict_sos_covariance(g, p)[0, 0].real
        assert sigma_df[0, 0] == pytest.approx(sig)
        assert sigma_zz.shape == (3, 3)
        assert sigma_zz[0, 0] == pytest.approx(p.noise_var / (2 * p.train_symbols))

    @pytest.mark.parametrize("taps", [1, 2, 3, 4])
    def test_free_map_recovers_free_covariance(self, taps):
        # free variables f of covariance S give vec(E) = B f with B the
        # matrix of free_vars_inverse, hence cov(vec E) = B S B^H; the SOS
        # block must map that back to S exactly
        p = params_for(taps=taps)
        dim = taps * taps
        rng = seeded_rng(89, taps)
        half = rng.standard_normal((dim, dim))
        s_free = half @ half.T
        b = np.stack([sos.free_vars_inverse(e) for e in np.eye(dim)], axis=1)
        sigma_zz = analytic.real_covariance(b @ s_free @ b.conj().T, p)
        sigma_df = sigma_zz[2 * taps:, 2 * taps:] * (p.symbols - p.train_symbols)
        assert np.max(np.abs(sigma_df - s_free)) <= 1e-13 * np.max(np.abs(s_free))

    def test_symmetric_psd(self):
        p = params_for()
        for i in range(10):
            sigma_zz = self.build(random_taps(3, 86, i), p)
            assert np.allclose(sigma_zz, sigma_zz.T)
            assert np.linalg.eigvalsh(sigma_zz).min() >= -1e-12

    def test_degenerate_configs_rejected(self):
        g = random_taps(3, 87)
        with pytest.raises(ConfigError):
            self.build(g, params_for(train=0))
        with pytest.raises(ConfigError):
            self.build(g, params_for(train=400))

    def test_training_block_scale(self):
        p = params_for()
        block = self.build(random_taps(3, 88), p)[:6, :6]
        assert np.allclose(block, (p.noise_var / 160) * np.eye(6))

    def test_empirical_observation_covariance(self):
        # end-to-end: the empirical variance of each entry of the stacked real
        # observation error, over each user's own prediction sigma_zz,
        # averaged over all 16 users (K=16, N=64, P=2, M=400, M_t=80).  The
        # users of a trial share its codes and noise, so the trial is the unit
        # of the standard error: 0.048-0.053 per entry here, against
        # 0.042-0.047 for user 0 alone over 1000 trials, so the bound of 15%
        # is no looser in standard errors.  Each ratio is within 0.15 of 1
        p = params_for(users=16, taps=2, noise=4.0)
        gains = representative_channels(p, 90, user0_range=(0.8, 1.2))
        pred = np.diagonal(self.build(gains, p), axis1=-2, axis2=-1)  # (K, 2P + P^2)
        truth = sos.free_vars(model.vec_outer(gains))

        trials = 50
        z_err = np.empty((trials, p.users, 2 * 2 + 4))
        for t in range(trials):
            chips, symbols, windows = draw_block(p, gains, seeded_rng(91, t))
            g_bar = estimators.training_estimate(windows, chips, symbols, p)
            rhs, _ = sos.build_normal_equations(windows, chips, p, include_gram=False)
            dd = sos.free_vars(sos.estimate_sos(rhs)) - truth
            dg = g_bar - gains
            z_err[t] = np.concatenate([dg.real, dg.imag, dd], axis=-1)
        per_trial = np.mean((z_err - z_err.mean(axis=0)) ** 2 / pred, axis=1)
        ratio = per_trial.sum(axis=0) / (trials - 1)
        assert np.all(np.abs(ratio - 1) < 0.15), ratio


class TestSubspaceAngle:
    def test_trivial_cases(self):
        assert analytic.predict_subspace_angle(np.array([1.0 + 0j]), params_for(taps=1)) == 0.0
        p0 = model.SystemParams(users=1, gain=10**6, taps=3, symbols=10, noise_var=0.0)
        g = random_taps(3, 92)
        assert analytic.predict_subspace_angle(g, p0) == pytest.approx(0.0, abs=1e-5)

    def test_reference_value(self):
        # first-order perturbation of g g^H by E with cov(vec E) =
        # lam^2 I + lam Omega(g), lam = s + b: the lam^2 I part puts
        # lam^2 (P-1) into ||(I - u u^H) E u||^2 and the lam Omega part
        # lam (P-1) ||g||^2, so E{sin^2} = (P-1)(lam^2 + lam ||g||^2)/||g||^4.
        # At b = s = 0.5 (lam = 1), P = 3, ||g||^2 = 1: 2 * (1 + 1) = 4
        g = np.array([1.0, 0.0, 0.0], dtype=complex)
        val = analytic.predict_subspace_angle(g, params_for())
        assert val == pytest.approx(2 * (1.0 + 1.0), rel=1e-12)

    def test_monte_carlo_cross_check(self):
        # K=32, N=64, M=400 with the exact normal-equation solve: each user's
        # scaled sin^2 over its own prediction, averaged over the users and
        # over 20 trials of each of three channel sets.  The users of a trial
        # share its codes and noise, so the trial is the unit of the standard
        # error, about 0.017 here; the mean ratio is within 0.10 of 1
        p = params_for()
        per_trial = []
        for set_key in (160, 161, 162):
            gains = representative_channels(p, set_key, user0_range=(0.8, 1.2))
            u = estimators.principal_eigvec(sos_trials(p, gains, 20, set_key + 10, mode="solve"))
            energy = np.sum(np.abs(gains) ** 2, axis=-1)
            sin2 = 1 - np.abs(np.sum(u.conj() * gains, axis=-1)) ** 2 / energy
            ratio = p.symbols * sin2 / analytic.predict_subspace_angle(gains, p)
            per_trial.append(ratio.mean(axis=-1))
        assert np.mean(per_trial) == pytest.approx(1.0, abs=0.10)


class TestSubspaceMse:
    def test_training_only_point(self):
        p = params_for()
        g = random_taps(3, 95)
        assert analytic.predict_subspace_mse(g, p, 0.0) == pytest.approx(
            p.noise_var / p.train_frac, rel=1e-12
        )

    def test_perfect_subspace_point(self):
        # sigma_theta2 = 0 requires beta -> 0 and sigma -> 0; emulate by a
        # single-tap-dominant limit instead: P=1 collapses the penalty term
        p = params_for(taps=1)
        g = np.array([1.0 + 0j])
        assert analytic.predict_subspace_mse(g, p, 1.0) == pytest.approx(
            p.noise_var / (1 * p.train_frac), rel=1e-12
        )

    def test_optimum_beats_grid(self):
        p = params_for()
        for i in range(5):
            g = random_taps(3, 96, i)
            best = analytic.predict_subspace_mse(g, p, analytic.optimal_omega(g, p))
            grid = [analytic.predict_subspace_mse(g, p, w) for w in np.linspace(0, 1, 11)]
            assert best <= min(grid) + 1e-12

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigError):
            analytic.predict_subspace_mse(random_taps(3, 97), params_for(train=0), 0.5)

    def test_monte_carlo_at_fixed_omega(self):
        # solve-mode sweeps at N = 64, M = 400, P = 3, alpha = 0.2, s2 = 0.5,
        # 60 trials, prediction from 5000 draws: the ratio of the empirical
        # to the predicted MSE lies in [0.90, 1.12], a bound fixed before the
        # run whose upper side leaves room for the training fit's finite-size
        # factor of about 1.04-1.05; a projection term too large by
        # (1 + 1/P) read 0.853 and 0.816 at omega = 1
        ratios = {}
        for omega in (1.0, 0.5):
            config = harness.ExperimentConfig(
                gain=64, symbols=400, beta=(0.25, 0.5), sigma_n2=(0.5,), taps=(3,),
                alpha=(0.2,), trials=60, seed=4, estimator="subspace", sos_mode="solve",
                omega=omega, draws=5000,
            )
            records, failures = harness.run_sweep(config)
            assert not failures
            for rec in records:
                ratios[rec.beta, omega] = rec.sigma_g2_emp / rec.sigma_g2_ana
        assert len(ratios) == 4
        assert all(0.90 <= r <= 1.12 for r in ratios.values()), ratios


class TestOptimalOmega:
    def test_single_tap(self):
        assert analytic.optimal_omega(np.array([1.0 + 0j]), params_for(taps=1)) == 0.0

    def test_matches_grid_argmin(self):
        p = params_for()
        g = random_taps(3, 99)
        grid = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        vals = [analytic.predict_subspace_mse(g, p, w) for w in grid]
        assert analytic.optimal_omega(g, p) == pytest.approx(grid[int(np.argmin(vals))], abs=1e-3)


class TestMomentJacobian:
    def test_zero_channel(self):
        jac = analytic.moment_jacobian(np.zeros(3, complex))
        assert np.array_equal(jac[:6], np.eye(6))
        assert np.array_equal(jac[6:], np.zeros((9, 6)))

    def test_single_tap_gradient(self):
        jac = analytic.moment_jacobian(np.array([0.3 + 0.7j]))
        assert np.allclose(jac, [[1, 0], [0, 1], [0.6, 1.4]])

    def test_finite_differences(self):
        g = random_taps(3, 100)
        jac = analytic.moment_jacobian(g)
        eps = 1e-5
        gr = np.concatenate([g.real, g.imag])

        def zmap(v):
            gv = v[:3] + 1j * v[3:]
            return np.concatenate([v, sos.free_vars(model.vec_outer(gv))])

        num = np.empty_like(jac)
        for i in range(6):
            e = np.zeros(6)
            e[i] = eps
            num[:, i] = (zmap(gr + e) - zmap(gr - e)) / (2 * eps)
        assert np.max(np.abs(jac - num)) <= 1e-6 * max(1.0, np.max(np.abs(jac)))


class TestMmErrorCovariance:
    def test_training_only_weight(self):
        p = params_for(users=16)
        g = random_taps(3, 101)
        sig, sg2 = analytic.mm_error_covariance(g, p, weight=0.0)
        assert np.allclose(sig, (p.noise_var / (2 * p.train_frac)) * np.eye(6))
        assert sg2 == pytest.approx(p.noise_var / p.train_frac, rel=1e-12)

    def test_stationarity_jacobians_fd(self):
        # dF/dg and dF/dz against central differences of the gradient of the
        # estimator's own cost, in real coordinates, at exact moments
        g = random_taps(3, 102)
        w = 0.6
        p = 3

        def cost(gr, gbar_r, dfree):
            d_mat = model.unvec(sos.free_vars_inverse(dfree), p)
            return estimators._mm_cost(
                gr[:p] + 1j * gr[p:], d_mat, gbar_r[:p] + 1j * gbar_r[p:], w
            )

        gr = np.concatenate([g.real, g.imag])
        z_d = sos.free_vars(model.vec_outer(g))
        eps = 1e-6

        def grad(gr_, zg_, zd_):
            out = np.empty(2 * p)
            for i in range(2 * p):
                e = np.zeros(2 * p)
                e[i] = eps
                out[i] = (cost(gr_ + e, zg_, zd_) - cost(gr_ - e, zg_, zd_)) / (2 * eps)
            return out

        hess, df_dz = analytic._stationarity_jacobians(g, w)
        hess_num = np.empty_like(hess)
        for i in range(2 * p):
            e = np.zeros(2 * p)
            e[i] = eps
            hess_num[:, i] = (grad(gr + e, gr, z_d) - grad(gr - e, gr, z_d)) / (2 * eps)
        assert np.max(np.abs(hess - hess_num)) <= 1e-6 * np.max(np.abs(hess))

        num = np.empty((2 * p, 2 * p + p * p))
        for i in range(2 * p):
            e = np.zeros(2 * p)
            e[i] = eps
            num[:, i] = (grad(gr, gr + e, z_d) - grad(gr, gr - e, z_d)) / (2 * eps)
        for i in range(p * p):
            e = np.zeros(p * p)
            e[i] = eps
            num[:, 2 * p + i] = (grad(gr, gr, z_d + e) - grad(gr, gr, z_d - e)) / (2 * eps)
        assert np.max(np.abs(df_dz - num)) <= 1e-6 * np.max(np.abs(df_dz))

    def test_end_to_end_monte_carlo(self):
        # K=16, N=64, P=3, beta=0.25, sigma=1, alpha=0.2, M=400, 100 trials:
        # empirical scaled MSE within 25% of the prediction (user-averaged),
        # about 15 standard errors of the trial average
        p = params_for(users=16, noise=1.0)
        gains = representative_channels(p, 103)
        w = analytic.plugin_weight(p)
        pred = analytic.mm_error_covariance(gains, p)[1]

        trials = 100
        err = np.zeros((trials, 16))
        for t in range(trials):
            chips, symbols, windows = draw_block(p, gains, seeded_rng(104, t))
            g_bar = estimators.training_estimate(windows, chips, symbols, p)
            rhs, gram = sos.build_normal_equations(windows, chips, p)
            d_hat = sos.estimate_sos(rhs, gram)
            fit = estimators.mm_semiblind(g_bar, d_hat, w)
            err[t] = np.sum(np.abs(fit.gains - gains) ** 2, axis=-1)
        emp = p.symbols * err.mean(axis=0) / p.taps
        assert np.mean(emp / pred) == pytest.approx(1.0, abs=0.25)


class TestMmLowerBound:
    def test_training_only_limit(self):
        p = params_for(train=400)
        bound = analytic.mm_lower_bound(random_taps(3, 105), p)
        assert np.allclose(bound, (p.noise_var / 2) * np.eye(6))

    def test_symmetric_psd(self):
        p = params_for(users=16)
        bound = analytic.mm_lower_bound(random_taps(3, 106), p)
        assert np.allclose(bound, bound.T)
        assert np.linalg.eigvalsh(bound).min() >= 0

    def test_bounds_mm_covariance(self):
        p = params_for(users=16)
        for i in range(50):
            g = random_taps(3, 107, i)
            sig, _ = analytic.mm_error_covariance(g, p)
            bound = analytic.mm_lower_bound(g, p)
            assert np.linalg.eigvalsh(sig - bound).min() >= -1e-8


class TestMmClosedForm:
    """The MM covariance against the sandwich, and its and the bound's
    eigenvalues in the frame of g.

    Rotating the frame so that g lies along its unit direction makes Omega
    diagonal, and the linearized MM cost decouples into a radial direction,
    the phase direction i*g and 2(P - 1) perpendicular ones.  With
    r^2 = ||g||^2, lam = s2 + beta, alpha = M_t/M and w the default weight,
    the radial and perpendicular variances are a weighted training term plus
    a weighted SOS term over the squared curvature; the phase direction sees
    only the training error.
    """

    @pytest.mark.parametrize("taps", [1, 2, 3, 4])
    @pytest.mark.parametrize("users,noise,train", [(16, 0.5, 80), (64, 2.0, 40), (8, 0.1, 200)])
    def test_eigenvalues(self, taps, users, noise, train):
        p = params_for(users=users, taps=taps, train=train, noise=noise)
        g = np.stack([random_taps(taps, 112, taps, i) for i in range(4)])
        r2 = np.sum(np.abs(g) ** 2, axis=-1)
        lam, a = noise + p.load, p.train_frac
        w = estimators.weight_w(a, noise, analytic.average_sos_variance(p))
        v_rad = (
            4 * w**2 * r2 * (lam**2 + 2 * lam * r2) / (1 - a) + (1 - w) ** 2 * noise / (2 * a)
        ) / (4 * w * r2 + 1 - w) ** 2
        v_ph = np.full_like(r2, noise / (2 * a))
        v_perp = (
            4 * w**2 * r2 * (lam**2 + lam * r2) / (1 - a) + (1 - w) ** 2 * noise / a
        ) / (2 * w * r2 + 1 - w) ** 2
        b_rad = 1 / (2 * a / noise + 4 * r2 * (1 - a) / (lam**2 + 2 * lam * r2))
        b_perp = 1 / (a / noise + r2 * (1 - a) / (lam**2 + lam * r2))

        def spectrum(rad, perp):
            perps = np.repeat(perp[:, None] / 2, 2 * (taps - 1), axis=1)
            return np.sort(np.column_stack([rad, v_ph, perps]), axis=1)

        sig, sg2 = analytic.mm_error_covariance(g, p)
        ref = mm_sandwich(g, p, w)
        assert np.max(np.abs(sig - ref)) <= 1e-12 * np.max(np.abs(ref))
        bound = analytic.mm_lower_bound(g, p)
        for got, want in [
            (np.linalg.eigvalsh(sig), spectrum(v_rad, v_perp)),
            (np.linalg.eigvalsh(bound), spectrum(b_rad, b_perp)),
            (sg2, (v_rad + v_ph + (taps - 1) * v_perp) / taps),
        ]:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


class TestBatchedCalls:
    """A (draws, P) stack gives, row for row, what one call per vector gives."""

    @staticmethod
    def draws(n=7):
        return np.stack([random_taps(3, 110, i) for i in range(n)])

    def test_matches_row_by_row(self):
        p = params_for(users=16)
        g = self.draws()
        sig, sg2 = analytic.mm_error_covariance(g, p)
        sos_cov = analytic.predict_sos_covariance(g, p)
        angle = analytic.predict_subspace_angle(g, p)
        omega = analytic.optimal_omega(g, p)
        mse = analytic.predict_subspace_mse(g, p, omega)
        eta = analytic.efficiency(sg2, p.noise_var, p.train_frac)
        for i, gi in enumerate(g):
            row_sig, row_sg2 = analytic.mm_error_covariance(gi, p)
            np.testing.assert_allclose(sig[i], row_sig, rtol=1e-13, atol=0)
            assert sg2[i] == pytest.approx(row_sg2, rel=1e-13)
            np.testing.assert_allclose(
                sos_cov[i], analytic.predict_sos_covariance(gi, p), rtol=1e-13, atol=0
            )
            assert angle[i] == pytest.approx(analytic.predict_subspace_angle(gi, p), rel=1e-13)
            row_omega = analytic.optimal_omega(gi, p)
            assert mse[i] == pytest.approx(
                analytic.predict_subspace_mse(gi, p, row_omega), rel=1e-13
            )
            assert eta[i] == pytest.approx(
                analytic.efficiency(row_sg2, p.noise_var, p.train_frac), rel=1e-13
            )

    @pytest.mark.parametrize("taps", [1, 2, 3, 4])
    def test_stack_contract(self, taps):
        # every public analytic function of a channel g, found by its first
        # parameter, and the free-variable maps take a stack and give, row
        # for row, what single calls give
        rng = seeded_rng(111, taps)
        g = np.stack([random_taps(taps, 111, taps, i) for i in range(4)])
        half = rng.standard_normal((4, taps, taps)) + 1j * rng.standard_normal((4, taps, taps))
        calls = [
            (sos.free_vars, (half @ half.conj().swapaxes(-1, -2)).reshape(4, -1), {}),
            (sos.free_vars_inverse, rng.standard_normal((4, taps * taps)), {}),
        ]
        known = {"params": params_for(users=16, taps=taps), "omega": 0.5}
        for name in analytic.__all__:
            fn = getattr(analytic, name)
            first, *rest = inspect.signature(fn).parameters.values()
            if first.name == "g":
                required = [q.name for q in rest if q.default is inspect.Parameter.empty]
                calls.append((fn, g, {q: known[q] for q in required}))
        assert len(calls) >= 9
        for fn, stack, kwargs in calls:
            stacked = fn(stack, **kwargs)
            for i, row in enumerate(stack):
                single = fn(row, **kwargs)
                pairs = zip(stacked, single) if isinstance(single, tuple) else [(stacked, single)]
                for whole, part in pairs:
                    diff = np.max(np.abs(np.asarray(whole)[i] - part))
                    assert diff <= 1e-14 * np.max(np.abs(part)), (fn.__name__, i, diff)

    def test_single_vector_gives_floats(self):
        p = params_for(users=16)
        g = self.draws(1)[0]
        assert isinstance(analytic.mm_error_covariance(g, p)[1], float)
        assert isinstance(analytic.predict_subspace_angle(g, p), float)
        assert isinstance(analytic.predict_subspace_mse(g, p, 0.5), float)

    def test_singular_hessian(self):
        # w = 1 drops the training term, so the cost is flat along the phase
        # rotation of g: one vector and a stack both raise
        p = params_for(users=16)
        g = self.draws()
        for channel in (g[0], g):
            with pytest.raises(SingularSystemError, match="phase of g is unobservable"):
                analytic.mm_error_covariance(channel, p, weight=1.0)


class TestEfficiency:
    def test_reference_points(self):
        assert analytic.efficiency(0.5 / 0.2, 0.5, 0.2) == pytest.approx(0.0, abs=1e-15)
        assert analytic.efficiency(0.5, 0.5, 0.2) == pytest.approx(1.0)
        assert analytic.efficiency(0.5 / (0.2 * 3), 0.5, 0.2) == pytest.approx(0.5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            analytic.efficiency(1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            analytic.efficiency(0.0, 0.5, 0.2)
