"""Tests for the closed-form error predictions and their Monte Carlo oracles."""

import math

import numpy as np
import pytest

from semiblind import analytic, estimators, model, sos
from semiblind.errors import ConfigError, SingularSystemError
from helpers import (
    draw_block,
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


class TestSosCovariance:
    def test_scalar_channel(self):
        p = params_for(taps=1)
        g = np.array([0.8 + 0.6j])
        out = analytic.predict_sos_covariance(g, p)
        lam = p.noise_var + p.load  # despread interference-plus-noise power
        assert out.omega[0, 0] == pytest.approx(2 * abs(g[0]) ** 2)
        expected = lam**2 + 2 * lam * abs(g[0]) ** 2
        assert out.sigma_dd[0, 0].real == pytest.approx(expected)

    def test_omega_diagonal(self):
        p = params_for()
        g = random_taps(3, 80)
        om = analytic.predict_sos_covariance(g, p).omega
        idx = np.arange(9)
        expect = np.abs(g[idx // 3]) ** 2 + np.abs(g[idx % 3]) ** 2
        assert np.allclose(np.diag(om).real, expect)
        assert np.allclose(np.diag(om).imag, 0.0)

    def test_hermitian_psd(self):
        p = params_for()
        for i in range(10):
            g = random_taps(3, 81, i)
            sig = analytic.predict_sos_covariance(g, p).sigma_dd
            assert np.allclose(sig, sig.conj().T)
            assert np.linalg.eigvalsh(sig).min() >= -1e-10

    def test_diagonal_floor(self):
        # the channel-independent floor c = lam^2 of lam^2 I + lam Omega
        p = params_for()
        out = analytic.predict_sos_covariance(random_taps(3, 82), p)
        floor = (p.noise_var + p.load) ** 2
        assert np.all(np.diag(out.sigma_dd).real >= floor - 1e-12)

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
            np.trace(analytic.predict_sos_covariance(random_taps(3, 83, i), p).sigma_dd).real / 9
            for i in range(1000)
        ]
        assert np.mean(traces) == pytest.approx(analytic.average_sos_variance(p), rel=0.02)


class TestPseudoCovariance:
    def test_scalar_identity(self):
        sig = np.array([[3.7 + 0j]])
        assert np.array_equal(analytic.sos_pseudo_covariance(sig), sig)

    def test_involution(self):
        p = params_for()
        sig = analytic.predict_sos_covariance(random_taps(3, 84), p).sigma_dd
        once = analytic.sos_pseudo_covariance(sig)
        assert np.allclose(analytic.sos_pseudo_covariance(once), sig)

    def test_diagonal_support(self):
        # with the isotropic floor removed, pseudo-covariance diagonals vanish
        # except at positions addressing diagonal entries of g g^H
        p = params_for()
        g = random_taps(3, 85)
        out = analytic.predict_sos_covariance(g, p)
        pseudo_omega = analytic.sos_pseudo_covariance(p.noise_var * out.omega)
        idx = np.arange(9)
        on_diag = idx // 3 == idx % 3
        assert np.allclose(np.diag(pseudo_omega)[~on_diag], 0.0, atol=1e-14)
        assert np.all(np.abs(np.diag(pseudo_omega)[on_diag]) > 0)


class TestRealCovariance:
    @staticmethod
    def build(g, p):
        out = analytic.predict_sos_covariance(g, p)
        pseudo = analytic.sos_pseudo_covariance(out.sigma_dd)
        return analytic.real_covariance(out.sigma_dd, pseudo, p)

    def test_scalar_channel(self):
        # P=1: the single free variable is real, so its variance is the full
        # complex variance
        p = params_for(taps=1)
        g = np.array([0.9 - 0.2j])
        real = self.build(g, p)
        sig = analytic.predict_sos_covariance(g, p).sigma_dd[0, 0].real
        assert real.sigma_df[0, 0] == pytest.approx(sig)
        assert real.sigma_zz.shape == (3, 3)
        assert real.sigma_zz[0, 0] == pytest.approx(p.noise_var / (2 * p.train_symbols))

    def test_symmetric_psd(self):
        p = params_for()
        for i in range(10):
            real = self.build(random_taps(3, 86, i), p)
            assert np.allclose(real.sigma_zz, real.sigma_zz.T)
            assert np.linalg.eigvalsh(real.sigma_zz).min() >= -1e-12

    def test_degenerate_configs_rejected(self):
        g = random_taps(3, 87)
        with pytest.raises(ConfigError):
            self.build(g, params_for(train=0))
        with pytest.raises(ConfigError):
            self.build(g, params_for(train=400))

    def test_training_block_scale(self):
        p = params_for()
        real = self.build(random_taps(3, 88), p)
        block = real.sigma_zz[:6, :6]
        assert np.allclose(block, (p.noise_var / 160) * np.eye(6))

    def test_empirical_observation_covariance(self):
        # end-to-end: empirical diag of the stacked real observation error
        # matches sigma_zz within 15% (K=16, N=64, P=2, M=400, M_t=80)
        p = params_for(users=16, taps=2, noise=4.0)
        gains = representative_channels(p, 90, user0_range=(0.8, 1.2))
        pred = self.build(gains[0], p).sigma_zz

        trials = 1000
        z_err = np.empty((trials, 2 * 2 + 4))
        for t in range(trials):
            chips, symbols, windows = draw_block(p, gains, seeded_rng(91, t))
            g_bar = estimators.training_estimate(windows, chips, symbols, p)
            rhs, _ = sos.build_normal_equations(
                chips, windows, range(80, 400), p.noise_var, include_gram=False
            )
            d0 = sos.hermitianize(sos.estimate_sos(rhs))[0]
            dg = g_bar[0] - gains[0]
            dd = sos.free_vars(d0) - sos.free_vars(model.vec_outer(gains[0]))
            z_err[t] = np.concatenate([dg.real, dg.imag, dd])
        emp = np.cov(z_err.T)
        ratio = np.diag(emp) / np.diag(pred)
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
        # K=32, N=64, M=400 with the exact normal-equation solve; the
        # empirical-to-predicted ratio varies a few percent with the channel
        # set, so average it over three sets; within 20%
        p = params_for()
        ratios = []
        for set_key in (160, 161, 162):
            gains = representative_channels(p, set_key, user0_range=(0.8, 1.2))
            g0 = gains[0]
            energy = np.linalg.norm(g0) ** 2
            draws = sos_trials(p, gains, 200, set_key + 10, mode="solve")
            sin2 = [
                1 - abs(estimators.principal_eigvec(d[0]).conj() @ g0) ** 2 / energy
                for d in draws
            ]
            emp = p.symbols * np.mean(sin2)
            ratios.append(emp / analytic.predict_subspace_angle(g0, p))
        assert np.mean(ratios) == pytest.approx(1.0, abs=0.20)


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


class TestOptimalOmega:
    def test_perfect_sos_limit(self):
        # zero angle variance makes full projection optimal
        assert analytic.optimal_omega(random_taps(3, 98), params_for(), angle_var=0.0) == 1.0

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
        # dF/dg and dF/dz against central differences of the cost gradient
        g = random_taps(3, 102)
        w = 0.6
        p = 3
        wts = sos.free_weights(p)

        def cost(gr, gbar_r, dfree):
            gv = gr[:p] + 1j * gr[p:]
            f = sos.free_vars(model.vec_outer(gv))
            return w * np.sum(wts * (f - dfree) ** 2) + (1 - w) * np.sum((gr - gbar_r) ** 2)

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
        # K=16, N=64, P=3, beta=0.25, sigma=1, alpha=0.2, M=400, 500 trials:
        # empirical scaled MSE within 25% of the prediction (user-averaged)
        p = params_for(users=16, noise=1.0)
        gains = representative_channels(p, 103)
        w = estimators.weight_w(p.train_frac, p.noise_var, analytic.average_sos_variance(p))
        pred = np.array([analytic.mm_error_covariance(gains[k], p)[1] for k in range(16)])

        trials = 500
        err = np.zeros((trials, 16))
        for t in range(trials):
            chips, symbols, windows = draw_block(p, gains, seeded_rng(104, t))
            g_bar = estimators.training_estimate(windows, chips, symbols, p)
            rhs, gram = sos.build_normal_equations(chips, windows, range(80, 400), p.noise_var)
            d_hat = sos.hermitianize(sos.estimate_sos(rhs, gram))
            for k in range(16):
                fit = estimators.mm_semiblind(g_bar[k], d_hat[k], w)
                err[t, k] = np.sum(np.abs(fit.gains - gains[k]) ** 2)
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


class TestBatchedCalls:
    """A (draws, P) stack gives, row for row, what one call per vector gives."""

    @staticmethod
    def draws(n=7):
        return np.stack([random_taps(3, 110, i) for i in range(n)])

    def test_matches_row_by_row(self):
        p = params_for(users=16)
        g = self.draws()
        sig, sg2 = analytic.mm_error_covariance(g, p)
        sos_cov = analytic.predict_sos_covariance(g, p).sigma_dd
        angle = analytic.predict_subspace_angle(g, p)
        omega = analytic.optimal_omega(g, p)
        mse = analytic.predict_subspace_mse(g, p, omega)
        eta = analytic.efficiency(sg2, p.noise_var, p.train_frac)
        for i, gi in enumerate(g):
            row_sig, row_sg2 = analytic.mm_error_covariance(gi, p)
            np.testing.assert_allclose(sig[i], row_sig, rtol=1e-13, atol=0)
            assert sg2[i] == pytest.approx(row_sg2, rel=1e-13)
            np.testing.assert_allclose(
                sos_cov[i], analytic.predict_sos_covariance(gi, p).sigma_dd, rtol=1e-13, atol=0
            )
            assert angle[i] == pytest.approx(analytic.predict_subspace_angle(gi, p), rel=1e-13)
            row_omega = analytic.optimal_omega(gi, p)
            assert mse[i] == pytest.approx(
                analytic.predict_subspace_mse(gi, p, row_omega), rel=1e-13
            )
            assert eta[i] == pytest.approx(
                analytic.efficiency(row_sg2, p.noise_var, p.train_frac), rel=1e-13
            )

    def test_single_vector_gives_floats(self):
        p = params_for(users=16)
        g = self.draws(1)[0]
        assert isinstance(analytic.mm_error_covariance(g, p)[1], float)
        assert isinstance(analytic.predict_subspace_angle(g, p), float)
        assert isinstance(analytic.predict_subspace_mse(g, p, 0.5), float)

    def test_singular_hessian(self):
        # w = 1 drops the training term, so the cost is flat along the phase
        # rotation of g and the stationarity Jacobian is singular
        p = params_for(users=16)
        g = self.draws()
        with pytest.raises(SingularSystemError):
            analytic.mm_error_covariance(g[0], p, weight=1.0)
        sig, sg2 = analytic.mm_error_covariance(g, p, weight=1.0)
        assert sig.shape == (7, 6, 6) and np.all(np.isnan(sig))
        assert sg2.shape == (7,) and np.all(np.isnan(sg2))

    def test_singular_rows_only_are_nan(self, monkeypatch):
        p = params_for(users=16)
        g = self.draws()
        w = estimators.weight_w(p.train_frac, p.noise_var, analytic.average_sos_variance(p))
        cond = np.linalg.cond(analytic._stationarity_jacobians(g, w)[0])
        monkeypatch.setattr(analytic, "_COND_LIMIT", np.median(cond))
        _, sg2 = analytic.mm_error_covariance(g, p)
        singular = cond > np.median(cond)
        assert 0 < singular.sum() < g.shape[0]
        assert np.array_equal(np.isnan(sg2), singular)


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
