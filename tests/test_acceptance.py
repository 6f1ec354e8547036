"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Monte Carlo criteria condition on a fixed, representative channel set
(average per-user energy within 2% of its mean 1) and redraw codes, symbols
and noise every trial; that is the ensemble over which the asymptotic
covariances are stated.  All seeds are fixed, so the suite is deterministic.
"""

import math
import time

import numpy as np
import pytest

from semiblind import analytic, estimators, harness, model, sos
from helpers import (
    brute_force_system,
    dense_gram,
    draw_block,
    gram_only,
    representative_channels,
    scaled_covariance,
    seeded_rng,
    sos_trials,
)

SALT = 2764  # master salt for acceptance seeds


def report(num: int, clauses: list[tuple[str, bool, str]]) -> None:
    """Print the per-criterion verdict and fail the test on any false clause."""
    ok = all(flag for _, flag, _ in clauses)
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'}")
    for label, flag, detail in clauses:
        print(f"  [{'ok' if flag else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {num} failed: " + "; ".join(
        label for label, flag, _ in clauses if not flag
    )


# ---------------------------------------------------------------------------
# shared 500-trial identity-T run for criteria 1 and 2
# (K=32, N=64, P=3, sigma_n2=0.5, M=400)
# ---------------------------------------------------------------------------

C12_PARAMS = model.SystemParams(
    users=32, gain=64, taps=3, symbols=400, train_symbols=0, noise_var=0.5
)
C12_TRIALS = 500


@pytest.fixture(scope="module")
def identity_run():
    gains = representative_channels(
        C12_PARAMS, SALT, 12, user0_range=(0.95, 1.05)
    )
    start = time.time()
    estimates = sos_trials(C12_PARAMS, gains, C12_TRIALS, SALT, 120, mode="identity")
    return gains, estimates, time.time() - start


def test_criterion_01_average_sos_variance(identity_run):
    gains, estimates, elapsed = identity_run
    closed = analytic.average_sos_variance(C12_PARAMS)
    exact_ok = abs(closed - 5 / 3) <= 2 * math.ulp(5 / 3)

    total = 0.0
    for k in range(C12_PARAMS.users):
        cov = scaled_covariance(estimates[:, k, :] - model.vec_outer(gains[k]), C12_PARAMS.symbols)
        total += np.trace(cov).real
    emp = total / (C12_PARAMS.users * C12_PARAMS.taps**2)
    emp_ok = abs(emp / (5 / 3) - 1) < 0.15
    time_ok = elapsed < 300

    report(
        1,
        [
            ("closed form equals 5/3", exact_ok, f"value {closed!r}"),
            ("empirical within 15%", emp_ok, f"{emp:.4f} vs 5/3 (ratio {emp/(5/3):.3f})"),
            ("runtime <= 5 min", time_ok, f"{elapsed:.0f}s for {C12_TRIALS} trials"),
        ],
    )


def test_criterion_02_sos_covariance_structure(identity_run):
    gains, estimates, _ = identity_run
    g0 = gains[0]
    pred = analytic.predict_sos_covariance(g0, C12_PARAMS)
    emp = scaled_covariance(estimates[:, 0, :] - model.vec_outer(gains[0]), C12_PARAMS.symbols)

    diag_ratio = np.diag(emp).real / np.diag(pred).real
    diag_ok = bool(np.all(np.abs(diag_ratio - 1) < 0.15))

    taps = C12_PARAMS.taps
    idx = np.arange(taps * taps)
    row, col = idx % taps, idx // taps
    lam = C12_PARAMS.noise_var + C12_PARAMS.load  # pred = lam^2 I + lam Omega
    omega = (pred - lam * lam * np.eye(taps * taps)) / lam
    off = (np.abs(omega) > 1e-12) & ~np.eye(taps * taps, dtype=bool)

    sign_ok = bool(np.all(np.real(emp[off] * pred[off].conj()) > 0))

    # magnitude per nonzero-case family: least-squares scale of the empirical
    # entries on the predicted ones
    lam = {}
    for name, fam in (
        ("row-match", off & (row[:, None] == row[None, :])),
        ("col-match", off & (col[:, None] == col[None, :])),
    ):
        lam[name] = float(
            np.real(np.vdot(pred[fam], emp[fam])) / np.real(np.vdot(pred[fam], pred[fam]))
        )
    mag_ok = all(abs(v - 1) < 0.30 for v in lam.values())

    report(
        2,
        [
            (
                "diagonal per-entry within 15%",
                diag_ok,
                f"ratios {np.round(diag_ratio, 3).tolist()}",
            ),
            ("off-diagonal predicted sign", sign_ok, "Re<emp, pred> > 0 per entry"),
            (
                "off-diagonal magnitude within 30%",
                mag_ok,
                f"scale row-match {lam['row-match']:.3f}, col-match {lam['col-match']:.3f}",
            ),
        ],
    )


def test_criterion_03_gram_identity_trend():
    means = []
    for gain, symbols in [(32, 100), (64, 400), (128, 1600)]:
        params = model.SystemParams(
            users=round(0.25 * gain), gain=gain, taps=3, symbols=symbols
        )
        dim = params.users * 9
        devs = [
            np.max(np.abs(gram_only(params, seeded_rng(SALT, 3, gain, s)) - np.eye(dim)))
            for s in range(20)
        ]
        means.append(float(np.mean(devs)))
    ok = means[0] > means[1] > means[2]
    report(
        3,
        [
            (
                "mean max|T - I| strictly decreasing over (N, M)",
                ok,
                f"{[round(m, 4) for m in means]} for (32,100),(64,400),(128,1600)",
            )
        ],
    )


def test_criterion_04_gram_conditioning():
    params = model.SystemParams(users=16, gain=64, taps=3, symbols=400)
    conds = np.array(
        [
            np.linalg.cond(gram_only(params, seeded_rng(SALT, 4, s)))
            for s in range(50)
        ]
    )
    frac = float(np.mean(conds < 100))
    report(
        4,
        [
            (
                "cond(T) < 100 in >= 95% of 50 seeds",
                frac >= 0.95,
                f"fraction {frac:.2%}, worst cond {conds.max():.1f}",
            )
        ],
    )


def test_criterion_05_subspace_baselines():
    params = model.SystemParams(
        users=16, gain=64, taps=3, symbols=400, train_symbols=80, noise_var=0.5
    )
    alpha, s2 = params.train_frac, params.noise_var
    g_ref = representative_channels(params, SALT, 5)[0]

    base = analytic.predict_subspace_mse(g_ref, params, 0.0)
    base_ok = abs(base - s2 / alpha) <= 1e-12 * (s2 / alpha)
    perfect = analytic.predict_subspace_mse(g_ref, params, 1.0, angle_var=0.0)
    perfect_ok = abs(perfect - s2 / (alpha * params.taps)) <= 1e-12 * perfect

    gains = representative_channels(params, SALT, 50)
    trials = 500
    err = np.zeros((trials, params.users))
    for t in range(trials):
        chips, symbols, windows = draw_block(params, gains, seeded_rng(SALT, 51, t))
        g_bar = estimators.training_estimate(windows, chips, symbols, params)
        rhs, _ = sos.build_normal_equations(windows, chips, params, include_gram=False)
        d_hat = sos.hermitianize(sos.estimate_sos(rhs))
        for k in range(params.users):
            fit = estimators.subspace_semiblind(g_bar[k], d_hat[k], 0.0)
            err[t, k] = np.sum(np.abs(fit.gains - gains[k]) ** 2)
    emp = float(params.symbols * err.mean() / params.taps)
    emp_ok = abs(emp / (s2 / alpha) - 1) < 0.10

    report(
        5,
        [
            ("analytic omega=0 equals sigma_n2/alpha", base_ok, f"{base!r}"),
            (
                "analytic perfect-SOS omega=1 equals sigma_n2/(alpha P)",
                perfect_ok,
                f"{perfect!r}",
            ),
            (
                "empirical omega=0 within 10% of sigma_n2/alpha",
                emp_ok,
                f"{emp:.3f} vs {s2/alpha} (ratio {emp/(s2/alpha):.3f})",
            ),
        ],
    )


FIG_SIGMAS = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0)
FIG_BETAS = (0.25, 0.5, 0.75, 1.0)


def test_criterion_06_mm_noise_peak_and_load_monotonicity():
    config = harness.ExperimentConfig(
        gain=64, symbols=400, beta=FIG_BETAS, sigma_n2=FIG_SIGMAS, taps=(3,),
        alpha=(0.2,), estimator="mm", draws=200, seed=SALT,
    )
    records, failures = harness.predict(config)
    assert not failures
    eta = {(r.beta, r.sigma_n2): r.eta_ana for r in records}

    small = [eta[(0.25, s)] for s in FIG_SIGMAS]
    peak_idx = int(np.argmax(small))
    peak_interior = 0 < peak_idx < len(FIG_SIGMAS) - 1
    peak_sigma_ok = 0.5 <= FIG_SIGMAS[peak_idx] <= 2.0
    peak_value_ok = 0.15 <= small[peak_idx] <= 0.45

    violations = sum(
        1
        for s in FIG_SIGMAS
        for lo, hi in zip(FIG_BETAS, FIG_BETAS[1:])
        if eta[(hi, s)] > eta[(lo, s)] + 1e-12
    )
    report(
        6,
        [
            (
                "interior max at sigma_n2 in [0.5, 2]",
                peak_interior and peak_sigma_ok,
                f"peak at sigma_n2={FIG_SIGMAS[peak_idx]}",
            ),
            ("peak eta in [0.15, 0.45]", peak_value_ok, f"peak {small[peak_idx]:.3f}"),
            ("eta non-increasing in beta (<= 1 violation)", violations <= 1,
             f"{violations} violations"),
        ],
    )


def test_criterion_07_mm_sign_reversal():
    config = harness.ExperimentConfig(
        gain=64, symbols=400, beta=(0.5,), sigma_n2=(0.5,), taps=(2, 8),
        alpha=(0.1, 0.6), estimator="mm", draws=200, seed=SALT,
    )
    records, failures = harness.predict(config)
    assert not failures
    eta = {(r.P, r.alpha): r.eta_ana for r in records}
    report(
        7,
        [
            ("eta < 0 at (alpha=0.6, P=8)", eta[(8, 0.6)] < 0, f"{eta[(8, 0.6)]:.4f}"),
            ("eta > 0 at (alpha=0.1, P=2)", eta[(2, 0.1)] > 0, f"{eta[(2, 0.1)]:.4f}"),
        ],
    )


def test_criterion_08_subspace_surfaces():
    fig3 = harness.ExperimentConfig(
        gain=64, symbols=400, beta=FIG_BETAS, sigma_n2=FIG_SIGMAS, taps=(3,),
        alpha=(0.1,), estimator="subspace", draws=200, seed=SALT,
    )
    rec3, fail3 = harness.predict(fig3)
    assert not fail3
    eta3 = {(r.beta, r.sigma_n2): r.eta_ana for r in rec3}
    pos3 = all(v > 0 for v in eta3.values())
    interior = []
    for b in FIG_BETAS:
        row = [eta3[(b, s)] for s in FIG_SIGMAS]
        peak = int(np.argmax(row))
        interior.append(0 < peak < len(FIG_SIGMAS) - 1)

    alphas = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    taps = (2, 3, 4, 5, 6, 7, 8)
    fig4 = harness.ExperimentConfig(
        gain=64, symbols=400, beta=(0.5,), sigma_n2=(0.5,), taps=taps,
        alpha=alphas, estimator="subspace", draws=200, seed=SALT,
    )
    rec4, fail4 = harness.predict(fig4)
    assert not fail4
    eta4 = {(r.P, r.alpha): r.eta_ana for r in rec4}
    pos4 = all(v > 0 for v in eta4.values())
    inc_alpha = all(
        eta4[(p, hi)] >= eta4[(p, lo)] for p in taps
        for lo, hi in zip(alphas, alphas[1:])
    )
    inc_taps = all(
        eta4[(hi, a)] >= eta4[(lo, a)] for a in alphas
        for lo, hi in zip(taps, taps[1:])
    )
    report(
        8,
        [
            ("eta > 0 on the load/noise grid", pos3, f"min {min(eta3.values()):.4f}"),
            ("interior noise maximum per load row", all(interior), f"{interior}"),
            ("eta > 0 on the order/training grid", pos4, f"min {min(eta4.values()):.4f}"),
            ("eta increasing in alpha", inc_alpha, ""),
            ("eta increasing in P", inc_taps, ""),
        ],
    )


def test_criterion_09_subspace_angle():
    params = model.SystemParams(
        users=32, gain=64, taps=3, symbols=400, train_symbols=0, noise_var=0.5
    )
    gains = representative_channels(params, SALT, 9, user0_range=(0.8, 1.2))
    g0 = gains[0]
    energy = float(np.linalg.norm(g0) ** 2)
    predicted = analytic.predict_subspace_angle(g0, params)

    estimates = sos_trials(params, gains, 500, SALT, 90, mode="solve")
    sin2 = [
        1 - abs(estimators.principal_eigvec(d[0]).conj() @ g0) ** 2 / energy
        for d in estimates
    ]
    emp = float(params.symbols * np.mean(sin2))
    ok = abs(emp / predicted - 1) < 0.25
    report(
        9,
        [
            (
                "scaled E{sin^2 theta} within 25% of prediction",
                ok,
                f"emp {emp:.3f} vs pred {predicted:.3f} at ||g||^2={energy:.3f}"
                f" (ratio {emp/predicted:.3f})",
            )
        ],
    )


def test_criterion_10_bound_ordering():
    grid = [
        model.SystemParams(users=16, gain=64, taps=3, symbols=400, train_symbols=80, noise_var=0.5),
        model.SystemParams(users=32, gain=64, taps=3, symbols=400, train_symbols=80, noise_var=1.0),
        model.SystemParams(users=16, gain=64, taps=2, symbols=400, train_symbols=40, noise_var=2.0),
    ]
    worst = np.inf
    for idx, params in enumerate(grid):
        rng = seeded_rng(SALT, 10, idx)
        for _ in range(50):
            g = (rng.standard_normal(params.taps) + 1j * rng.standard_normal(params.taps))
            g /= np.sqrt(2 * params.taps)
            sigma, _ = analytic.mm_error_covariance(g, params)
            bound = analytic.mm_lower_bound(g, params)
            worst = min(worst, float(np.linalg.eigvalsh(sigma - bound).min()))
    report(
        10,
        [
            (
                "lower bound <= covariance in PSD order (min eig >= -1e-8)",
                worst >= -1e-8,
                f"worst eigenvalue {worst:.2e} over 150 channels",
            )
        ],
    )


def test_criterion_11_numerical_hygiene():
    clauses = []

    # analytic Jacobians vs central finite differences
    g = (seeded_rng(SALT, 110).standard_normal(3)
         + 1j * seeded_rng(SALT, 111).standard_normal(3)) / np.sqrt(6)
    params = model.SystemParams(
        users=16, gain=64, taps=3, symbols=400, train_symbols=80, noise_var=0.5
    )
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
    jac_err = np.max(np.abs(jac - num)) / np.max(np.abs(jac))
    clauses.append(("moment Jacobian matches FD to 1e-6", jac_err < 1e-6, f"rel {jac_err:.1e}"))

    w = 0.6
    wts = sos.free_weights(3)

    def cost(v, zg, zd):
        gv = v[:3] + 1j * v[3:]
        f = sos.free_vars(model.vec_outer(gv))
        return w * np.sum(wts * (f - zd) ** 2) + (1 - w) * np.sum((v - zg) ** 2)

    def grad(v, zg, zd):
        out = np.empty(6)
        for i in range(6):
            e = np.zeros(6)
            e[i] = 1e-6
            out[i] = (cost(v + e, zg, zd) - cost(v - e, zg, zd)) / 2e-6
        return out

    hess, df_dz = analytic._stationarity_jacobians(g, w)
    z_d = sos.free_vars(model.vec_outer(g))
    hess_num = np.empty_like(hess)
    for i in range(6):
        e = np.zeros(6)
        e[i] = 1e-6
        hess_num[:, i] = (grad(gr + e, gr, z_d) - grad(gr - e, gr, z_d)) / 2e-6
    hess_err = np.max(np.abs(hess - hess_num)) / np.max(np.abs(hess))
    clauses.append(("stationarity Hessian matches FD to 1e-6", hess_err < 1e-6, f"rel {hess_err:.1e}"))

    dz_num = np.empty((6, 15))
    for i in range(6):
        e = np.zeros(6)
        e[i] = 1e-6
        dz_num[:, i] = (grad(gr, gr + e, z_d) - grad(gr, gr - e, z_d)) / 2e-6
    for i in range(9):
        e = np.zeros(9)
        e[i] = 1e-6
        dz_num[:, 6 + i] = (grad(gr, gr, z_d + e) - grad(gr, gr, z_d - e)) / 2e-6
    dz_err = np.max(np.abs(df_dz - dz_num)) / np.max(np.abs(df_dz))
    clauses.append(("observation Jacobian matches FD to 1e-6", dz_err < 1e-6, f"rel {dz_err:.1e}"))

    # hermitianize idempotent, free-variable round trip exact
    rng = seeded_rng(SALT, 112)
    d = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    once = sos.hermitianize(d)
    herm_ok = np.array_equal(sos.hermitianize(once), once)
    clauses.append(("hermitianize idempotent", herm_ok, ""))
    rt = sos.free_vars_inverse(sos.free_vars(once))
    clauses.append(("free-variable round trip", np.allclose(rt, once, atol=1e-14), ""))

    # structured normal equations vs explicit Kronecker construction
    worst = 0.0
    for users, gain, taps in [(1, 6, 2), (2, 8, 3), (3, 10, 3), (3, 9, 2)]:
        p_small = model.SystemParams(
            users=users, gain=gain, taps=taps, symbols=4, noise_var=0.3
        )
        gains = model.sample_channel(p_small, seeded_rng(SALT, 113, users, gain))
        chips, _, windows = draw_block(p_small, gains, seeded_rng(SALT, 114, users, gain))
        rhs, blocks = sos.build_normal_equations(windows, chips, p_small)
        gram = dense_gram(blocks)
        gram_ref, rhs_ref = brute_force_system(p_small, chips, windows, 0.3)
        worst = max(
            worst,
            np.max(np.abs(gram - gram_ref)) / np.max(np.abs(gram_ref)),
            np.max(np.abs(rhs - rhs_ref)) / np.max(np.abs(rhs_ref)),
        )
    clauses.append(("structured build equals Kronecker oracle to 1e-12", worst <= 1e-12,
                    f"worst rel {worst:.1e}"))

    # subspace phase invariance (exact combination identity)
    gbar = g + 0.1 * (seeded_rng(SALT, 115).standard_normal(3)
                      + 1j * seeded_rng(SALT, 116).standard_normal(3))
    d_exact = model.vec_outer(g)
    u = estimators.principal_eigvec(d_exact)
    ref = estimators.subspace_semiblind(gbar, d_exact, 0.6).gains
    phase_ok = all(
        np.allclose(0.6 * ((np.exp(1j * phi) * u).conj() @ gbar) * (np.exp(1j * phi) * u)
                    + 0.4 * gbar, ref, atol=1e-14)
        for phi in (0.7, -1.9, 2.4)
    )
    clauses.append(("subspace estimate invariant to eigenvector phase", phase_ok, ""))

    # moment-matching accepted costs are non-increasing
    mono = True
    for i in range(5):
        gk = (seeded_rng(SALT, 117, i).standard_normal(3)
              + 1j * seeded_rng(SALT, 118, i).standard_normal(3)) / np.sqrt(6)
        noisy = sos.hermitianize(
            model.vec_outer(gk)
            + 0.3 * (seeded_rng(SALT, 119, i).standard_normal(9)
                     + 1j * seeded_rng(SALT, 119, i).standard_normal(9))
        )
        fit = estimators.mm_semiblind(gk, noisy, 0.7)
        mono &= bool(np.all(np.diff(fit.diagnostics.cost_trace) <= 1e-15))
    clauses.append(("moment-matching cost monotone per accepted step", mono, ""))

    # full sweep reproducibility from the seed
    config = harness.ExperimentConfig(
        gain=32, symbols=40, beta=(0.25,), sigma_n2=(0.5,), taps=(2,),
        alpha=(0.25,), trials=2, seed=SALT, estimator="all", draws=10,
    )
    rec_a, _ = harness.run_sweep(config)
    rec_b, _ = harness.run_sweep(config)
    clauses.append(("sweep reproducible from seed", rec_a == rec_b, ""))

    report(11, clauses)
