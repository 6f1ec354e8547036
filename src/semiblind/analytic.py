"""Closed-form large-system error predictions for the SOS and channel estimators.

All covariances here are "per-symbol-count scaled": a matrix S describes
errors whose actual covariance over M samples is S/M.  That convention
matches the asymptotic statements being implemented and makes the figure
surfaces independent of the absolute block length.

Every prediction taking a channel vector ``g`` also takes a stack of them,
shape (..., P), and returns one result per vector; a single vector gives a
float where the result is a scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SingularSystemError
from .model import SystemParams
from .sos import free_slot_index, hermitian_basis, outer_free_jacobian

__all__ = [
    "SosErrorModel",
    "RealErrorModel",
    "predict_sos_covariance",
    "average_sos_variance",
    "sos_pseudo_covariance",
    "real_covariance",
    "predict_subspace_angle",
    "predict_subspace_mse",
    "optimal_omega",
    "moment_jacobian",
    "mm_error_covariance",
    "mm_lower_bound",
    "efficiency",
]

_COND_LIMIT = 1e12


@dataclass
class SosErrorModel:
    """Scaled covariance of one user's SOS estimation error.

    ``sigma_dd`` is the P^2 x P^2 Hermitian PSD matrix whose (i, j) entry is
    the scaled covariance between error components i and j; it decomposes as
    c*I + lam*omega with lam = noise_var + load the per-tap power of the
    despread interference plus noise, the channel-independent floor
    c = lam^2, and the rank-structured, channel-dependent ``omega``.
    """

    sigma_dd: np.ndarray  # (..., P^2, P^2) complex
    omega: np.ndarray  # (..., P^2, P^2) complex


@dataclass
class RealErrorModel:
    """Real covariance of the stacked observation (training est., free SOS vars).

    ``sigma_df`` is the scaled P^2 x P^2 covariance of the SOS free
    variables; ``sigma_zz`` the unscaled (2P+P^2)-dim covariance of the full
    observation error, block-diagonal with training block
    noise_var/(2 M_t) * I.
    """

    sigma_zz: np.ndarray
    sigma_df: np.ndarray


def _interference_power(params: SystemParams) -> float:
    """Per-tap interference-plus-noise power lam = s2 + beta after despreading.

    Each correlator output is a_k = g_k x_k + e_k where e_k collects the noise
    and the multiple-access interference; lam^2 is the channel-independent
    floor of the SOS error covariance and lam the scale of ``omega``.
    """
    return params.noise_var + params.load


def _energy(g: np.ndarray, nonzero: bool = False) -> np.ndarray:
    """||g||^2 of each vector of a (..., P) stack."""
    energy = (g * g.conj()).real.sum(axis=-1)
    if nonzero and np.any(energy == 0):
        raise ValueError("channel vector must be nonzero")
    return energy


def _scalar(x: np.ndarray) -> float | np.ndarray:
    return float(x) if x.ndim == 0 else x


def _omega_matrix(g: np.ndarray) -> np.ndarray:
    """Channel-dependent part of the SOS error covariance, (..., P^2, P^2).

    Index i of the vec'd error addresses matrix position
    (row, col) = (i mod P, i // P); the four cases are: both positions equal
    (sum of the two tap powers), matching rows (conjugate product of the
    column taps), matching columns (product of the row taps), else zero.
    """
    p = g.shape[-1]
    idx = np.arange(p * p)
    row, col = idx % p, idx // p
    same_row = row[:, None] == row[None, :]
    same_col = col[:, None] == col[None, :]
    gc = g.conj()
    om = np.where(
        same_col,
        g[..., row[:, None]] * gc[..., row[None, :]],
        np.where(same_row, gc[..., col[:, None]] * g[..., col[None, :]], 0),
    )
    om[..., idx, idx] = np.abs(g[..., col]) ** 2 + np.abs(g[..., row]) ** 2
    return om


def predict_sos_covariance(g: np.ndarray, params: SystemParams) -> SosErrorModel:
    """Scaled SOS error covariance lam^2*I + lam*Omega for one user's taps.

    With a_k = g_k x_k + e_k and e_k of per-tap power lam, the per-symbol
    covariance of vec(a_k a_k^H) is lam^2 I from e_k e_k^H plus lam*Omega(g_k)
    from the cross terms; |x_k|^2 = 1 (QPSK), so the own signal adds none.
    Its channel average lam^2 + 2*lam/P is :func:`average_sos_variance`.
    """
    g = np.asarray(g, dtype=complex)
    _energy(g, nonzero=True)
    lam = _interference_power(params)
    omega = _omega_matrix(g)
    sigma = lam * lam * np.eye(g.shape[-1] ** 2) + lam * omega
    return SosErrorModel(sigma_dd=sigma, omega=omega)


def average_sos_variance(params: SystemParams) -> float:
    """Average per-component SOS error variance over users and components.

    Equals lam^2 + 2*lam/P, the channel average of trace(Sigma)/P^2 for the
    covariance of :func:`predict_sos_covariance` at unit mean energy.
    """
    beta, s2, p = params.load, params.noise_var, params.taps
    return 2 * beta * s2 + s2 * s2 + beta * beta + 2 * (beta + s2) / p


def sos_pseudo_covariance(sigma_dd: np.ndarray) -> np.ndarray:
    """Scaled pseudo-covariance (no conjugate) of the SOS error.

    Because the reshaped error matrix is Hermitian, component pi(j) at the
    transposed position equals the conjugate of component j, so the
    pseudo-covariance is the covariance with its columns permuted by pi.
    """
    dim = sigma_dd.shape[-1]
    p = math.isqrt(dim)
    j = np.arange(dim)
    perm = (j % p) * p + j // p
    return sigma_dd[..., perm]


def real_covariance(
    sigma_dd: np.ndarray, pseudo: np.ndarray, params: SystemParams
) -> RealErrorModel:
    """Assemble the real observation covariance from (covariance, pseudo).

    For complex entries u, v with covariance C = E{u conj(v)} and
    pseudo-covariance R = E{u v}:

        cov(Re u, Re v) = (Re C + Re R) / 2
        cov(Im u, Im v) = (Re C - Re R) / 2
        cov(Re u, Im v) = (Im R - Im C) / 2
        cov(Im u, Re v) = (Im R + Im C) / 2

    restricted here to the canonical free-variable ordering.  Leading
    batch axes of the inputs carry through to both outputs.
    """
    if params.train_symbols == 0:
        raise ConfigError("degenerate configuration: no training symbols (M_t = 0)")
    if params.train_symbols == params.symbols:
        raise ConfigError("degenerate configuration: no information symbols (M_t = M)")
    taps = params.taps
    row, col, is_im = free_slot_index(taps)
    pos = col * taps + row  # free-slot positions in the vec'd matrix
    c_sub = sigma_dd[..., pos[:, None], pos[None, :]]
    r_sub = pseudo[..., pos[:, None], pos[None, :]]

    re_u = ~is_im[:, None]
    re_v = ~is_im[None, :]
    out = np.where(
        re_u & re_v,
        0.5 * (c_sub.real + r_sub.real),
        np.where(
            re_u & ~re_v,
            0.5 * (r_sub.imag - c_sub.imag),
            np.where(~re_u & re_v, 0.5 * (r_sub.imag + c_sub.imag),
                     0.5 * (c_sub.real - r_sub.real)),
        ),
    )
    sigma_df = 0.5 * (out + np.swapaxes(out, -1, -2))

    two_p = 2 * taps
    dim = two_p + taps * taps
    sigma_zz = np.zeros((*out.shape[:-2], dim, dim))
    sigma_zz[..., :two_p, :two_p] = (
        params.noise_var / (2.0 * params.train_symbols)
    ) * np.eye(two_p)
    sigma_zz[..., two_p:, two_p:] = sigma_df / (params.symbols - params.train_symbols)
    return RealErrorModel(sigma_zz=sigma_zz, sigma_df=sigma_df)


def predict_subspace_angle(g: np.ndarray, params: SystemParams) -> float:
    """Scaled mean squared sine of the angle between the leading SOS
    eigenvector and the channel direction.

    First-order perturbation of g g^H by an error E of covariance
    lam^2 I + lam Omega(g): sin^2 = ||(I - u u^H) E u||^2 / ||g||^4 with
    u = g/||g||, whose mean is (P-1)(lam^2 + lam ||g||^2) / ||g||^4.
    """
    energy = _energy(np.asarray(g, dtype=complex), nonzero=True)
    lam = _interference_power(params)
    return _scalar((params.taps - 1) * (lam * lam + lam * energy) / energy**2)


def _check_train_frac(params: SystemParams) -> float:
    alpha = params.train_frac
    if not 0 < alpha < 1:
        raise ConfigError(f"training fraction alpha={alpha} must lie in (0, 1)")
    return alpha


def predict_subspace_mse(
    g: np.ndarray,
    params: SystemParams,
    omega: float | np.ndarray,
    angle_var: float | None = None,
) -> float | np.ndarray:
    """Scaled per-tap MSE of the subspace estimator at combining weight omega.

    ``omega`` is a scalar or one weight per vector of ``g``.  ``angle_var``
    overrides the eigenvector-angle variance (e.g. 0 for the hypothetical
    perfect-subspace limit); by default it is predicted from g.
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0) or np.any(omega > 1):
        raise ValueError(f"omega={omega} must lie in [0, 1]")
    alpha = _check_train_frac(params)
    p, s2 = params.taps, params.noise_var
    g = np.asarray(g, dtype=complex)
    energy = _energy(g)
    theta2 = predict_subspace_angle(g, params) if angle_var is None else angle_var
    return _scalar(
        omega**2 * energy * (1 + 1 / p) * theta2 / ((1 - alpha) * p)
        + (1 - omega) ** 2 * (p - 1) * s2 / (p * alpha)
        + s2 / (p * alpha)
    )


def optimal_omega(
    g: np.ndarray, params: SystemParams, angle_var: float | None = None
) -> float | np.ndarray:
    """Minimizer of the subspace MSE quadratic, clamped to [0, 1].

    P = 1 leaves the MSE flat in omega (the projection step is vacuous) and
    returns 0 by convention; a perfect subspace (zero angle variance) makes
    full projection optimal, omega = 1.
    """
    alpha = _check_train_frac(params)
    p, s2 = params.taps, params.noise_var
    g = np.asarray(g, dtype=complex)
    energy = _energy(g)
    if p == 1:
        omega = np.zeros_like(energy)
    elif angle_var == 0:
        omega = np.ones_like(energy)
    else:
        if angle_var is None:
            angle_var = predict_subspace_angle(g, params)
        num = (p - 1) * s2 / alpha
        den = energy * (1 + 1 / p) * angle_var / (1 - alpha) + num
        omega = np.minimum(1.0, np.maximum(0.0, num / den))
    return _scalar(omega)


def moment_jacobian(g: np.ndarray) -> np.ndarray:
    """Derivative of the stacked observation map wrt the real channel vars.

    The observation maps the channel to (itself, free SOS variables); the
    top 2P x 2P block is the identity and the bottom rows are the gradients
    of the free variables of vec(g g^H), all linear in g.
    """
    g = np.asarray(g, dtype=complex)
    p = g.shape[0]
    return np.vstack([np.eye(2 * p), outer_free_jacobian(g)])


def _scaled_obs_covariance(g: np.ndarray, params: SystemParams) -> np.ndarray:
    """Block-scaled observation covariance entering the asymptotic sandwich.

    Equals (symbols count) times the unscaled observation covariance: the
    training block becomes noise_var/(2 alpha) I and the SOS block
    sigma_df/(1 - alpha).
    """
    model = predict_sos_covariance(g, params)
    pseudo = sos_pseudo_covariance(model.sigma_dd)
    real = real_covariance(model.sigma_dd, pseudo, params)
    return params.symbols * real.sigma_zz


def _stationarity_jacobians(
    g: np.ndarray, weight: float
) -> tuple[np.ndarray, np.ndarray]:
    """Jacobians of the moment-matching stationarity map F at the true point.

    Returns (dF/dg_real, dF/dz_real) evaluated at g with exact moments, for
    the cost w ||vec(g g^H) - d||^2 + (1 - w) ||g - g_bar||^2; shapes
    (..., 2P, 2P) and (..., 2P, 2P + P^2).
    """
    g = np.asarray(g, dtype=complex)
    p = g.shape[-1]
    a, b = g.real[..., :, None], g.imag[..., :, None]
    d_mat = g[..., :, None] * g.conj()[..., None, :]
    diag = _energy(g)[..., None, None] * np.eye(p) - d_mat.real

    h_aa = 4 * weight * (2 * a * a.swapaxes(-1, -2) + diag)
    h_bb = 4 * weight * (2 * b * b.swapaxes(-1, -2) + diag)
    h_ab = 4 * weight * (2 * a * b.swapaxes(-1, -2) + d_mat.imag)
    h_ba = 4 * weight * (2 * b * a.swapaxes(-1, -2) - d_mat.imag)
    hess = np.block([[h_aa, h_ab], [h_ba, h_bb]])
    hess += 2 * (1 - weight) * np.eye(2 * p)

    bg = np.einsum("sij,...j->...si", hermitian_basis(p), g)  # (..., P^2, P)
    df_dfree = -4 * weight * np.concatenate([bg.real, bg.imag], axis=-1).swapaxes(-1, -2)
    eye = np.broadcast_to(-2 * (1 - weight) * np.eye(2 * p), df_dfree.shape[:-1] + (2 * p,))
    return hess, np.concatenate([eye, df_dfree], axis=-1)


def mm_error_covariance(
    g: np.ndarray, params: SystemParams, weight: float | None = None
) -> tuple[np.ndarray, float]:
    """Scaled error covariance of the moment-matching estimator at channel g.

    Returns (Sigma, sigma_g2) where Sigma is the 2P x 2P real covariance of
    the stacked (Re, Im) channel error and sigma_g2 = trace(Sigma)/P its
    per-tap summary.  ``weight`` defaults to the plug-in weighting factor.

    Where the stationarity Jacobian's condition number is non-finite or
    above 1e12, a single vector raises :class:`SingularSystemError` and a
    stack fills that entry's Sigma and sigma_g2 with NaN.
    """
    alpha = _check_train_frac(params)
    if weight is None:
        from .estimators import weight_w

        weight = weight_w(alpha, params.noise_var, average_sos_variance(params))
    hess, df_dz = _stationarity_jacobians(g, weight)
    cond = np.linalg.cond(hess)
    singular = ~np.isfinite(cond) | (cond > _COND_LIMIT)
    if cond.ndim == 0 and singular:
        raise SingularSystemError(
            "stationarity Jacobian is singular at this channel", condition=float(cond)
        )
    # singular entries solve against the identity, then read NaN
    hess[singular] = np.eye(hess.shape[-1])
    sens = -np.linalg.solve(hess, df_dz)
    sigma = sens @ _scaled_obs_covariance(g, params) @ sens.swapaxes(-1, -2)
    sigma = 0.5 * (sigma + sigma.swapaxes(-1, -2))
    sigma[singular] = np.nan
    return sigma, _scalar(np.trace(sigma, axis1=-2, axis2=-1) / params.taps)


def mm_lower_bound(g: np.ndarray, params: SystemParams) -> np.ndarray:
    """Scaled covariance floor for any estimator built on the same moments.

    In the no-information-symbols limit (M_t = M) the SOS block carries no
    information and the bound reduces to the training covariance
    noise_var/(2 alpha) I.
    """
    p = params.taps
    if params.train_symbols == params.symbols:
        return (params.noise_var / 2.0) * np.eye(2 * p)
    jac = moment_jacobian(g)
    cov = _scaled_obs_covariance(g, params)
    try:
        info = jac.T @ np.linalg.solve(cov, jac)
        bound = np.linalg.inv(info)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "observation covariance or information matrix is singular",
            condition=float(np.linalg.cond(cov)),
        ) from exc
    return 0.5 * (bound + bound.T)


def efficiency(sigma_g2, sigma_n2: float, alpha: float) -> float | np.ndarray:
    """Training-symbol worth of each information symbol, per entry of sigma_g2."""
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha={alpha} must lie in (0, 1)")
    if np.any(np.asarray(sigma_g2) <= 0):
        raise ValueError("sigma_g2 must be positive")
    return (sigma_n2 / sigma_g2 - alpha) / (1 - alpha)
