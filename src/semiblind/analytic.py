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

import numpy as np

from . import estimators
from .errors import SingularSystemError
from .model import SystemParams, _check_train_frac, _check_unit_weight
from .sos import free_weights, hermitian_basis, outer_free_jacobian

__all__ = [
    "predict_sos_covariance",
    "average_sos_variance",
    "plugin_weight",
    "real_covariance",
    "predict_subspace_angle",
    "predict_subspace_mse",
    "optimal_omega",
    "moment_jacobian",
    "mm_error_covariance",
    "mm_lower_bound",
    "efficiency",
]


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

    With G = g g^H and the column-stacked vec, Omega = conj(G) (x) I + I (x) G:
    errors at positions sharing a column covary through G, those sharing a
    row through conj(G), and both at once (the diagonal) through the sum.
    ``np.kron`` of a (..., P, P) stack with I gives one product per matrix.
    """
    gram = g[..., :, None] * g[..., None, :].conj()
    eye = np.eye(g.shape[-1])
    return np.kron(gram.conj(), eye) + np.kron(eye, gram)


def predict_sos_covariance(g: np.ndarray, params: SystemParams) -> np.ndarray:
    """Scaled SOS error covariance lam^2*I + lam*Omega for one user's taps.

    With a_k = g_k x_k + e_k and e_k of per-tap power lam, the per-symbol
    covariance of vec(a_k a_k^H) is lam^2 I from e_k e_k^H plus lam*Omega(g_k)
    from the cross terms; |x_k|^2 = 1 (QPSK), so the own signal adds none.
    Returns the (..., P^2, P^2) Hermitian PSD matrix; its channel average
    of trace/P^2, lam^2 + 2*lam/P, is :func:`average_sos_variance`.
    """
    g = np.asarray(g, dtype=complex)
    _energy(g, nonzero=True)
    lam = _interference_power(params)
    return lam * lam * np.eye(g.shape[-1] ** 2) + lam * _omega_matrix(g)


def average_sos_variance(params: SystemParams) -> float:
    """Average per-component SOS error variance over users and components.

    Equals lam^2 + 2*lam/P, the channel average of trace(Sigma)/P^2 for the
    covariance of :func:`predict_sos_covariance` at unit mean energy.
    """
    lam = _interference_power(params)
    return lam * lam + 2 * lam / params.taps


def plugin_weight(params: SystemParams) -> float:
    """The plug-in moment-matching weight w, at the channel-averaged SOS variance."""
    return estimators.weight_w(params.train_frac, params.noise_var, average_sos_variance(params))


def real_covariance(sigma_dd: np.ndarray, params: SystemParams) -> np.ndarray:
    """Real covariance of the stacked observation (training est., free SOS vars).

    The free variables of a Hermitian error E are f = A vec(E) with
    A = hermitian_basis reshaped to (P^2, P^2) over the free weights
    (f_s = tr(B_s E) / w_s), so the scaled SOS covariance ``sigma_dd`` gives
    them the scaled real covariance (A sigma_dd A^H).real.  Returns the
    unscaled (2P + P^2)-dim covariance, block-diagonal with training block
    noise_var/(2 M_t) * I and SOS block (A sigma_dd A^H).real / (M - M_t).
    Leading batch axes carry through.
    """
    _check_train_frac(params.train_frac)
    taps = params.taps
    two_p, dim = 2 * taps, taps * taps
    free_map = hermitian_basis(taps).reshape(dim, dim) / free_weights(taps)[:, None]
    sigma_df = (free_map @ sigma_dd @ free_map.conj().T).real
    sigma_zz = np.zeros((*sigma_df.shape[:-2], two_p + dim, two_p + dim))
    sigma_zz[..., :two_p, :two_p] = (
        params.noise_var / (2.0 * params.train_symbols)
    ) * np.eye(two_p)
    sigma_zz[..., two_p:, two_p:] = sigma_df / (params.symbols - params.train_symbols)
    return sigma_zz


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


def _subspace_terms(g: np.ndarray, params: SystemParams, angle_var: float | None) -> tuple:
    """Terms (A, B, C) of the subspace MSE quadratic P*MSE = w^2 A + (1-w)^2 B + C.

    With the training estimate g_bar = g + e and u the estimated eigenvector,
    g_hat - g = u u^H e + (I - u u^H)[(1 - w) e - w g].  The training error
    e does not depend on u, so the cross term has zero mean, and
    P*MSE = w^2 ||g||^2 M E{sin^2 theta} + (1 - w)^2 (P - 1) s2/alpha + s2/alpha:
    A = ||g||^2 theta^2 / (1 - alpha) is the projection error, theta^2 the
    angle variance scaled by the M - M_t information symbols (``angle_var``
    or, by default, predicted from g), B = (P - 1) s2 / alpha the training
    error that the projection removes and C = s2 / alpha the floor both keep.
    """
    alpha = _check_train_frac(params.train_frac)
    p, s2 = params.taps, params.noise_var
    g = np.asarray(g, dtype=complex)
    if angle_var is None:
        angle_var = predict_subspace_angle(g, params)
    return _energy(g) * angle_var / (1 - alpha), (p - 1) * s2 / alpha, s2 / alpha


def predict_subspace_mse(
    g: np.ndarray,
    params: SystemParams,
    omega: float | np.ndarray,
    angle_var: float | None = None,
) -> float | np.ndarray:
    """Scaled per-tap MSE of the subspace estimator at combining weight omega.

    ``omega`` is a scalar or one weight per vector of ``g``, checked by
    :func:`model._check_unit_weight`.  ``angle_var`` overrides the
    eigenvector-angle variance (e.g. 0 for the hypothetical perfect-subspace
    limit); by default it is predicted from g.
    """
    omega = _check_unit_weight("omega", omega)
    proj, train, floor = _subspace_terms(g, params, angle_var)
    # omega = 0 drops the projection term, also where A overflows (0 * inf would be nan)
    spread = np.multiply(omega**2, proj, out=np.zeros_like(omega + proj), where=omega > 0)
    return _scalar((spread + (1 - omega) ** 2 * train + floor) / params.taps)


def optimal_omega(g: np.ndarray, params: SystemParams) -> float | np.ndarray:
    """Minimizer B/(A + B) of the subspace MSE quadratic, 0 where A + B = 0.

    With A, B >= 0 it lies in [0, 1]: P = 1 (B = 0) gives 0, the projection
    step being vacuous.
    """
    proj, train, _ = _subspace_terms(g, params, None)
    total = proj + train
    return _scalar(np.divide(train, total, out=np.zeros_like(total), where=total > 0))


def moment_jacobian(g: np.ndarray) -> np.ndarray:
    """Derivative of the stacked observation map wrt the real channel vars.

    The observation maps the channel to (itself, free SOS variables); the
    top 2P x 2P block is the identity and the bottom rows are the gradients
    of the free variables of vec(g g^H), all linear in g.  Shape
    (..., 2P + P^2, 2P).
    """
    free = outer_free_jacobian(g)
    eye = np.broadcast_to(np.eye(free.shape[-1]), free.shape[:-2] + (free.shape[-1],) * 2)
    return np.concatenate([eye, free], axis=-2)


def _scaled_obs_covariance(g: np.ndarray, params: SystemParams) -> np.ndarray:
    """Block-scaled observation covariance entering the asymptotic sandwich.

    Equals (symbols count) times the unscaled observation covariance: the
    training block becomes noise_var/(2 alpha) I and the SOS block
    (A Sigma A^H).real/(1 - alpha), A the free-variable map.
    """
    return params.symbols * real_covariance(predict_sos_covariance(g, params), params)


def _stationarity_jacobians(g: np.ndarray, weight: float) -> tuple[np.ndarray, np.ndarray]:
    """Jacobians of the moment-matching stationarity map F at the true point.

    The cost w sum_s W_s (f_s(g) - d_s)^2 + (1 - w) ||g - g_bar||^2 in real
    coordinates, with f the free variables of g g^H and W the free weights,
    is weighted least squares of z(g) = (g, f(g)) against z = (g_bar, d),
    weights V = (1 - w on the 2P channel coordinates, w W on f), with
    gradient F = 2 J^T V (z(g) - z), J = :func:`moment_jacobian`.  At exact
    moments the curvature of f drops out, leaving dF/dg = 2 J^T V J (the
    normal matrix) and dF/dz = -2 J^T V, (..., 2P, 2P) and (..., 2P, 2P + P^2).
    """
    jac = moment_jacobian(g)
    taps = jac.shape[-1] // 2
    v = np.concatenate([np.full(2 * taps, 1.0 - weight), weight * free_weights(taps)])
    jtv = np.swapaxes(jac, -1, -2) * v
    return 2 * jtv @ jac, -2 * jtv


def mm_error_covariance(
    g: np.ndarray, params: SystemParams, weight: float | None = None
) -> tuple[np.ndarray, float]:
    """Scaled error covariance of the moment-matching estimator at channel g.

    Returns (Sigma, sigma_g2): the 2P x 2P real covariance of the stacked
    (Re, Im) channel error and its per-tap summary trace(Sigma)/P, at
    ``weight`` or by default :func:`plugin_weight`.  Sigma is the sandwich of
    :func:`_stationarity_jacobians` around :func:`_scaled_obs_covariance` in
    closed form: in the frame of g the cost decouples into the radial
    direction x, the phase direction y (training error only) and 2(P - 1)
    perpendicular ones, each variance an SOS term plus a training term over
    its squared curvature.  At w = 1 the phase is unobservable, and that raises.
    """
    alpha = _check_train_frac(params.train_frac)
    w = plugin_weight(params) if weight is None else float(_check_unit_weight("w", weight))
    if w == 1:
        raise SingularSystemError("at w = 1 the phase of g is unobservable")
    g = np.asarray(g, dtype=complex)
    r2 = _energy(g, nonzero=True)[..., None, None]
    lam, v_ph = _interference_power(params), params.noise_var / (2 * alpha)
    sos_part, train_part = 4 * w * w * r2 * lam / (1 - alpha), (1 - w) ** 2 * v_ph
    v_rad = (sos_part * (lam + 2 * r2) + train_part) / (4 * w * r2 + 1 - w) ** 2
    v_perp = (sos_part * (lam + r2) + 2 * train_part) / (2 * w * r2 + 1 - w) ** 2
    u = g / np.sqrt(r2[..., 0])
    x, y = np.concatenate([u.real, u.imag], axis=-1), np.concatenate([-u.imag, u.real], axis=-1)
    sigma = (
        v_perp / 2 * np.eye(2 * params.taps)
        + (v_rad - v_perp / 2) * x[..., :, None] * x[..., None, :]
        + (v_ph - v_perp / 2) * y[..., :, None] * y[..., None, :]
    )
    sg2 = (v_rad + v_ph + (params.taps - 1) * v_perp)[..., 0, 0] / params.taps
    return sigma, _scalar(sg2)


def mm_lower_bound(g: np.ndarray, params: SystemParams) -> np.ndarray:
    """Scaled covariance floor for any estimator built on the same moments.

    Shape (..., 2P, 2P).  With no information symbols (M_t = M) the SOS
    block carries no information and the bound reduces to the training
    covariance noise_var/(2 alpha) I.  A singular system raises
    :class:`SingularSystemError` with the stack's largest condition number.
    """
    g = np.asarray(g, dtype=complex)
    two_p = 2 * params.taps
    if params.train_symbols == params.symbols:
        return np.zeros((*g.shape[:-1], two_p, two_p)) + params.noise_var / 2.0 * np.eye(two_p)
    jac = moment_jacobian(g)
    cov = _scaled_obs_covariance(g, params)
    try:
        info = np.swapaxes(jac, -1, -2) @ np.linalg.solve(cov, jac)
        bound = np.linalg.inv(info)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "observation covariance or information matrix is singular",
            condition=float(np.max(np.linalg.cond(cov))),
        ) from exc
    return 0.5 * (bound + np.swapaxes(bound, -1, -2))


def efficiency(sigma_g2, sigma_n2: float, alpha: float) -> float | np.ndarray:
    """Training-symbol worth of each information symbol, per entry of sigma_g2."""
    _check_train_frac(alpha)
    if np.any(np.asarray(sigma_g2) <= 0):
        raise ValueError("sigma_g2 must be positive")
    return (sigma_n2 / sigma_g2 - alpha) / (1 - alpha)
