"""The three channel estimators: training-only, moment-matching, subspace.

The training estimate is a joint least-squares fit of all users' taps,
whose Gram is summed exactly in float32 from the chip-sign cross-Grams
of the SOS Gram rather than from a stacked Sylvester regressor; the
semi-blind refinements then solve one problem per user (each estimator
batched over all users in one call), since the SOS estimates decouple
across users up to interference that vanishes in the large-system limit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import sos
from .model import SystemParams, _check_shapes, _check_signs, _check_train_frac
from .model import _check_training_rank, _check_unit_weight, unvec
from .sos import _EXACT_INT_F32, _correlate, _cross_grams, _solve_spd

__all__ = [
    "SemiblindEstimate",
    "FitDiagnostics",
    "training_estimate",
    "weight_w",
    "mm_semiblind",
    "principal_eigvec",
    "subspace_semiblind",
]

# the secular Newton iteration stops once every step is below this share of
# its iterate; from a start below the root it converges in a few steps
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 100


@dataclass
class FitDiagnostics:
    """Bookkeeping from one estimator call (one user, or a batch of users)."""

    weight: float  # moment-matching w or subspace omega (per entry if batched)
    iterations: int = 0
    converged: bool = True
    cost_trace: list[float] = field(default_factory=list, repr=False)


@dataclass
class SemiblindEstimate:
    """Channel estimate plus the diagnostics that produced it."""

    gains: np.ndarray  # (P,) complex, or (..., P) from a batched call
    diagnostics: FitDiagnostics


def training_estimate(
    windows: np.ndarray,
    chips: np.ndarray,
    symbols: np.ndarray,
    params: SystemParams,
) -> np.ndarray:
    """Joint least-squares fit of every user's taps over the training prefix.

    Takes the (M, N-P+1) received windows, the (K, M, N) int8 chip signs
    of :func:`model.sample_codes` and the (K, M) symbols, and returns the
    (K, P) estimated gains.

    With S(m) = [x_1(m) C_1^(m), ..., x_K(m) C_K^(m)] the training model is
    r(m) = S(m) g + n(m).  The right-hand side sum_m S(m)^H r(m) stacks the
    symbol-conjugated despreader outputs sum_m conj(x_k(m)) C_k^(m)T r(m),
    read off the correlator GEMM the SOS right-hand side shares; solving the
    K*P normal equations against the Gram sum_m S(m)^H S(m) decorrelates
    the users ("despread, then decorrelate"), which removes the
    multiple-access residual a per-user despreader keeps and leaves
    additive noise of variance noise_var / M_t per tap in the large-system
    limit.  Needs at least K*P training samples (:func:`model._check_training_rank`).

    The Gram weights the per-symbol chip-sign cross-Grams C_k^T C_j by
    conj(x_k) x_j (:func:`_training_gram`), with no copy of the Sylvester
    stack.  It is summed exactly in float32, so the training symbols must
    have real and imaginary parts in {0, +-u} for one u > 0 (QPSK and real
    +-1 symbols both qualify); any others raise ``ValueError``, as do arrays
    off ``params`` and training chips that are not signs of exactly +-1.
    """
    _check_training_rank(params)
    mt, k, taps = params.train_symbols, params.users, params.taps
    _check_shapes(params, chips=chips, symbols=symbols, windows=windows)
    train_chips = chips[:, :mt, :]
    _check_signs(train_chips)
    x = symbols[:, :mt]
    gram = _training_gram(train_chips, x, taps)
    despread = _correlate(train_chips, windows[:mt], taps)  # (M_t, K, P)
    rhs = np.einsum("km,mkp->kp", x.conj(), despread).reshape(-1)
    return _solve_spd(gram, rhs).reshape(k, taps)


def _training_gram(chips: np.ndarray, x: np.ndarray, taps: int) -> np.ndarray:
    """sum_m S(m)^H S(m) from the chip-sign cross-Grams, (K P, K P).

    ``chips`` holds the (K, M_t, N) chip signs and ``x`` the (K, M_t)
    symbols.  Column p of S(m) is [x_k(m) c_k(m, P-1-p .. N-1-p)]_k, so
    block (a, b) of the Gram (rows tap a, columns tap b) is
    sum_m conj(x_k(m)) x_j(m) B_kj[a, b](m) / N, with B[a, b] the sign
    cross-Grams of :func:`sos._cross_grams`; the blocks b < a are the
    conjugate transposes of those above.  With x = u (alpha + j beta) the
    weight conj(x_k) x_j / u^2 has real part alpha_k alpha_j + beta_k beta_j
    and imaginary part alpha_k beta_j - beta_k alpha_j, each in
    {0, +-1, +-2}, so in float32 every sum is an exact integer while a
    chunk keeps its sums within 2^24; the chunks add up in float64.  Once
    the chunk buffers are freed, the real and imaginary sums of each block
    a <= b, and the conjugate transposes of those above, are written
    straight into one (K, P, K, P) complex array, which is scaled by
    u^2 / N in place and returned as a (K P, K P) view.

    Raises
    ------
    ValueError
        If the real and imaginary parts of ``x`` are not all in {0, +-u}
        for one u > 0.
    """
    k, mt, n = chips.shape
    comps = np.stack([x.real, x.imag], axis=-1)  # (K, M_t, 2)
    scale = np.max(np.abs(comps))
    if not (scale > 0 and np.all((np.abs(comps) == scale) | (comps == 0))):
        raise ValueError(
            "the exact training Gram needs symbols whose real and imaginary "
            "parts are all 0 or +-u for one u > 0"
        )
    levels = (comps / scale).astype(np.float32).transpose(1, 0, 2)  # (M_t, K, 2)
    # the weights' (Re, Im): (alpha, beta) times (alpha, beta) and (beta, -alpha)
    partners = np.stack([levels, np.stack([levels[..., 1], -levels[..., 0]], axis=-1)])
    sums = np.zeros((taps, taps, 2, k, k))  # (Re, Im) integer sums of the blocks a <= b
    # |weight| <= 2 times a cross-Gram entry of at most N-P+1
    for block, cross in _cross_grams(chips, taps, _EXACT_INT_F32 // (2 * (n - taps + 1))):
        weights = np.matmul(levels[block], partners[:, block].transpose(0, 1, 3, 2))
        for (a, b), b_ab in cross.items():
            sums[a, b] += np.einsum("rmkj,mkj->rkj", weights, b_ab)
        del weights  # before the next chunk's are computed
    del cross, b_ab  # free the chunk buffers before the blocks are written
    gram = np.empty((k, taps, k, taps), dtype=complex)  # block (a, b) is gram[:, a, :, b]
    for a, b in itertools.combinations_with_replacement(range(taps), 2):
        gram[:, a, :, b].real = sums[a, b, 0]
        gram[:, a, :, b].imag = sums[a, b, 1]
    for a, b in itertools.combinations(range(taps), 2):
        gram[:, b, :, a] = gram[:, a, :, b].conj().T
    gram *= scale * scale / n
    return gram.reshape(k * taps, k * taps)


def weight_w(alpha: float, sigma_n2: float, sigma_d2: float) -> float:
    """SOS-term weight of the moment-matching cost; ``model._check_train_frac`` checks alpha."""
    _check_train_frac(alpha)
    return (1 - alpha) * sigma_n2 / ((1 - alpha) * sigma_n2 + alpha * sigma_d2)


def _mm_cost(g: np.ndarray, d_mat: np.ndarray, g_bar: np.ndarray, weight: float) -> np.ndarray:
    """w ||g g^H - D||_F^2 + (1 - w) ||g - g_bar||^2 for each batch entry."""
    resid = g[..., :, None] * g[..., None, :].conj() - d_mat
    return weight * np.sum(np.abs(resid) ** 2, axis=(-2, -1)) + (1 - weight) * np.sum(
        np.abs(g - g_bar) ** 2, axis=-1
    )


def mm_semiblind(g_bar: np.ndarray, d_hat: np.ndarray, weight: float) -> SemiblindEstimate:
    """Exact minimizer of the moment-matching cost, batched over leading axes.

    Minimizes w ||g g^H - D||_F^2 + (1 - w) ||g - g_bar||^2, D the Hermitian
    part of unvec(d_hat).  Stationarity reads
    [(1 - w + 2 w ||g||^2) I - 2 w D] g = (1 - w) g_bar.  With
    D = V diag(lam) V^H, c = V^H g_bar, a_i = (1 - w)^2 |c_i|^2,
    b_i = 2 w lam_i and mu = 1 - w + 2 w ||g||^2 it gives
    g = V diag((1 - w) / (mu - b_i)) c, where mu solves the secular equation

        h(mu) = (mu - (1 - w)) / (2 w) - sum_i a_i / (mu - b_i)^2 = 0.

    The global minimizer has mu >= max_i b_i, the PSD condition of the
    trust-region subproblem (More & Sorensen, 1983).  On that side h is
    increasing and concave, so its root there is unique and Newton's method
    started below it rises to it monotonically.  It starts where the bound
    h <= (mu - (1 - w)) / (2 w) - a_top / u^2, u = mu - max_i b_i and a_top
    the a_i on the top eigenvalue, is nonpositive.  In the hard
    case (a_i = 0 on the top eigenvalue and h(max_i b_i) >= 0, e.g. w = 1)
    mu = max_i b_i and the missing norm h goes along the top eigenvector.
    w = 0 returns g_bar unchanged; :func:`model._check_unit_weight` checks w.

    ``g_bar`` has shape (..., P) and ``d_hat`` (..., P^2).  The diagnostics
    summarise the batch: Newton steps taken, whether every entry met the
    tolerance, and the batch's total cost at g_bar and at the end (``cost_trace``).
    """
    _check_unit_weight("weight", weight)
    g_bar = np.asarray(g_bar, dtype=complex)
    if weight == 0:  # the cost is 0 at g_bar, and D (which may overflow) is never read
        diag = FitDiagnostics(weight=weight, cost_trace=[0.0, 0.0])
        return SemiblindEstimate(gains=g_bar.copy(), diagnostics=diag)
    taps = g_bar.shape[-1]
    d_vec = sos.hermitianize(np.asarray(d_hat, dtype=complex))
    d_mat = unvec(d_vec, taps)
    start = float(np.sum(_mm_cost(g_bar, d_mat, g_bar, weight)))

    lam, vecs = np.linalg.eigh(d_mat)  # ascending, so the top eigenvalue is last
    c = np.einsum("...ij,...i->...j", vecs.conj(), g_bar)
    a = ((1 - weight) * np.abs(c)) ** 2
    gap = 2 * weight * (lam[..., -1:] - lam)  # mu - b_i = u + gap_i
    a_top = np.sum(np.where(gap == 0, a, 0.0), axis=-1)
    slope = 1 / (2 * weight)
    base = (2 * weight * lam[..., -1] - (1 - weight)) * slope  # h at u = 0 without the a terms

    def secular(u):
        q = u[..., None] + gap
        inv = np.divide(1.0, q, out=np.zeros_like(q), where=q > 0)  # a_i = 0 where q = 0
        terms = a * inv**2
        return base + slope * u - terms.sum(axis=-1), slope + 2 * np.sum(terms * inv, axis=-1), inv

    limit = np.divide(a_top, 2 * base, out=np.full_like(a_top, np.inf), where=base > 0)
    u = np.minimum(np.cbrt(weight * a_top), np.sqrt(limit))
    converged = False
    for it in range(1, _NEWTON_MAX_ITER + 1):
        h, dh, _ = secular(u)
        u_next = np.maximum(u - h / dh, 0.0)  # stays at 0 only in the hard case
        converged = bool(np.all(np.abs(u_next - u) <= _NEWTON_TOL * u_next))
        u = u_next
        if converged:
            break

    h, _, inv = secular(u)
    y = (1 - weight) * c * inv
    hard = (a_top == 0) & (u == 0)
    y[..., -1] += np.where(hard, np.sqrt(np.maximum(h, 0.0)), 0.0)
    gains = np.einsum("...ij,...j->...i", vecs, y)
    cost = float(np.sum(_mm_cost(gains, d_mat, g_bar, weight)))
    diag = FitDiagnostics(weight, iterations=it, converged=converged, cost_trace=[start, cost])
    return SemiblindEstimate(gains=gains, diagnostics=diag)


def principal_eigvec(d_hat: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the top eigenvalue of each reshaped SOS estimate.

    ``d_hat`` has shape (..., P^2); one ``eigh`` runs over the whole stack.
    Phase convention: the first entry of magnitude above 1e-12 is rotated to
    the positive real axis, which fixes the otherwise arbitrary phase
    deterministically.
    """
    d_hat = np.asarray(d_hat, dtype=complex)
    taps = math.isqrt(d_hat.shape[-1])
    _, vecs = np.linalg.eigh(unvec(sos.hermitianize(d_hat), taps))
    u = vecs[..., -1]
    # a unit vector always has such an entry
    first = np.argmax(np.abs(u) > 1e-12, axis=-1)[..., None]
    lead = np.take_along_axis(u, first, axis=-1)
    return u * (lead.conj() / np.abs(lead))


def subspace_semiblind(
    g_bar: np.ndarray, d_hat: np.ndarray, omega: float | np.ndarray
) -> SemiblindEstimate:
    """Project the training estimate on the leading SOS eigenvector and blend.

    g_hat = omega (u^H g_bar) u + (1 - omega) g_bar; invariant to the phase
    of u, so the SOS phase ambiguity never reaches the estimate.  Batched
    over leading axes: ``g_bar`` (..., P), ``d_hat`` (..., P^2) and
    ``omega`` a scalar or one weight per batch entry, which the diagnostics
    record as given once :func:`model._check_unit_weight` has checked it.
    """
    weights = _check_unit_weight("omega", omega)[..., None]
    g_bar = np.asarray(g_bar, dtype=complex)
    u = principal_eigvec(d_hat)
    proj = np.einsum("...i,...i->...", u.conj(), g_bar)[..., None]
    gains = weights * proj * u + (1 - weights) * g_bar
    diag = FitDiagnostics(weight=omega)
    return SemiblindEstimate(gains=gains, diagnostics=diag)
