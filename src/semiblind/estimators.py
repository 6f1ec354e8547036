"""The three channel estimators: training-only, moment-matching, subspace.

The training estimate is a joint least-squares fit of all users' taps,
whose float64 Gram is assembled from lag products of the symbol-weighted
chip stream rather than from a stacked Sylvester regressor; the
semi-blind refinements then solve one problem per user (each estimator
batched over all users in one call), since the SOS estimates decouple
across users up to interference that vanishes in the large-system limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .model import SystemParams, unvec
from .sos import _correlate, _solve_spd, hermitianize

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

    method: str
    weight: float  # moment-matching w or subspace omega (per entry if batched)
    weight_source: str = "given"  # given | oracle | plugin
    iterations: int = 0
    cost: float = 0.0
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

    Takes the (M, N-P+1) received windows, the (K, M, N) chips and the
    (K, M) symbols, and returns the (K, P) estimated gains.

    With S(m) = [x_1(m) C_1^(m), ..., x_K(m) C_K^(m)] the training model is
    r(m) = S(m) g + n(m).  The right-hand side sum_m S(m)^H r(m) stacks the
    symbol-conjugated despreader outputs sum_m conj(x_k(m)) C_k^(m)T r(m),
    read off the correlator GEMM the SOS right-hand side shares; solving the
    K*P normal equations against the Gram sum_m S(m)^H S(m) decorrelates
    the users ("despread, then decorrelate"), which removes the
    multiple-access residual a per-user despreader keeps and leaves
    additive noise of variance noise_var / M_t per tap in the large-system
    limit.  Needs at least K*P training samples: M_t (N-P+1) >= K P.

    The Gram comes from P lag products of the (M_t N, K) symbol-weighted
    chip stream with rank-M_t edge corrections (:func:`_training_gram`):
    1.8x fewer multiply-adds than a syrk of the stacked S(m) at P = 3, and
    no copy of the Sylvester stack.  It stays in float64 because the
    symbols may be any complex numbers, so the exact +-1 float32 arithmetic
    of the SOS Gram does not apply.
    """
    mt, k, taps = params.train_symbols, params.users, params.taps
    if mt < 1:
        raise ConfigError("training_estimate requires at least one training symbol")
    if mt * params.window < k * taps:
        raise ConfigError(
            f"joint least-squares training needs M_t (N-P+1) >= K P; got "
            f"{mt * params.window} training samples for {k * taps} taps"
        )
    train_chips = chips[:, :mt, :]
    x = symbols[:, :mt]
    gram = _training_gram(train_chips, x, taps)
    despread = _correlate(train_chips, windows[:mt], taps)  # (M_t, K, P)
    rhs = np.einsum("km,mkp->kp", x.conj(), despread).reshape(-1)
    return _solve_spd(gram, rhs).reshape(k, taps)


def _training_gram(chips: np.ndarray, x: np.ndarray, taps: int) -> np.ndarray:
    """sum_m S(m)^H S(m) from lag products of the symbol-weighted chips, (K P, K P).

    ``chips`` is (K, M_t, N) and ``x`` the (K, M_t) symbols.  With
    Y(m, u) = [x_k(m) c_k(m, u)]_k, column p of S(m) reads chips
    P-1-p .. N-1-p, so block (a, a+d) of the Gram (rows tap a, columns tap
    a+d) sums Y(m, u)^H Y(m, u-d) over every symbol and the window chips
    u = P-1-a .. N-1-a.  Per lag d this is one real GEMM of the whole
    (M_t N, 2K) chip stream against itself shifted by d chips, less the d
    pairs that straddle each symbol boundary and the P-1-d pairs before the
    window of block (0, d); then each step down the lag's diagonal adds the
    pair at u = P-2-a and drops the one at u = N-1-a.  The P lag GEMMs cost
    (4P-2) K^2 M_t N real multiply-adds (the d = 0 one is a syrk), and the
    3P(P-1)/2 corrections, each a (2K x M_t)(M_t x 2K) product, add
    6P(P-1) K^2 M_t; a syrk of the stacked S(m) costs 2 P^2 K^2 M_t (N-P+1).
    """
    k, mt, n = chips.shape
    stream = np.empty((mt, n, k), dtype=complex)
    np.multiply(chips.transpose(1, 2, 0), x.T[:, None, :], out=stream)
    by_chip = stream.view(float)  # (M_t, N, 2K): (Re, Im) of Y(m, u)
    flat = by_chip.reshape(mt * n, 2 * k)
    real = np.zeros((taps, taps, 2 * k, 2 * k))
    for d in range(taps):
        block = flat[d:].T @ flat[: mt * n - d]
        # pairs that straddle a boundary: chip j < d of symbol m+1 with chip N-d+j of m
        block -= by_chip[1:, :d].reshape(-1, 2 * k).T @ by_chip[:-1, n - d :].reshape(-1, 2 * k)
        # sum_m Y(m, u)^T Y(m, u-d) at the head chips u = d .. P-2 and the tail
        # chips u = N-1-a, a = 0 .. P-2-d
        u = np.concatenate([np.arange(d, taps - 1), n - 1 - np.arange(taps - 1 - d)])
        edge = np.matmul(by_chip[:, u].transpose(1, 2, 0), by_chip[:, u - d].transpose(1, 0, 2))
        head, tail = edge[: taps - 1 - d], edge[taps - 1 - d :]
        block -= head.sum(axis=0)
        real[0, d] = block
        for a in range(taps - 1 - d):
            block = block + head[taps - 2 - a - d] - tail[a]
            real[a + 1, a + 1 + d] = block
    # Y^H Y = (Re^T Re + Im^T Im) + j (Re^T Im - Im^T Re) from the float view
    parts = real.reshape(taps, taps, k, 2, k, 2)
    blocks = parts[:, :, :, 0, :, 0] + parts[:, :, :, 1, :, 1]
    blocks = blocks + 1j * (parts[:, :, :, 0, :, 1] - parts[:, :, :, 1, :, 0])
    for a in range(taps):
        # Hermitian in exact arithmetic; made exactly so whatever the BLAS
        blocks[a, a] = 0.5 * (blocks[a, a] + blocks[a, a].conj().T)
        for b in range(a + 1, taps):
            blocks[b, a] = blocks[a, b].conj().T
    return blocks.transpose(2, 0, 3, 1).reshape(k * taps, k * taps)


def weight_w(alpha: float, sigma_n2: float, sigma_d2: float) -> float:
    """Relative weight on the SOS term in the moment-matching cost."""
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha={alpha} must lie in (0, 1)")
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
    w = 0 returns g_bar unchanged.

    ``g_bar`` has shape (..., P) and ``d_hat`` (..., P^2).  The diagnostics
    summarise the batch: Newton steps taken, whether every entry met the
    tolerance, the summed cost and [cost at g_bar, final cost].
    """
    if not 0 <= weight <= 1:
        raise ValueError(f"weight={weight} must lie in [0, 1]")
    g_bar = np.asarray(g_bar, dtype=complex)
    taps = g_bar.shape[-1]
    d_vec = hermitianize(np.asarray(d_hat, dtype=complex))
    d_mat = unvec(d_vec, taps)
    start = float(np.sum(_mm_cost(g_bar, d_mat, g_bar, weight)))
    if weight == 0:
        diag = FitDiagnostics(method="mm", weight=weight, cost=start, cost_trace=[start, start])
        return SemiblindEstimate(gains=g_bar.copy(), diagnostics=diag)

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
    diag = FitDiagnostics(
        method="mm",
        weight=weight,
        iterations=it,
        cost=cost,
        converged=converged,
        cost_trace=[start, cost],
    )
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
    _, vecs = np.linalg.eigh(unvec(hermitianize(d_hat), taps))
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
    record as given.
    """
    weights = np.asarray(omega, dtype=float)
    if np.any(weights < 0) or np.any(weights > 1):
        raise ValueError(f"omega={omega} must lie in [0, 1]")
    g_bar = np.asarray(g_bar, dtype=complex)
    u = principal_eigvec(d_hat)
    proj = np.einsum("...i,...i->...", u.conj(), g_bar)[..., None]
    weights = weights[..., None]
    gains = weights * proj * u + (1 - weights) * g_bar
    diag = FitDiagnostics(method="subspace", weight=omega)
    return SemiblindEstimate(gains=gains, diagnostics=diag)
