"""Moment-matching estimation of per-user channel SOS from information symbols.

The normal equations T d = y are assembled without ever materializing the
(N-P+1)^2 x P^2 K regressor Q(m): block (i, j) of Q^T(m) Q(m) equals
(C_i^T C_j) (x) (C_i^T C_j) and block k of Q^T(m) vec(r r^H) equals
vec(a_k a_k^H) with a_k = C_k^T r, which drops the per-symbol cost from
O(N^4) to O(K^2 P^2 N) for the Gram T.  The right-hand side y costs
O(K P N) per symbol: the correlators a_k are one real GEMM of the chips
against P shifts of r, and the bias term C_k^T C_k is read off chip lag
products, so no Sylvester window stack is built.

T is built from the +-1 chip signs in float32.  Every partial sum is then
an integer, and binary32 holds every integer of magnitude up to 2^24
exactly, so each chunk of symbols is summed exactly as long as it keeps
its sums, at most chunk * (N-P+1)^2, within 2^24; the chunks add up in
float64 and one division by M_i N^2 gives the correctly rounded T.  Per
symbol that is P^2 cross-Grams of K x (N-P+1) chip windows, K^2 P^2 (N-P+1)
multiply-adds, plus the (P^4 + 3 P^2)/4 products of K x K cross-Grams (27
for P = 3) that the symmetries of the Kronecker squares leave distinct.
"""

from __future__ import annotations

import itertools
import math
from functools import cache

import numpy as np

from .errors import SingularSystemError
from .model import unvec

__all__ = [
    "build_normal_equations",
    "estimate_sos",
    "hermitianize",
    "free_vars",
    "free_vars_inverse",
    "free_slot_index",
    "hermitian_basis",
    "free_weights",
    "outer_free_jacobian",
]

_RIDGE = 1e-8  # relative ridge of the Cholesky fallback
_HERMITIAN_TOL = 1e-10
_EXACT_INT_F32 = 2**24  # binary32 holds every integer of magnitude <= 2^24
_GRAM_CHUNK_ELEMS = 2**20  # float32 cross-Gram entries per symbol chunk (4 MB)


def build_normal_equations(
    chips: np.ndarray,
    windows: np.ndarray,
    info_range,
    noise_var: float,
    include_gram: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Accumulate T and y over the given information-symbol indices.

    Returns ``(rhs, gram)``: y as the (K, P^2) complex per-user blocks, and
    the real symmetric PSD T = (1/M_i) sum_m Q^T(m) Q(m), (K P^2, K P^2),
    which depends only on the chips, never on the received data.

    Parameters
    ----------
    chips, windows :
        The (K, M, N) spreading chips and the matching (M, N-P+1) ISI-free
        windows.  The window length N-P+1 sets the channel order P; the
        Gram needs the chips to be exactly +-1/sqrt(N), as
        :func:`model.sample_codes` draws them.
    info_range :
        Symbol indices (0-based) contributing to the statistics; must be
        nonempty.
    noise_var :
        Complex noise variance used for the bias correction
        sigma_n^2 Q^T(m) vec(I) = sigma_n^2 vec(C_k^T C_k) per user block.
    include_gram :
        Skip the (comparatively expensive) T accumulation when False and
        return None in its place, for identity-T estimation.  T is an
        exact integer sum in float32 (see the module docstring), chunked so
        that each chunk's sums stay within 2^24; it costs about
        K^2 P^2 (N-P+1) multiply-adds per symbol.

    Raises
    ------
    ValueError
        For an empty or out-of-bounds ``info_range``, windows whose count
        differs from the chips' symbol count or whose length implies a channel
        order outside 1 <= P < N, and (with ``include_gram``) chips that are
        not +-1/sqrt(N) or windows longer than 4096 chips, whose products
        float32 would round.
    """
    idx = np.asarray(list(info_range), dtype=int)
    if idx.size == 0:
        raise ValueError("info_range must be nonempty")
    _, m_total, n = chips.shape
    if windows.ndim != 2 or windows.shape[0] != m_total:
        raise ValueError(
            f"received windows {windows.shape} do not match the {m_total} symbols of the chips"
        )
    taps = n - windows.shape[1] + 1
    if not 1 <= taps < n:
        raise ValueError(
            f"window length {windows.shape[1]} implies channel order {taps}, "
            f"outside 1 <= P < N = {n}"
        )
    if np.any(idx < 0) or np.any(idx >= m_total):
        raise ValueError("info_range indices out of bounds")

    # a contiguous range selects views, so no copy of the chips is held
    # while the Gram accumulates
    if np.array_equal(idx, np.arange(idx[0], idx[0] + idx.size)):
        idx = slice(idx[0], idx[0] + idx.size)
    info_chips = chips[:, idx, :]  # (K, Mi, N)
    rhs = _sos_rhs(info_chips, windows[idx], taps, noise_var)
    return rhs, _gram(info_chips, taps) if include_gram else None


def _gram(chips: np.ndarray, taps: int) -> np.ndarray:
    """T = (1/Mi) sum_m Q^T(m) Q(m) from the +-1 chip signs, (K P^2, K P^2).

    With B_ij[a, b] = sum_n s_i(n + P-1-a) s_j(n + P-1-b) the sign
    cross-Gram of Sylvester columns a and b, block (i, j) of T holds
    G[a, b, c, d][i, j] = sum_m B_ij[a, b] B_ij[c, d] at row (a, c), column
    (b, d), divided by Mi N^2.  G is unchanged by swapping (a, b) with
    (c, d) and is transposed over (i, j) by swapping a with b and c with d
    (B_ji = B_ij^T), so only one (a, b, c, d) per orbit is summed.
    """
    k, mi, n = chips.shape
    n_w = n - taps + 1
    if n_w * n_w > _EXACT_INT_F32:
        raise ValueError(f"the exact float32 Gram needs N-P+1 <= 4096, not {n_w}")
    if not np.all(np.abs(chips) == 1.0 / np.sqrt(n)):
        raise ValueError("the Gram needs chips of exactly +-1/sqrt(N)")
    signs = np.sign(chips.transpose(1, 0, 2)).astype(np.float32)  # (Mi, K, N)
    quads = _kron_orbits(taps)
    acc = np.zeros((len(quads), k, k))
    chunk = max(1, min(_GRAM_CHUNK_ELEMS // (taps * taps * k * k), _EXACT_INT_F32 // n_w**2))
    for lo in range(0, mi, chunk):
        s = signs[lo : lo + chunk]
        # Sylvester column a of every code word: chips P-1-a .. N-1-a
        cols = [s[:, :, taps - 1 - a : n - a] for a in range(taps)]
        cross = np.empty((taps, taps, s.shape[0], k, k), dtype=np.float32)
        for a, b in itertools.product(range(taps), repeat=2):
            np.matmul(cols[a], cols[b].transpose(0, 2, 1), out=cross[a, b])
        for q, (a, b, c, d) in enumerate(quads):
            acc[q] += np.einsum("mij,mij->ij", cross[a, b], cross[c, d])
    g = np.empty((taps,) * 4 + (k, k))
    for q, (a, b, c, d) in enumerate(quads):
        g[a, b, c, d] = g[c, d, a, b] = acc[q]
        g[b, a, d, c] = g[d, c, b, a] = acc[q].T
    dim = k * taps * taps
    return g.transpose(4, 0, 2, 5, 1, 3).reshape(dim, dim) / (mi * n * n)


@cache
def _kron_orbits(taps: int) -> tuple[tuple[int, int, int, int], ...]:
    """The least (a, b, c, d) of each orbit under (c, d, a, b) and (b, a, d, c)."""
    return tuple(
        q
        for q in itertools.product(range(taps), repeat=4)
        if q <= min((q[2], q[3], q[0], q[1]), (q[1], q[0], q[3], q[2]), (q[3], q[2], q[1], q[0]))
    )


def _correlate(chips: np.ndarray, r: np.ndarray, taps: int) -> np.ndarray:
    """Per-user correlator outputs a_k(m) = C_k^(m)T r(m), (Mi, K, P) complex.

    ``chips`` is (K, Mi, N) and ``r`` the matching (Mi, N-P+1) windows.  Tap
    p reads chip n + P-1-p against r(m)[n], so this is one real GEMM of the
    chips against P zero-padded shifts of (Re r, Im r), interleaved to view
    as complex.  The SOS right-hand side squares these outputs; the joint
    training fit weights them by the conjugate training symbols.
    """
    _, mi, n = chips.shape
    n_w = r.shape[1]
    shifted = np.zeros((mi, n, taps, 2))
    for p in range(taps):
        lo = taps - 1 - p
        shifted[:, lo : lo + n_w, p, 0] = r.real
        shifted[:, lo : lo + n_w, p, 1] = r.imag
    return np.matmul(chips.transpose(1, 0, 2), shifted.reshape(mi, n, 2 * taps)).view(complex)


def _sos_rhs(chips: np.ndarray, r: np.ndarray, taps: int, noise_var: float) -> np.ndarray:
    """y_k = mean_m vec(a_k a_k^H) - noise_var * mean_m vec(C_k^T C_k), (K, P^2)."""
    k, mi, _ = chips.shape
    a = _correlate(chips, r, taps)
    moments = np.einsum("mkr,mkc->kcr", a, a.conj()) / mi
    rhs = moments - noise_var * (_self_gram(chips, taps) / mi)
    return rhs.reshape(k, taps * taps)


def _self_gram(chips: np.ndarray, taps: int) -> np.ndarray:
    """sum_m C_k^(m)T C_k^(m) for every user from chip lag products, (K, P, P).

    Entry (p, q), p >= q, sums c(n + P-1-p) c(n + P-1-p + p-q) over the
    N-P+1 window chips n: a window, starting at chip P-1-p, of the lag-(p-q)
    products summed over symbols, read off their cumulative sum.
    """
    k, _, n = chips.shape
    n_w = n - taps + 1
    out = np.empty((k, taps, taps))
    for lag in range(taps):
        prods = np.einsum("kml,kml->kl", chips[..., : n - lag], chips[..., lag:])
        csum = np.zeros((k, n - lag + 1))
        np.cumsum(prods, axis=-1, out=csum[:, 1:])
        for p in range(lag, taps):
            lo = taps - 1 - p
            out[:, p, p - lag] = out[:, p - lag, p] = csum[:, lo + n_w] - csum[:, lo]
    return out


def estimate_sos(rhs: np.ndarray, gram: np.ndarray | None = None) -> np.ndarray:
    """Solve (or approximate) T d = y; returns the per-user SOS vectors (K, P^2).

    Without a Gram this takes d = y outright (the large-system T -> I
    approximation); with one it runs a Cholesky factorization with a
    relative ridge fallback on the stacked (K P^2,) system.
    """
    if gram is None:
        return rhs
    return _solve_spd(gram, rhs.reshape(-1)).reshape(rhs.shape)


def _solve_spd(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve gram x = rhs for a symmetric (or Hermitian) positive definite Gram.

    A Gram that fails its Cholesky factorization, or that passes it on a
    tiny positive pivot but is exactly singular to the solve, is retried
    with a relative ridge 1e-8 ||diag(gram)|| on the diagonal; a second
    failure raises :class:`SingularSystemError`.  A real Gram solves the
    complex rhs as two real columns.
    """
    try:
        return _checked_solve(gram, rhs)
    except np.linalg.LinAlgError:
        pass
    ridged = gram + _RIDGE * np.linalg.norm(np.diag(gram)) * np.eye(gram.shape[0])
    try:
        return _checked_solve(ridged, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "normal-equation matrix is singular or not positive definite",
            condition=float(np.linalg.cond(gram)),
        ) from exc


def _checked_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve after a Cholesky positive-definiteness check; both raise LinAlgError."""
    np.linalg.cholesky(gram)
    if np.iscomplexobj(gram):
        return np.linalg.solve(gram, rhs)
    columns = np.ascontiguousarray(rhs, dtype=complex).view(float).reshape(-1, 2)
    return np.ascontiguousarray(np.linalg.solve(gram, columns)).view(complex)[:, 0]


def hermitianize(d: np.ndarray) -> np.ndarray:
    """Project each vec'd P x P matrix onto the Hermitian subspace.

    ``d`` has shape (..., P^2); each reshaped matrix A becomes (A + A^H)/2.
    Idempotent.
    """
    d = np.asarray(d)
    taps = math.isqrt(d.shape[-1])
    mats = d.reshape(*d.shape[:-1], taps, taps)
    # vec is column-stacking, so the reshaped view is the transpose of the
    # matrix; (A + A^H)/2 is transpose-invariant under the same convention
    sym = 0.5 * (mats + mats.conj().transpose(*range(mats.ndim - 2), -1, -2))
    return sym.reshape(d.shape)


@cache
def free_slot_index(taps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical ordering of the P^2 real free variables of a Hermitian matrix.

    The P real diagonal entries come first, then for each strict
    upper-triangle position (i < j) in row-major order its real part and
    then its imaginary part.  Returned as read-only (row, col, is_im)
    arrays: slot s reads the real (or, where ``is_im``, imaginary) part of
    entry (row[s], col[s]) of the P x P matrix, whose column-stacked
    position is col[s] * P + row[s]; diagonal slots are those with
    row == col.
    """
    diag = np.arange(taps)
    upper_row, upper_col = np.triu_indices(taps, 1)
    row = np.concatenate([diag, np.repeat(upper_row, 2)])
    col = np.concatenate([diag, np.repeat(upper_col, 2)])
    is_im = np.concatenate([np.zeros(taps, bool), np.tile([False, True], upper_row.size)])
    for arr in (row, col, is_im):
        arr.flags.writeable = False
    return row, col, is_im


def hermitian_basis(taps: int) -> np.ndarray:
    """Hermitian basis matrices in :func:`free_slot_index` order, (P^2, P, P).

    A Hermitian matrix decomposes exactly as A = sum_s f_s B_s with f the
    free variables; conversely f_s = tr(B_s A) / (1 on diagonal slots, 2
    elsewhere).
    """
    row, col, is_im = free_slot_index(taps)
    unit = np.where(is_im, 1j, 1.0)
    basis = np.zeros((taps * taps, taps, taps), dtype=complex)
    slot = np.arange(taps * taps)
    basis[slot, col, row] = unit.conj()
    basis[slot, row, col] = unit
    return basis


def free_weights(taps: int) -> np.ndarray:
    """Frobenius weights per free variable: 1 on diagonal slots, 2 off."""
    row, col, _ = free_slot_index(taps)
    return np.where(row == col, 1.0, 2.0)


def outer_free_jacobian(g: np.ndarray) -> np.ndarray:
    """Jacobian of the free variables of vec(g g^H) wrt (Re g, Im g).

    Row s is the gradient of free variable s; every entry is linear in g.
    Shape (P^2, 2P).
    """
    g = np.asarray(g, dtype=complex)
    taps = g.shape[0]
    row, col, _ = free_slot_index(taps)
    bg = hermitian_basis(taps) @ g  # (P^2, P)
    scale = np.where(row == col, 2.0, 1.0)
    return scale[:, None] * np.concatenate([bg.real, bg.imag], axis=1)


def free_vars(d: np.ndarray) -> np.ndarray:
    """Real free variables of one vec'd Hermitian matrix.

    Raises ``ValueError`` when the reshaped matrix deviates from Hermitian
    symmetry by more than 1e-10 (max-abs).
    """
    d = np.asarray(d)
    taps = math.isqrt(d.shape[-1])
    mat = unvec(d, taps)
    if np.max(np.abs(mat - mat.conj().T)) > _HERMITIAN_TOL:
        raise ValueError("input is not Hermitian within tolerance 1e-10")
    row, col, is_im = free_slot_index(taps)
    entries = mat[row, col]
    return np.where(is_im, entries.imag, entries.real)


def free_vars_inverse(f: np.ndarray) -> np.ndarray:
    """Rebuild the full vec'd Hermitian matrix from its free variables."""
    f = np.asarray(f)
    taps = math.isqrt(f.shape[-1])
    row, col, is_im = free_slot_index(taps)
    upper = np.zeros((taps, taps), dtype=complex)
    np.add.at(upper, (row, col), np.where(is_im, 1j, 1.0) * f)
    mat = upper + np.triu(upper, 1).conj().T
    return mat.reshape(-1, order="F")
