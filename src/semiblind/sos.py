"""Moment-matching estimation of per-user channel SOS from information symbols.

The normal equations T d = y are assembled without ever materializing the
(N-P+1)^2 x P^2 K regressor Q(m): block (i, j) of Q^T(m) Q(m) equals
(C_i^T C_j) (x) (C_i^T C_j) and block k of Q^T(m) vec(r r^H) equals
vec(a_k a_k^H) with a_k = C_k^T r, which drops the per-symbol cost from
O(N^4) to O(K^2 P^2 N) for the Gram T.  The right-hand side y costs
O(K P N) per symbol: the correlators a_k are one real GEMM of the chips
against P shifts of r, a symbol chunk at a time, and the bias term
C_k^T C_k is read off chip lag products, so no Sylvester window stack is
built.  Its temporaries are one symbol chunk each: each chunk's
correlator outputs are reduced into the moments before the next chunk is
correlated, so the (Mi, K, P) outputs are never stored.

T is never formed either.  It commutes with the per-user vec-transpose,
so it maps the real part of a vec'd Hermitian matrix (symmetric) and its
imaginary part (antisymmetric) separately.  In the P^2 real free variables
of :func:`free_slot_index` it splits into a real block of order
K P(P+1)/2, over the diagonal and upper real parts, and an imaginary block
of order K P(P-1)/2, over the upper imaginary parts.  The solve factors
each block once, in place over the block's own lower triangle, and
returns an exactly Hermitian d; the block is restored before the solve
returns.

Every sum runs over the int8 +-1 chip signs of :func:`model.sample_codes`,
and the chip scale 1/sqrt(N) is applied once, in float64, to its result:
to the correlator outputs, to the integer lag sums of C_k^T C_k, and to
the Gram blocks.

The blocks are built from the signs in float32.  Every partial sum is
then an integer, and binary32 holds every integer of magnitude up to 2^24
exactly, so each chunk of symbols is summed exactly as long as it keeps
its sums, at most chunk * (N-P+1)^2, within 2^24.  A chunk also keeps its
P^2 cross-Grams within ``_GRAM_CHUNK_ELEMS`` entries (2 MB).  The chunks
add up in float32 too while M_i (N-P+1)^2 <= 2^24, which bounds every
partial sum (at N = 64, P = 3 up to 4364 information symbols), and in
float64 beyond that.  Each block entry is an integer sum or difference of
two of these sums, taken in float64, and one division by 2 M_i N^2
rounds it correctly.
Per symbol, :func:`_cross_grams` builds the P first-row cross-Grams of
K x (N-P+1) chip windows from P GEMMs, :func:`_gram` the other
P(P-1)/2 upper ones from rank-2 updates of the window edge chips, and
the Gram sums the (P^4 + 3 P^2)/4 products of them (27 for P = 3) that
the Kronecker symmetries leave distinct.  A product that reads a
lower cross-Gram reads it from one reused scratch, which holds the
transpose of one upper cross-Gram at a time.
"""

from __future__ import annotations

import itertools
import math
from functools import cache

import numpy as np

from . import model
from .errors import SingularSystemError

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
_EPS = np.finfo(float).eps  # pivots below order * _EPS of the largest count as zero
_SOLVE_BLOCK = 64  # rows per diagonal block of the triangular solves
_HERMITIAN_TOL = 1e-10
_EXACT_INT_F32 = 2**24  # binary32 holds every integer of magnitude <= 2^24
_GRAM_CHUNK_ELEMS = 2**19  # float32 cross-Gram entries per symbol chunk (2 MB)
_INT8_TERMS = 127  # int8 holds every sum of up to 127 products of +-1 signs


def build_normal_equations(
    windows: np.ndarray,
    chips: np.ndarray,
    params: model.SystemParams,
    include_gram: bool = True,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
    """Accumulate T and y over the M - M_t information symbols of the block.

    Returns ``(rhs, gram)``: y as the (K, P^2) complex per-user blocks, and
    T = (1/M_i) sum_m Q^T(m) Q(m) as the pair ``(real, imag)`` of its
    Hermitian blocks, real symmetric PSD matrices of orders K P(P+1)/2
    and K P(P-1)/2 (0 x 0 at P = 1, where the real block is T).  Rows and
    columns run user-major over the slots of :func:`free_slot_index`
    without and with ``is_im``; entry ((i, s), (j, t)) is
    (T[(i, v_s), (j, v_t)] +- T[(i, v_s), (j, v_t^T)]) / 2, + for the real
    block and - for the imaginary one, with v_s the vec position of slot s
    and v_t^T that of its transpose.  The blocks depend only on the chips,
    never on the received data, and the (K P^2)^2 matrix T is never
    allocated.

    Parameters
    ----------
    windows, chips :
        The (M, N-P+1) ISI-free windows and (K, M, N) int8 chip signs, as
        :func:`estimators.training_estimate` takes them; the information
        symbols M_t .. M-1 are read through views, with no copy.
    params :
        K, M, N and P fix the shapes, M_t the training prefix, and
        noise_var the bias correction sigma_n^2 vec(C_k^T C_k) per user.
    include_gram :
        Skip the (comparatively expensive) Gram accumulation when False and
        return None in its place, for identity-T estimation.  The Gram is
        an exact integer sum in float32 (see the module docstring), chunked
        so that each chunk's sums stay within 2^24.  Per symbol it costs
        P K^2 (N-P+1) GEMM multiply-adds, P(P-1)/2 rank-2 updates of K x K
        cross-Grams and (P^4 + 3 P^2)/4 Hadamard sums of them.

    Raises
    ------
    ValueError
        For a block with no information symbol (M_t = M), arrays off
        ``params``, information chips that are not integer signs of exactly
        +-1, and (with ``include_gram``) windows longer than 4096 chips,
        whose products float32 would round.
    """
    if params.train_symbols == params.symbols:
        raise ValueError("semi-blind estimators need at least one information symbol")
    model._check_shapes(params, chips=chips, windows=windows)
    info = slice(params.train_symbols, params.symbols)
    info_chips = chips[:, info]  # (K, Mi, N)
    model._check_signs(info_chips)
    rhs = _sos_rhs(info_chips, windows[info], params.taps, params.noise_var)
    return rhs, _gram(info_chips, params.taps) if include_gram else None


def _gram(chips: np.ndarray, taps: int) -> tuple[np.ndarray, np.ndarray]:
    """The real and imaginary Hermitian blocks of T = (1/Mi) sum_m Q^T(m) Q(m).

    With B_ij[a, b] = sum_n s_i(n + P-1-a) s_j(n + P-1-b) the sign
    cross-Gram of Sylvester columns a and b, block (i, j) of T holds
    G[a, b, c, d][i, j] = sum_m B_ij[a, b] B_ij[c, d] at row (a, c), column
    (b, d), divided by Mi N^2.  G is unchanged by swapping (a, b) with
    (c, d) and is transposed over (i, j) by swapping a with b and c with d
    (B_ji = B_ij^T), so only one (a, b, c, d) per orbit is summed.  The
    first swap maps row (a, c) to (c, a) and column (b, d) to (d, b), which
    is why T commutes with the per-user vec-transpose.  Each block entry is
    an integer sum or difference of two orbit sums, divided once by
    2 Mi N^2.  The orbit sums are kept in float32 when Mi (N-P+1)^2 <= 2^24
    bounds them, so every partial sum is an exact integer, and in float64
    otherwise; each entry adds or subtracts its two sums in float64,
    straight into its block, with no float64 copy of the sums.

    An orbit's least (a, b, c, d) has a <= b, so B[a, b] is one of the
    P(P+1)/2 upper cross-Grams, and B[c, d] is either one too or the
    transpose of one.  Per chunk, :func:`_cross_grams` gives the first row
    B[0, b], and the rows below follow symbol by symbol down each diagonal,
    B[a, b] = B[a-1, b-1] + s(P-1-a) s(P-1-b)^T - s(N-a) s(N-b)^T, one
    batched rank-2 product of the chunk's edge chips each, written into
    buffers reused by every chunk.  The orbits are summed in groups by that
    lower B[c, d]: per chunk, each is copied once into one reused
    (chunk, K, K) float32 scratch, and no other transposed copy is made.
    """
    k, mi, n = chips.shape
    n_w = n - taps + 1
    if n_w * n_w > _EXACT_INT_F32:
        raise ValueError(f"the exact float32 Gram needs N-P+1 <= 4096, not {n_w}")
    quads = _kron_orbits(taps)
    # the orbits by the lower cross-Gram B[c, d] = B[d, c]^T, c > d, they read
    by_lower: dict[tuple[int, int] | None, list[int]] = {}
    for q, (_, _, c, d) in enumerate(quads):
        by_lower.setdefault((c, d) if c > d else None, []).append(q)
    pairs = [(a, b) for a in range(taps) for b in range(a, taps)]  # row 0 first
    # a product negates the dropped chips, as numpy 2.4's np.negative writes
    # wrong values into strided ``out``s
    flip = np.array([[1], [-1]], dtype=np.float32)
    # every partial orbit sum is an integer of magnitude <= Mi (N-P+1)^2
    exact_f32 = mi * n_w**2 <= _EXACT_INT_F32
    acc = np.zeros((len(quads), k, k), dtype=np.float32 if exact_f32 else float)
    below = lower = None  # rows 1 .. P-1 and the lower scratch, reused by every chunk
    for _, row, edges in _cross_grams(chips, taps, _EXACT_INT_F32 // n_w**2):
        if lower is None:  # the first chunk is the largest
            below = np.empty((len(pairs) - taps, *row.shape[1:]), dtype=np.float32)
            lower = np.empty_like(row[0])
        size = len(edges)
        cross = dict(zip(pairs, [*row, *below[:, :size]]))
        signed = edges * flip
        for a, b in pairs[taps:]:  # rows 1 .. P-1, each after the row above
            np.matmul(edges[:, a - 1].transpose(0, 2, 1), signed[:, b - 1], out=cross[a, b])
            cross[a, b] += cross[a - 1, b - 1]
        for pair, group in by_lower.items():
            if pair is not None:
                np.copyto(lower[:size], cross[pair[::-1]].transpose(0, 2, 1))
            for q in group:
                a, b, c, d = quads[q]
                second = cross[c, d] if c <= d else lower[:size]
                acc[q] += np.einsum("mij,mij->ij", cross[a, b], second)
    del row, cross, below, lower  # free the chunk buffers before the blocks are allocated
    sums = (acc, acc.transpose(0, 2, 1))
    blocks = []
    for combine, terms in zip((np.add, np.subtract), _hermitian_block_terms(taps)):
        slots = math.isqrt(len(terms))
        block = np.empty((k, slots, k, slots))
        for s, t, (tr1, q1), (tr2, q2) in terms:
            combine(sums[tr1][q1], sums[tr2][q2], out=block[:, s, :, t], dtype=float)
        block /= 2 * mi * n * n
        blocks.append(block.reshape(k * slots, k * slots))
    return blocks[0], blocks[1]


def _cross_grams(chips: np.ndarray, taps: int, max_chunk: int):
    """Yield ``(block, row, edges)`` per symbol chunk of the (K, M, N) chip signs.

    A chunk holds at most ``max_chunk`` symbols, and fewer where P^2
    cross-Grams would pass ``_GRAM_CHUNK_ELEMS``; the P(P+1)/2 upper ones
    and a consumer's transposed scratch stay within that.  ``row`` is the
    chunk's first block row, (P, size, K, K) float32, overwritten by the
    next chunk: row[b] = B[0, b] = W_0 W_b^T, the sign cross-Grams of the
    Sylvester windows W_a (chips P-1-a .. N-1-a), one batched GEMM each.
    Every entry is an integer of magnitude at most N-P+1, exact in float32.
    Down each diagonal, window a gains chip P-1-a and drops chip N-a, so
    B[a, b] = B[a-1, b-1] + s(P-1-a) s(P-1-b)^T - s(N-a) s(N-b)^T; ``edges``
    holds those signs, (size, P-1, 2, K) float32, with edges[:, a-1] the
    (gained, dropped) chips of window a.
    """
    k, m, n = chips.shape
    chunk = max(1, min(m, max_chunk, _GRAM_CHUNK_ELEMS // (taps * taps * k * k)))
    buf = np.empty((taps, chunk, k, k), dtype=np.float32)
    signs = np.empty((chunk, k, n), dtype=np.float32)
    # chips gained and dropped by windows 1 .. P-1
    edge_chips = np.stack([np.arange(taps - 2, -1, -1), np.arange(n - 1, n - taps, -1)], axis=-1)
    for lo in range(0, m, chunk):
        s = signs[: min(chunk, m - lo)]
        np.copyto(s, chips[:, lo : lo + chunk].transpose(1, 0, 2))
        row = buf[:, : len(s)]
        for b in range(taps):
            window = s[:, :, taps - 1 - b : n - b].transpose(0, 2, 1)
            np.matmul(s[:, :, taps - 1 :], window, out=row[b])
        yield slice(lo, lo + len(s)), row, s.transpose(0, 2, 1)[:, edge_chips]


@cache
def _kron_orbits(taps: int) -> tuple[tuple[int, int, int, int], ...]:
    """The least (a, b, c, d) of each orbit under (c, d, a, b) and (b, a, d, c)."""
    return tuple(
        q
        for q in itertools.product(range(taps), repeat=4)
        if q <= min((q[2], q[3], q[0], q[1]), (q[1], q[0], q[3], q[2]), (q[3], q[2], q[1], q[0]))
    )


@cache
def _hermitian_block_terms(taps: int) -> tuple[tuple, tuple]:
    """The orbit sums behind each entry of the real and the imaginary block.

    Entry (s, t) combines G[v_s, v_t] and G[v_s, v_t^T] (see
    :func:`build_normal_equations`), with G[(a, c), (b, d)] = G[a, b, c, d]
    and v_s = col_s P + row_s the vec position of slot s.  Per block this
    returns (s, t, first, second) for every slot pair, each term a
    (transposed, orbit) index into the orbit sums of :func:`_kron_orbits`.
    """
    where = {}
    for q, (a, b, c, d) in enumerate(_kron_orbits(taps)):
        where[a, b, c, d] = where[c, d, a, b] = (0, q)
        where[b, a, d, c] = where[d, c, b, a] = (1, q)
    row, col, is_im = free_slot_index(taps)
    terms = []
    for part in (~is_im, is_im):
        r, c = row[part].tolist(), col[part].tolist()
        terms.append(
            tuple(
                (s, t, where[c[s], c[t], r[s], r[t]], where[c[s], r[t], r[s], c[t]])
                for s, t in itertools.product(range(len(r)), repeat=2)
            )
        )
    return terms[0], terms[1]


def _correlate(chips: np.ndarray, r: np.ndarray, taps: int):
    """Yield ``(block, a)`` per symbol chunk: the per-user correlator outputs
    a_k(m) = C_k^(m)T r(m) of the chunk's symbols, (size, K, P) complex.

    ``chips`` holds the (K, Mi, N) chip signs and ``r`` the matching
    (Mi, N-P+1) windows.  Tap p reads chip n + P-1-p against r(m)[n], so
    this is one real GEMM per symbol of the signs against P zero-padded
    shifts of (Re r, Im r), interleaved to view as complex and scaled by
    1/sqrt(N).  A symbol chunk at a time, the signs are converted to
    float64 for its GEMMs alone, the shifts are written into one
    chunk-sized buffer whose pads stay zero (every chunk rewrites the same
    signal positions), and the outputs into another, which the next chunk
    overwrites.  The SOS right-hand side squares these outputs; the joint
    training fit weights them by the conjugate training symbols.  Each
    reduces a chunk before it asks for the next.
    """
    k, mi, n = chips.shape
    n_w = r.shape[1]
    step = max(1, model._CHUNK_ELEMS // (k * n))
    shifted = np.zeros((min(step, mi), n, taps, 2))
    outputs = np.empty((min(step, mi), k, 2 * taps))
    for lo in range(0, mi, step):
        block = slice(lo, lo + step)
        window = r[block]
        shift, out = shifted[: len(window)], outputs[: len(window)]
        for p in range(taps):
            start = taps - 1 - p
            shift[:, start : start + n_w, p, 0] = window.real
            shift[:, start : start + n_w, p, 1] = window.imag
        np.matmul(
            chips[:, block].astype(float).transpose(1, 0, 2),
            shift.reshape(len(window), n, 2 * taps),
            out=out,
        )
        out /= np.sqrt(n)
        yield slice(lo, lo + len(window)), out.view(complex)


def _sos_rhs(chips: np.ndarray, r: np.ndarray, taps: int, noise_var: float) -> np.ndarray:
    """y_k = mean_m vec(a_k a_k^H) - noise_var * mean_m vec(C_k^T C_k), (K, P^2).

    With v_k(m) = (Re a_0, Im a_0, Re a_1, ...) and Q_k = sum_m v_k v_k^T,
    summed a correlator chunk at a time and then made exactly symmetric,
    sum_m a_r conj(a_c) = Q[2r, 2c] + Q[2r+1, 2c+1]
    + i (Q[2r+1, 2c] - Q[2r, 2c+1]) is exactly Hermitian: one real product
    per chunk.
    """
    k, mi, _ = chips.shape
    q = np.zeros((k, 2 * taps, 2 * taps))
    for _, a in _correlate(chips, r, taps):
        v = a.view(float)  # (size, K, 2P)
        q += np.matmul(v.transpose(1, 2, 0), v.transpose(1, 0, 2))
    q = ((q + q.swapaxes(-1, -2)) / (2 * mi)).reshape(k, taps, 2, taps, 2).transpose(0, 3, 4, 1, 2)
    moments = q[:, :, 0, :, 0] + q[:, :, 1, :, 1] + 1j * (q[:, :, 0, :, 1] - q[:, :, 1, :, 0])
    rhs = moments - noise_var * (_self_gram(chips, taps) / mi)  # [k, c, r]: vec order
    return rhs.reshape(k, taps * taps)


def _self_gram(chips: np.ndarray, taps: int) -> np.ndarray:
    """sum_m C_k^(m)T C_k^(m) for every user from chip lag products, (K, P, P).

    Entry (p, q), p > q, sums c(n + P-1-p) c(n + P-1-p + p-q) over the
    N-P+1 window chips n: a window, starting at chip P-1-p, of the lag-(p-q)
    products summed over symbols, read off their cumulative sum.  The
    products of the +-1 signs are summed exactly in int8 over blocks of
    ``_INT8_TERMS`` symbols, then in int64, and divided by N once.  At lag
    0 every product is 1, so each diagonal entry is Mi (N-P+1) / N.
    """
    k, mi, n = chips.shape
    n_w = n - taps + 1
    out = np.empty((k, taps, taps))
    diag = np.arange(taps)
    out[:, diag, diag] = mi * n_w
    for lag in range(1, taps):
        prods = np.zeros((k, n - lag), dtype=np.int64)
        for lo in range(0, mi, _INT8_TERMS):
            block = chips[:, lo : lo + _INT8_TERMS]
            prods += np.multiply(block[..., : n - lag], block[..., lag:]).sum(axis=1, dtype=np.int8)
        csum = np.zeros((k, n - lag + 1), dtype=np.int64)
        np.cumsum(prods, axis=-1, out=csum[:, 1:])
        for p in range(lag, taps):
            lo = taps - 1 - p
            out[:, p, p - lag] = out[:, p - lag, p] = csum[:, lo + n_w] - csum[:, lo]
    return out / n


def estimate_sos(
    rhs: np.ndarray, gram: tuple[np.ndarray, np.ndarray] | None = None
) -> np.ndarray:
    """Solve (or approximate) T d = y; returns the per-user SOS vectors (K, P^2).

    Without a Gram this takes d = y outright (the large-system T -> I
    approximation).  With the (real, imaginary) blocks of
    :func:`build_normal_equations` it solves each block, by
    :func:`_solve_spd`, against the matching free variables of y, which
    must be Hermitian per user as that function returns it
    (:func:`free_vars` raises ``ValueError`` otherwise).  d is rebuilt
    from the free variables, so it is exactly Hermitian.  An off-diagonal
    free variable fills two vec positions, and a block entry is half their
    summed coefficient in T, so the blocks solve for the weighted free
    variables: f = blocks^-1 free_vars(y) / :func:`free_weights`.  The
    empty imaginary block of P = 1 is skipped.  Each block is factored in
    place and restored, so the caller's blocks end as they began.
    """
    if gram is None:
        return rhs
    k, size = rhs.shape
    taps = math.isqrt(size)
    _, _, is_im = free_slot_index(taps)
    f = free_vars(rhs)
    for block, part in zip(gram, (~is_im, is_im)):
        if block.size:
            f[:, part] = _solve_spd(block, f[:, part].reshape(-1)).reshape(k, -1)
    return free_vars_inverse(f / free_weights(taps))


def _solve_spd(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve gram x = rhs for a symmetric (or Hermitian) positive definite Gram.

    One Cholesky factorization gram = L L^H serves both as the
    positive-definiteness test and as the solve, by blocked forward and
    back substitution.  A Gram whose factorization fails, or whose factor
    is singular to working precision -- its smallest pivot L_ii^2 is at
    most n * eps times its largest, eps = ``_EPS`` the float64 machine
    epsilon and n the order -- is retried with a relative ridge
    1e-8 ||diag(gram)|| on the diagonal; a second failure raises
    :class:`SingularSystemError` with the condition number of ``gram``.
    The SOS solve calls this once per Hermitian block, so each block takes
    its own ridge.

    L is written over the lower triangle of ``gram`` itself
    (:func:`_factor_lower`), with the ridge, if any, added to its diagonal
    in place, so no copy of the Gram is made.  ``gram`` must be a writeable
    float64 or complex128 array, exactly Hermitian: its strict upper
    triangle and a saved copy of its diagonal are never overwritten, and
    :func:`_restore_lower` rebuilds it from them before the ridged retry
    and before returning or raising, so the caller's array ends as it
    began.
    """
    n = gram.shape[0]
    diag = np.diagonal(gram).copy()
    try:
        for ridge in (0.0, _RIDGE):
            if ridge:
                _restore_lower(gram, diag + ridge * np.linalg.norm(diag))
            if _factor_lower(gram):
                pivots = np.diagonal(gram).real ** 2
                if pivots.min() > n * _EPS * pivots.max():
                    return _substitute(gram, rhs)
    finally:
        _restore_lower(gram, diag)
    raise SingularSystemError(
        "normal-equation matrix is singular or not positive definite",
        condition=float(np.linalg.cond(gram)),
    )


def _factor_lower(a: np.ndarray) -> bool:
    """Write the Cholesky factor L of ``a`` over its lower triangle, a
    ``_SOLVE_BLOCK``-wide block column at a time; False if ``a`` is not
    positive definite.

    Block column j is first updated by one GEMM of the factored columns
    left of it, then its diagonal block is factored by
    ``np.linalg.cholesky``, which reads only that block's lower triangle,
    and the panel below it is solved against the block's factor L_j as
    one GEMM by the inverse of L_j^H, which is faster than numpy's
    pivoting solve of the whole panel.  Only the lower triangle of the
    diagonal block is written back, so the strict upper triangle of ``a``
    is never written.
    """
    n = a.shape[0]
    for lo in range(0, n, _SOLVE_BLOCK):
        hi = min(lo + _SOLVE_BLOCK, n)
        block, panel = a[lo:hi, lo:hi], a[hi:, lo:hi]
        updated = block
        if lo:
            done = a[lo:hi, :lo].conj().T
            updated = block - a[lo:hi, :lo] @ done
            panel -= a[hi:, :lo] @ done
        try:
            factor = np.linalg.cholesky(updated)
        except np.linalg.LinAlgError:
            return False
        np.copyto(block, factor, where=np.tri(hi - lo, dtype=bool))
        if hi < n:  # panel = panel L^-H
            panel[...] = panel @ np.linalg.inv(factor).conj().T
    return True


def _restore_lower(a: np.ndarray, diag: np.ndarray) -> None:
    """Refill the strict lower triangle of ``a`` from the conjugate of its
    strict upper one, a block column at a time, and set its diagonal."""
    n = a.shape[0]
    for lo in range(0, n, _SOLVE_BLOCK):
        hi = min(lo + _SOLVE_BLOCK, n)
        strict = np.tri(n - lo, hi - lo, -1, dtype=bool)
        np.copyto(a[lo:, lo:hi], a[lo:hi, lo:].conj().T, where=strict)
    np.fill_diagonal(a, diag)


def _substitute(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Blocked forward then back substitution through a lower triangular factor.

    Only the lower triangle of ``factor`` is read, so it may hold anything
    above its diagonal.  Each ``_SOLVE_BLOCK``-row diagonal block is solved
    directly after the GEMM update from the rows already solved.  The back
    substitution reads L^H through the conjugate transpose of one block
    column of L at a time, so no conjugate of the whole factor is made.
    """
    x = np.array(rhs, dtype=np.result_type(factor, rhs))
    starts = range(0, factor.shape[0], _SOLVE_BLOCK)
    for lo in starts:
        hi = lo + _SOLVE_BLOCK
        x[lo:hi] -= factor[lo:hi, :lo] @ x[:lo]
        x[lo:hi] = np.linalg.solve(np.tril(factor[lo:hi, lo:hi]), x[lo:hi])
    for lo in reversed(starts):  # L^H, a block column of L at a time
        hi = lo + _SOLVE_BLOCK
        x[lo:hi] -= factor[hi:, lo:hi].conj().T @ x[hi:]
        x[lo:hi] = np.linalg.solve(np.tril(factor[lo:hi, lo:hi]).conj().T, x[lo:hi])
    return x


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
    Shape (P^2, 2P), or (..., P^2, 2P) for a (..., P) stack.
    """
    g = np.asarray(g, dtype=complex)
    taps = g.shape[-1]
    row, col, _ = free_slot_index(taps)
    bg = np.einsum("sij,...j->...si", hermitian_basis(taps), g)  # (..., P^2, P)
    scale = np.where(row == col, 2.0, 1.0)
    return scale[:, None] * np.concatenate([bg.real, bg.imag], axis=-1)


def free_vars(d: np.ndarray) -> np.ndarray:
    """Real free variables of vec'd Hermitian matrices, (..., P^2) -> (..., P^2).

    Raises ``ValueError`` when a reshaped matrix deviates from Hermitian
    symmetry by more than 1e-10 (max-abs).
    """
    d = np.asarray(d)
    taps = math.isqrt(d.shape[-1])
    mat = model.unvec(d, taps)
    if np.max(np.abs(mat - mat.conj().swapaxes(-1, -2))) > _HERMITIAN_TOL:
        raise ValueError("input is not Hermitian within tolerance 1e-10")
    row, col, is_im = free_slot_index(taps)
    entries = mat[..., row, col]
    return np.where(is_im, entries.imag, entries.real)


def free_vars_inverse(f: np.ndarray) -> np.ndarray:
    """Exact rebuild of vec'd Hermitian matrices sum_s f_s B_s, (..., P^2) -> (..., P^2).

    B_s is :func:`hermitian_basis`; each entry takes one or two free variables.
    """
    f = np.asarray(f)
    taps = math.isqrt(f.shape[-1])
    mat_t = np.einsum("sij,...s->...ji", hermitian_basis(taps), f)
    return mat_t.reshape(*f.shape[:-1], taps * taps)
