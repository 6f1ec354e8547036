"""Shared Monte Carlo machinery for the test suite.

Conditioned experiments fix the entire channel realization and redraw
codes, symbols and noise each trial: that is the ensemble over which the
large-system covariance formulas are stated.  "Representative" channel sets
additionally require the average per-user energy to sit near its mean of 1
so that the interference terms realized in the draw match the closed forms,
which assume unit average user energy.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from semiblind import analytic, estimators, model, sos


def seeded_rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(tuple(key)))


def representative_channels(
    params: model.SystemParams,
    *key: int,
    mean_tol: float = 0.02,
    user0_range: tuple[float, float] | None = None,
) -> np.ndarray:
    """Draw (K, P) channel gains until the energies are representative."""
    attempt = 0
    while True:
        gains = model.sample_channel(params, seeded_rng(*key, attempt))
        energy = np.linalg.norm(gains, axis=1) ** 2
        ok = abs(energy.mean() - 1.0) < mean_tol
        if ok and user0_range is not None:
            ok = user0_range[0] < energy[0] < user0_range[1]
        if ok:
            return gains
        attempt += 1


def draw_block(params, gains, rng):
    """Fresh chips, symbols and received windows for fixed channel gains."""
    chips = model.sample_codes(params, rng)
    symbols = model.sample_symbols(params, rng)
    windows = model.synthesize_received(params, gains, chips, symbols, rng)
    return chips, symbols, windows


def sylvester(code_words: np.ndarray, taps: int) -> np.ndarray:
    """Truncated Sylvester (banded convolution) matrices of code words.

    Row i (1-based) is (s(P+i-1), s(P+i-2), ..., s(i)); multiplying by a
    channel vector yields the convolution s * g restricted to the ISI-free
    lags P..N.  A (..., N) stack of code words gives a read-only
    (..., N-P+1, P) view of it, with no copy.
    """
    s = np.asarray(code_words)
    n = s.shape[-1]
    if taps >= n:
        raise ValueError(f"taps={taps} must be < code length {n}")
    return np.lib.stride_tricks.sliding_window_view(s, taps, axis=-1)[..., ::-1]


def full_stream_windows(params, gains, chips, symbols) -> np.ndarray:
    """Noiseless windows cut from the convolved whole chip stream, (M, N-P+1).

    Each symbol's first P-1 chips carry the previous symbol's tail; window m
    keeps chips mN+P .. (m+1)N (1-based chip times), which with P < N that
    tail never reaches.  ``chips`` holds the signs; each chip is
    sign / sqrt(N).
    """
    k, m, n = chips.shape
    stream = (symbols[:, :, None] * chips / np.sqrt(n)).reshape(k, m * n)
    total = sum(np.convolve(stream[ku], gains[ku]) for ku in range(k))
    starts = np.arange(m) * n + params.taps - 1
    return total[starts[:, None] + np.arange(params.window)[None, :]]


def sos_trials(
    params: model.SystemParams,
    gains: np.ndarray,
    n_trials: int,
    *key: int,
    mode: str = "identity",
    info_start: int = 0,
) -> np.ndarray:
    """SOS estimates (n_trials, K, P^2), channel held fixed; Hermitian in both modes.

    ``mode`` is ``identity`` (d = y) or ``solve`` (T d = y with the Gram).
    The moments are read from symbol ``info_start`` on, whatever M_t
    ``params`` holds; the draws do not depend on M_t.
    """
    info_params = replace(params, train_symbols=info_start)
    out = np.empty((n_trials, params.users, params.taps**2), dtype=complex)
    for t in range(n_trials):
        chips, _, windows = draw_block(params, gains, seeded_rng(*key, t))
        rhs, gram = sos.build_normal_equations(
            windows, chips, info_params, include_gram=mode == "solve"
        )
        out[t] = sos.estimate_sos(rhs, gram)
    return out


def training_trials(
    params: model.SystemParams,
    gains: np.ndarray,
    n_trials: int,
    *key: int,
) -> np.ndarray:
    """Training estimates (n_trials, K, P), channel held fixed."""
    out = np.empty((n_trials, params.users, params.taps), dtype=complex)
    for t in range(n_trials):
        chips, symbols, windows = draw_block(params, gains, seeded_rng(*key, t))
        out[t] = estimators.training_estimate(windows, chips, symbols, params)
    return out


def brute_force_system(params, chips, windows, noise_var, mean=True):
    """Materialize Q(m) explicitly; the oracle the fast path must match.

    ``chips`` holds the signs, scaled here to the +-1/sqrt(N) chips.
    Returns (T, y) with y in the (K, P^2) per-user layout; with
    ``mean=False``, their sums over the symbols, not yet divided by M.
    """
    k, p, n_w = params.users, params.taps, params.window
    chips = chips / np.sqrt(params.gain)
    dim = k * p * p
    gram = np.zeros((dim, dim))
    rhs = np.zeros(dim, dtype=complex)
    eye_vec = np.eye(n_w).reshape(-1, order="F")
    for m in range(params.symbols):
        q = np.hstack(
            [
                np.kron(
                    sylvester(chips[u, m], p),
                    sylvester(chips[u, m], p),
                )
                for u in range(k)
            ]
        )
        r = windows[m]
        gram += q.T @ q
        rhs += q.T @ np.outer(r, r.conj()).reshape(-1, order="F")
        rhs -= noise_var * (q.T @ eye_vec)
    rhs = rhs.reshape(k, p * p)
    if not mean:
        return gram, rhs
    return gram / params.symbols, rhs / params.symbols


def scaled_covariance(samples: np.ndarray, scale: int) -> np.ndarray:
    """scale * E{x x^H} of mean-subtracted sample rows."""
    centered = samples - samples.mean(axis=0)
    return scale * (centered.T @ centered.conj()) / (samples.shape[0] - 1)


def gram_only(params: model.SystemParams, rng: np.random.Generator) -> np.ndarray:
    """The normal-equation matrix T over all M symbols of one fresh code draw."""
    chips = model.sample_codes(params, rng)
    windows = np.zeros((params.symbols, params.window), dtype=complex)
    _, blocks = sos.build_normal_equations(windows, chips, replace(params, train_symbols=0))
    return dense_gram(blocks)


def _vec_positions(taps: int):
    """Vec positions v = col P + row and v^T = row P + col of each free slot."""
    row, col, _ = sos.free_slot_index(taps)
    return col * taps + row, row * taps + col


def hermitian_blocks(gram: np.ndarray, users: int, taps: int) -> tuple[np.ndarray, np.ndarray]:
    """The (real, imaginary) blocks of a dense T, as sos.build_normal_equations returns them.

    Entry ((i, s), (j, t)) is (T[(i, v_s), (j, v_t)] +- T[(i, v_s), (j, v_t^T)]) / 2
    over the slots of sos.free_slot_index without (+) and with (-) ``is_im``.
    """
    _, _, is_im = sos.free_slot_index(taps)
    pos, pos_t = _vec_positions(taps)
    rows = gram.reshape(users, taps * taps, users, taps * taps)
    blocks = []
    for part, sign in ((~is_im, 1), (is_im, -1)):
        v, vt = pos[part], pos_t[part]
        block = 0.5 * (rows[:, v][..., v] + sign * rows[:, v][..., vt])
        blocks.append(block.reshape(users * v.size, users * v.size))
    return blocks[0], blocks[1]


def dense_gram(blocks: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """T (K P^2, K P^2) rebuilt from its (real, imaginary) Hermitian blocks.

    T commutes with the per-user vec-transpose, so entry (v, w) of a user
    pair is R[s, t] + e_v e_w I[s', t'] with s, t the real and s', t' the
    imaginary slots of the matrix entries at vec positions v and w, e = +1
    at the slot's own position, -1 at its transpose and 0 on the diagonal.
    Exact for dyadic data (a power-of-two M_i N^2); otherwise within about
    an ulp of the block entries it combines.
    """
    real, imag = blocks
    taps = (len(real) + len(imag)) // (len(real) - len(imag))
    users = (len(real) - len(imag)) // taps
    _, _, is_im = sos.free_slot_index(taps)
    pos, pos_t = _vec_positions(taps)
    re_slot = np.empty(taps * taps, dtype=int)
    im_slot = np.full(taps * taps, -1)  # -1 reads the zero slot padded on below
    sign = np.zeros(taps * taps)
    for part, slot in ((~is_im, re_slot), (is_im, im_slot)):
        slot[pos[part]] = slot[pos_t[part]] = np.arange(np.count_nonzero(part))
    sign[pos[is_im]], sign[pos_t[is_im]] = 1.0, -1.0  # one is_im slot per strict upper entry
    n_re, n_im = len(real) // users, len(imag) // users
    r4 = real.reshape(users, n_re, users, n_re)
    i4 = np.zeros((users, n_im + 1, users, n_im + 1))
    i4[:, :n_im, :, :n_im] = imag.reshape(users, n_im, users, n_im)
    gram = r4[:, re_slot][..., re_slot] + np.multiply.outer(sign, sign)[None, :, None, :] * (
        i4[:, im_slot][..., im_slot]
    )
    return gram.reshape(users * taps * taps, users * taps * taps)


def record_chunk_sizes(monkeypatch, module) -> list[int]:
    """Patch ``module._cross_grams`` to append each chunk's symbol count to the returned list."""
    sizes = []
    kernel = sos._cross_grams

    def recording(*args):
        for block, cross in kernel(*args):
            sizes.append(block.stop - block.start)
            yield block, cross

    monkeypatch.setattr(module, "_cross_grams", recording)
    return sizes


def mm_sandwich(g: np.ndarray, params: model.SystemParams, weight: float) -> np.ndarray:
    """Scaled MM error covariance by the asymptotic sandwich, the oracle of
    :func:`analytic.mm_error_covariance`'s closed form.

    The stationarity map F(g, z) = 0 of the MM cost moves by
    dg = -H^-1 (dF/dz) dz when the observation z moves, so the error
    covariance is H^-1 (dF/dz) S (dF/dz)^T H^-1 with S the scaled
    observation covariance.  H is singular at weight 1.
    """
    hess, df_dz = analytic._stationarity_jacobians(g, weight)
    sens = -np.linalg.solve(hess, df_dz)
    sigma = sens @ analytic._scaled_obs_covariance(g, params) @ sens.swapaxes(-1, -2)
    return 0.5 * (sigma + sigma.swapaxes(-1, -2))
