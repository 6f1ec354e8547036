"""Shared Monte Carlo machinery for the test suite.

Conditioned experiments fix the entire channel realization and redraw
codes, symbols and noise each trial: that is the ensemble over which the
large-system covariance formulas are stated.  "Representative" channel sets
additionally require the average per-user energy to sit near its mean of 1
so that the interference terms realized in the draw match the closed forms,
which assume unit average user energy.
"""

from __future__ import annotations

import numpy as np

from semiblind import estimators, model, sos


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


def full_stream_windows(params, gains, chips, symbols) -> np.ndarray:
    """Noiseless windows cut from the convolved whole chip stream, (M, N-P+1).

    Each symbol's first P-1 chips carry the previous symbol's tail; window m
    keeps chips mN+P .. (m+1)N (1-based chip times), which with P < N that
    tail never reaches.
    """
    k, m, n = chips.shape
    stream = (symbols[:, :, None] * chips).reshape(k, m * n)
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
    """Hermitianized SOS estimates (n_trials, K, P^2), channel held fixed.

    ``mode`` is ``identity`` (d = y) or ``solve`` (T d = y with the Gram).
    """
    out = np.empty((n_trials, params.users, params.taps**2), dtype=complex)
    for t in range(n_trials):
        chips, _, windows = draw_block(params, gains, seeded_rng(*key, t))
        rhs, gram = sos.build_normal_equations(
            chips,
            windows,
            range(info_start, params.symbols),
            params.noise_var,
            include_gram=mode == "solve",
        )
        out[t] = sos.hermitianize(sos.estimate_sos(rhs, gram))
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


def scaled_covariance(samples: np.ndarray, scale: int) -> np.ndarray:
    """scale * E{x x^H} of mean-subtracted sample rows."""
    centered = samples - samples.mean(axis=0)
    return scale * (centered.T @ centered.conj()) / (samples.shape[0] - 1)


def gram_only(params: model.SystemParams, rng: np.random.Generator) -> np.ndarray:
    """The normal-equation matrix T for one fresh code draw (no data needed)."""
    chips = model.sample_codes(params, rng)
    windows = np.zeros((params.symbols, params.window), dtype=complex)
    _, gram = sos.build_normal_equations(
        chips, windows, range(params.symbols), 0.0, include_gram=True
    )
    return gram
