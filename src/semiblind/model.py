"""Synchronous long-code DS-CDMA signal model over block-fading FIR channels.

Everything here is a pure function of (parameters, rng) returning plain
arrays: the (K, P) channel gains, the (K, M, N) spreading chips, the (K, M)
symbols and the (M, N-P+1) ISI-free received windows.  Each chip is
+-1/sqrt(N); the chips array holds only its int8 sign, and every consumer
applies the 1/sqrt(N) once, in float64, after its sums.  Chip indices follow
the 1-based convention l = 1..N in all interface documentation; arrays are
stored 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SystemParams",
    "sample_channel",
    "sample_codes",
    "sample_symbols",
    "sylvester",
    "synthesize_received",
    "vec_outer",
    "unvec",
]

# QPSK constellation (+-1 +-j)/sqrt(2), indexed by 2-bit symbol
_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)
# chip signs drawn, or converted to float64 by the consumers, at a time (512 KB)
_CHUNK_ELEMS = 2**16


@dataclass(frozen=True)
class SystemParams:
    """All scalar constants of the synchronous uplink model.

    Attributes
    ----------
    users : int
        Number of active users K.
    gain : int
        Spreading gain N (chips per symbol).
    taps : int
        Channel order P (delay spread in chips).  Must satisfy P < N so the
        per-symbol window of N-P+1 chips is free of inter-symbol leakage.
    symbols : int
        Coherence block length M in symbols; channels are constant over it.
    train_symbols : int
        Training symbols M_t at the head of each block (0 <= M_t <= M).
    noise_var : float
        Complex noise variance per chip sample (dimensionless inverse SNR).
    """

    users: int
    gain: int
    taps: int
    symbols: int
    train_symbols: int = 0
    noise_var: float = 0.0

    def __post_init__(self):
        if self.users < 1 or self.gain < 1 or self.taps < 1 or self.symbols < 1:
            raise ValueError("users, gain, taps and symbols must all be >= 1")
        if self.taps >= self.gain:
            raise ValueError(
                f"channel order taps={self.taps} must be < spreading gain "
                f"gain={self.gain}"
            )
        if not 0 <= self.train_symbols <= self.symbols:
            raise ValueError("train_symbols must lie in [0, symbols]")
        if self.noise_var < 0:
            raise ValueError("noise_var must be nonnegative")

    @property
    def load(self) -> float:
        """System load beta = K/N."""
        return self.users / self.gain

    @property
    def train_frac(self) -> float:
        """Training fraction alpha = M_t/M."""
        return self.train_symbols / self.symbols

    @property
    def window(self) -> int:
        """Length N-P+1 of each ISI-free received window."""
        return self.gain - self.taps + 1


def vec_outer(g: np.ndarray) -> np.ndarray:
    """Column-stacked vec(g g^H) for one vector or a batch of row vectors.

    Entry c*P+r of the result is g[r] * conj(g[c]).
    """
    g = np.asarray(g)
    p = g.shape[-1]
    outer = np.einsum("...r,...c->...cr", g, g.conj())
    return outer.reshape(*g.shape[:-1], p * p)


def unvec(d: np.ndarray, taps: int) -> np.ndarray:
    """Inverse of column-stacked vec: reshape the last axis (P^2) to P x P."""
    d = np.asarray(d)
    return d.reshape(*d.shape[:-1], taps, taps).swapaxes(-1, -2)


def sample_channel(params: SystemParams, rng: np.random.Generator) -> np.ndarray:
    """Draw the (K, P) i.i.d. circularly-symmetric complex Gaussian taps, variance 1/P.

    Real and imaginary parts of each coefficient carry variance 1/(2P), so
    E{|g_k(p)|^2} = 1/P and E{||g_k||^2} = 1.  Row k is user k's channel g_k,
    and :func:`vec_outer` of the gains gives each user's SOS vec(g_k g_k^H).
    """
    k, p = params.users, params.taps
    scale = np.sqrt(1.0 / (2.0 * p))
    return scale * (rng.standard_normal((k, p)) + 1j * rng.standard_normal((k, p)))


def sample_codes(params: SystemParams, rng: np.random.Generator) -> np.ndarray:
    """Draw the (K, M, N) i.i.d. Rademacher chip signs as int8 +-1.

    Chip (k, m, l) is sign / sqrt(N).  The int32 draw consumes the generator
    exactly as the default int64 one would, and the signs equal its 2 b - 1.
    It goes straight into the int8 signs in pieces, which continue one
    stream: the generator keeps the unused half of its last 64-bit word.
    """
    signs = np.empty((params.users, params.symbols, params.gain), dtype=np.int8)
    for lo in range(0, signs.size, _CHUNK_ELEMS):
        size = min(_CHUNK_ELEMS, signs.size - lo)
        signs.reshape(-1)[lo : lo + size] = rng.integers(0, 2, size=size, dtype=np.int32)
    signs *= 2
    signs -= 1
    return signs


def sample_symbols(params: SystemParams, rng: np.random.Generator) -> np.ndarray:
    """Draw (K, M) uniform QPSK symbols; the first M_t of each user are training."""
    idx = rng.integers(0, 4, size=(params.users, params.symbols))
    return _QPSK[idx]


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


def synthesize_received(
    params: SystemParams,
    gains: np.ndarray,
    chips: np.ndarray,
    symbols: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Synthesize the (M, N-P+1) ISI-free received windows r(m).

    r(m) = sum_k C_k^(m) g_k x_k(m) + n(m), the analysis model.  With P < N
    the retained N-P+1 chips of each symbol never see the previous symbol's
    tail, so convolving the whole chip stream gives the same windows.
    ``chips`` holds the int8 chip signs of :func:`sample_codes`; the
    1/sqrt(N) scales the transmit weights instead.  The noise is drawn
    last: the (M, N-P+1) real parts, then the imaginary parts, each
    standard normal and scaled by sqrt(noise_var / 2).
    """
    k, n, p, m = params.users, params.gain, params.taps, params.symbols
    if gains.shape != (k, p):
        raise ValueError("channel shape inconsistent with params")
    if chips.shape != (k, m, n):
        raise ValueError("chips shape inconsistent with params")
    if symbols.shape != (k, m):
        raise ValueError("symbols shape inconsistent with params")

    # z(m)[l, p] = sum_k c_k(m)[l] x_k(m) g_k[p]: one real GEMM per symbol
    # of the chip signs against the (Re, Im)-interleaved transmit weights,
    # over symbol chunks converted to float64
    weights = np.multiply(symbols.T[:, :, None], gains / np.sqrt(n), dtype=complex)
    z = np.empty((m, n, 2 * p))
    step = max(1, _CHUNK_ELEMS // (k * n))
    for lo in range(0, m, step):
        block = slice(lo, lo + step)
        signs = chips[:, block].astype(float)
        np.matmul(signs.transpose(1, 2, 0), weights[block].view(float), out=z[block])
    z = z.view(complex)
    # window chip n of C_k g_k is sum_p c_k[n + P-1-p] g_k[p]: P shifted slices
    clean = z[:, p - 1 : p - 1 + params.window, 0].copy()
    for tap in range(1, p):
        lo = p - 1 - tap
        clean += z[:, lo : lo + params.window, tap]

    sigma = np.sqrt(params.noise_var / 2.0)
    noise = sigma * (
        rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape)
    )
    return clean + noise
