"""Synchronous long-code DS-CDMA signal model over block-fading FIR channels.

Everything here is a pure function of (parameters, rng): drawing channels,
spreading codes and symbols, and synthesizing the per-symbol ISI-free
received windows.  Chip indices follow the 1-based convention l = 1..N in
all interface documentation; arrays are stored 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SystemParams",
    "ChannelRealization",
    "CodeBook",
    "SymbolFrame",
    "ReceivedBlock",
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


@dataclass
class ChannelRealization:
    """Per-user channel taps and their vectorized outer products.

    ``gains[k]`` is the length-P complex coefficient vector of user k and
    ``sos[k] = vec(gains[k] gains[k]^H)`` its column-stacked rank-one
    second-order statistic (length P^2).
    """

    gains: np.ndarray  # (K, P) complex
    sos: np.ndarray  # (K, P^2) complex


@dataclass
class CodeBook:
    """Per-user, per-symbol spreading chips, each chip +-1/sqrt(N)."""

    chips: np.ndarray  # (K, M, N) float


@dataclass
class SymbolFrame:
    """Unit-energy channel symbols; the first ``SystemParams.train_symbols``
    of each user are the training symbols."""

    symbols: np.ndarray  # (K, M) complex


@dataclass
class ReceivedBlock:
    """ISI-free received windows r(m), one length N-P+1 vector per symbol."""

    windows: np.ndarray  # (M, N-P+1) complex


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


def sample_channel(params: SystemParams, rng: np.random.Generator) -> ChannelRealization:
    """Draw i.i.d. circularly-symmetric complex Gaussian taps, variance 1/P.

    Real and imaginary parts of each coefficient carry variance 1/(2P), so
    E{|g_k(p)|^2} = 1/P and E{||g_k||^2} = 1.
    """
    k, p = params.users, params.taps
    scale = np.sqrt(1.0 / (2.0 * p))
    gains = scale * (rng.standard_normal((k, p)) + 1j * rng.standard_normal((k, p)))
    return ChannelRealization(gains=gains, sos=vec_outer(gains))


def sample_codes(params: SystemParams, rng: np.random.Generator) -> CodeBook:
    """Draw i.i.d. Rademacher chips scaled by 1/sqrt(N) for every (k, m, l).

    The int32 draw consumes the generator exactly as the default int64 one
    would, and the in-place scaling gives the same chips as
    (2 b - 1) / sqrt(N) without its float64 temporaries.
    """
    shape = (params.users, params.symbols, params.gain)
    chips = rng.integers(0, 2, size=shape, dtype=np.int32).astype(float)
    chips *= 2.0
    chips -= 1.0
    chips /= np.sqrt(params.gain)
    return CodeBook(chips=chips)


def sample_symbols(params: SystemParams, rng: np.random.Generator) -> SymbolFrame:
    """Draw uniform QPSK symbols; the first M_t of each user are training."""
    idx = rng.integers(0, 4, size=(params.users, params.symbols))
    return SymbolFrame(symbols=_QPSK[idx])


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
    channel: ChannelRealization,
    codes: CodeBook,
    symbols: SymbolFrame,
    rng: np.random.Generator,
) -> ReceivedBlock:
    """Synthesize the M ISI-free received windows r(m) of length N-P+1.

    r(m) = sum_k C_k^(m) g_k x_k(m) + n(m), the analysis model.  With P < N
    the retained N-P+1 chips of each symbol never see the previous symbol's
    tail, so convolving the whole chip stream gives the same windows.  The
    noise is drawn last: the (M, N-P+1) real parts, then the imaginary
    parts, each standard normal and scaled by sqrt(noise_var / 2).
    """
    k, n, p, m = params.users, params.gain, params.taps, params.symbols
    if channel.gains.shape != (k, p):
        raise ValueError("channel shape inconsistent with params")
    if codes.chips.shape != (k, m, n):
        raise ValueError("codes shape inconsistent with params")
    if symbols.symbols.shape != (k, m):
        raise ValueError("symbols shape inconsistent with params")

    # z(m)[l, p] = sum_k c_k(m)[l] x_k(m) g_k[p]: one real GEMM per symbol
    # of the chips against the (Re, Im)-interleaved transmit weights
    weights = np.multiply(symbols.symbols.T[:, :, None], channel.gains, dtype=complex)
    z = np.matmul(codes.chips.transpose(1, 2, 0), weights.view(float)).view(complex)
    # window chip n of C_k g_k is sum_p c_k[n + P-1-p] g_k[p]: P shifted slices
    clean = z[:, p - 1 : p - 1 + params.window, 0].copy()
    for tap in range(1, p):
        lo = p - 1 - tap
        clean += z[:, lo : lo + params.window, tap]

    sigma = np.sqrt(params.noise_var / 2.0)
    noise = sigma * (
        rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape)
    )
    return ReceivedBlock(windows=clean + noise)
