"""Synchronous long-code DS-CDMA signal model over block-fading FIR channels.

Everything here is a pure function of (parameters, rng) returning plain
arrays: the (K, P) channel gains, the (K, M, N) spreading chips, the (K, M)
symbols and the (M, N-P+1) ISI-free received windows.  Each chip is
+-1/sqrt(N); the chips array holds only its int8 sign.  Every consumer
checks the signs and applies the 1/sqrt(N) once, in float64, after its
sums.  The signs are drawn, and converted to float64 by their consumers,
a chunk of about ``_CHUNK_ELEMS`` at a time, and the synthesis writes each
symbol chunk's windows straight into its output, so no temporary outgrows
one chunk.  Chip indices follow the 1-based convention l = 1..N in all
interface documentation; arrays are stored 0-based.  The module also owns
the weight rules: alpha = M_t/M lies in (0, 1), and w and omega in [0, 1];
and the training fit's rank rule M_t (N-P+1) >= K P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "SystemParams",
    "sample_channel",
    "sample_codes",
    "sample_symbols",
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
    """All scalar constants of the synchronous uplink model.  A value that breaks
    a rule below raises ``ConfigError`` naming its symbol.

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
        named = {"user count K": self.users, "spreading gain N": self.gain,
                 "channel order P": self.taps, "coherence block M": self.symbols}
        for name, value in named.items():
            if value < 1:
                raise ConfigError(f"{name}={value} must be >= 1")
        if self.taps >= self.gain:
            raise ConfigError(f"channel order P={self.taps} must be below spreading gain N={self.gain}")
        if not 0 <= self.train_symbols <= self.symbols:
            raise ConfigError(f"training block M_t={self.train_symbols} must lie in [0, M]")
        if self.noise_var < 0:
            raise ConfigError(f"noise variance sigma_n2={self.noise_var} must be >= 0")

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


def _check_train_frac(alpha: float) -> float:
    """The training fraction ``alpha`` = M_t/M, once it is checked to lie in (0, 1)."""
    if not 0 < alpha < 1:
        raise ConfigError(f"training fraction alpha={alpha} must lie in (0, 1)")
    return alpha


def _check_training_rank(params: SystemParams) -> None:
    """Raise ``ConfigError`` unless the joint training fit has M_t (N-P+1) >= K P samples."""
    samples, taps = params.train_symbols * params.window, params.users * params.taps
    if samples < taps:
        raise ConfigError(
            f"joint least-squares training needs M_t (N-P+1) >= K P; got "
            f"{samples} training samples for {taps} taps"
        )


def _check_unit_weight(name: str, value: float | np.ndarray) -> np.ndarray:
    """The weight ``name``, a scalar or one per batch entry, as floats in [0, 1]."""
    weights = np.asarray(value, dtype=float)
    bad = ~((weights >= 0) & (weights <= 1))  # NaN fails too
    if np.any(bad):  # an array names its first offender, not every entry
        shown = f"{weights[bad][0]} (first of {np.count_nonzero(bad)} of {bad.size} values)"
        raise ValueError(f"{name}={shown if weights.ndim else value} must lie in [0, 1]")
    return weights


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

    Chip (k, m, l) is sign / sqrt(N).  The signs equal 2 b - 1 of the
    default int64 draw ``rng.integers(0, 2, (K, M, N))``, and the generator
    ends in the same state.  That draw takes bit 31 of each 32-bit half of
    the generator's 64-bit words, low half first, keeping an unused half
    for the next 32-bit draw.  Here the whole words come from
    ``bit_generator.random_raw`` in pieces of ``_CHUNK_ELEMS`` signs.  Read
    as an int32, a half is negative exactly when its b is 1, so one
    comparison writes b straight into the signs.  A half the generator
    already holds, and the last word or odd half, are taken by int32
    draws, so the pieces continue one stream and the generator keeps its
    last unused half as the int64 draw leaves it.

    Raises
    ------
    ValueError
        For a bit generator that does not split 64-bit words into 32-bit
        halves, such as MT19937.
    """
    bitgen = rng.bit_generator
    state = bitgen.state
    if "has_uint32" not in state:
        raise ValueError(
            f"chip signs need a bit generator of 64-bit words, not {type(bitgen).__name__}"
        )
    signs = np.empty((params.users, params.symbols, params.gain), dtype=np.int8)
    flat = signs.reshape(-1)
    # whole words fill [lo, hi): after a held half, before the last word or odd half
    lo = int(state["has_uint32"])
    hi = max(lo, flat.size - 2 + (flat.size - lo) % 2)
    flat[:lo] = rng.integers(0, 2, size=lo, dtype=np.int32)
    step = 2 * max(1, _CHUNK_ELEMS // 2)
    for start in range(lo, hi, step):
        size = min(step, hi - start)
        words = bitgen.random_raw(size // 2).astype("<u8", copy=False)  # low half first
        np.less(words.view("<i4"), 0, out=flat[start : start + size].view(np.bool_))
        del words  # before the next piece is drawn
    flat[hi:] = rng.integers(0, 2, size=flat.size - hi, dtype=np.int32)
    signs *= 2
    signs -= 1
    return signs


def _check_signs(chips: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``chips`` holds integer signs of exactly +-1,
    as :func:`sample_codes` draws them, from their minimum, maximum and count
    of nonzeros alone: no temporary of the chips' size."""
    nonzero = np.issubdtype(chips.dtype, np.integer) and np.count_nonzero(chips) == chips.size
    if not (nonzero and chips.min() >= -1 and chips.max() <= 1):
        raise ValueError(
            "chips must be integer signs of exactly +-1 (each chip is sign/sqrt(N)), "
            "as model.sample_codes draws them"
        )


def _check_shapes(params: SystemParams, **arrays: np.ndarray) -> None:
    """Raise ``ValueError`` unless each named array has its shape under ``params``."""
    k, m = params.users, params.symbols
    shapes = {"gains": (k, params.taps), "chips": (k, m, params.gain), "symbols": (k, m)}
    shapes["windows"] = (m, params.window)
    for name, array in arrays.items():
        if array.shape != shapes[name]:
            raise ValueError(f"{name} shape inconsistent with params")


def sample_symbols(params: SystemParams, rng: np.random.Generator) -> np.ndarray:
    """Draw (K, M) uniform QPSK symbols; the first M_t of each user are training."""
    idx = rng.integers(0, 4, size=(params.users, params.symbols))
    return _QPSK[idx]


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
    1/sqrt(N) scales the transmit weights instead.  The windows are built a
    symbol chunk at a time, straight into the output.  The noise is drawn
    last, as one (2, M, N-P+1) standard normal array: the real parts, then
    the imaginary parts, each scaled by sqrt(noise_var / 2).  Arrays off
    ``params`` and chips that are not signs of exactly +-1 raise ``ValueError``.
    """
    _check_shapes(params, gains=gains, chips=chips, symbols=symbols)
    _check_signs(chips)
    k, n, p, m = params.users, params.gain, params.taps, params.symbols

    # z(m)[l, p] = sum_k c_k(m)[l] x_k(m) g_k[p]: one real GEMM per symbol
    # of the chip signs, converted to float64 for it alone, against the
    # (Re, Im)-interleaved transmit weights; window chip l of C_k g_k is
    # sum_p c_k[l + P-1-p] g_k[p], a sum of P shifted slices of z
    scaled = gains / np.sqrt(n)
    out = np.empty((m, params.window), dtype=complex)
    step = max(1, _CHUNK_ELEMS // (k * n))
    for lo in range(0, m, step):
        block = slice(lo, lo + step)
        weights = np.multiply(symbols.T[block, :, None], scaled, dtype=complex)
        z = np.matmul(chips[:, block].astype(float).transpose(1, 2, 0), weights.view(float))
        z = z.view(complex)
        clean = out[block]
        np.copyto(clean, z[:, p - 1 : p - 1 + params.window, 0])
        for tap in range(1, p):
            start = p - 1 - tap
            clean += z[:, start : start + params.window, tap]

    noise = rng.standard_normal((2, *out.shape))
    noise *= np.sqrt(params.noise_var / 2.0)
    out.real += noise[0]
    out.imag += noise[1]
    return out
