"""Tests for the signal model: sampling, Sylvester structure, synthesis."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semiblind import analytic, estimators, model
from semiblind.errors import ConfigError
from helpers import full_stream_windows, seeded_rng, sylvester


def make_params(**kw):
    base = dict(users=4, gain=32, taps=3, symbols=50, train_symbols=10, noise_var=0.5)
    base.update(kw)
    return model.SystemParams(**base)


class TestSystemParams:
    def test_derived_quantities(self):
        p = make_params(users=16, gain=64, taps=3, symbols=400, train_symbols=80)
        assert p.load == 16 / 64
        assert p.train_frac == 80 / 400
        assert p.window == 62

    @pytest.mark.parametrize(
        "kw, symbol",
        [
            (dict(users=0), "user count K=0 must be >= 1"),
            (dict(taps=32), "channel order P=32 must be below spreading gain N=32"),
            (dict(taps=0), "channel order P=0 must be >= 1"),
            (dict(train_symbols=51), "M_t=51"),
            (dict(train_symbols=-1), "M_t=-1"),
            (dict(noise_var=-0.1), "sigma_n2=-0.1"),
            (dict(gain=0), "spreading gain N=0 must be >= 1"),
            (dict(symbols=0, train_symbols=0), "coherence block M=0 must be >= 1"),
        ],
        ids=[f"kw{i}" for i in range(8)],
    )
    def test_rejects_invalid(self, kw, symbol):
        # the one owner of a system's rules, each error naming its symbol
        with pytest.raises(ConfigError, match=symbol):
            make_params(**kw)


class TestWeightRules:
    """Every estimator and prediction applies the one rule of each weight."""

    G = np.array([0.6, 0.3 - 0.2j, 0.1j])

    @pytest.mark.parametrize("train", [0, 50], ids=["alpha_0", "alpha_1"])
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda p, g: estimators.weight_w(p.train_frac, 0.5, 1.0), id="weight_w"),
            pytest.param(lambda p, g: analytic.efficiency(1.0, 0.5, p.train_frac), id="efficiency"),
            pytest.param(lambda p, g: analytic.real_covariance(np.eye(9), p), id="real_covariance"),
            pytest.param(lambda p, g: analytic.mm_error_covariance(g, p), id="mm_error_covariance"),
            pytest.param(
                lambda p, g: analytic.predict_subspace_mse(g, p, 0.5), id="predict_subspace_mse"
            ),
        ],
    )
    def test_training_fraction_in_open_unit_interval(self, call, train):
        p = make_params(train_symbols=train)
        with pytest.raises(ConfigError, match=r"training fraction alpha=.* must lie in \(0, 1\)"):
            call(p, self.G)

    @pytest.mark.parametrize("weight", [-0.1, 1.1, np.nan, np.full(40, np.nan)])
    @pytest.mark.parametrize(
        "call,name",
        [
            (lambda g, w: estimators.mm_semiblind(g, model.vec_outer(g), w), "weight"),
            (lambda g, w: estimators.subspace_semiblind(g, model.vec_outer(g), w), "omega"),
            (lambda g, w: analytic.predict_subspace_mse(g, make_params(), w), "omega"),
        ],
        ids=["mm_semiblind", "subspace_semiblind", "predict_subspace_mse"],
    )
    def test_weight_in_closed_unit_interval(self, call, name, weight):
        with pytest.raises(ValueError, match=rf"^{name}=.* must lie in \[0, 1\]$"):
            call(self.G, weight)


class TestSampleChannel:
    def test_p1_rank_one_identity(self):
        p = make_params(taps=1, users=1)
        gains = model.sample_channel(p, seeded_rng(1))
        g = gains[0, 0]
        assert model.unvec(model.vec_outer(gains[0]), 1)[0, 0] == pytest.approx(abs(g) ** 2)

    def test_trace_identity(self):
        p = make_params()
        gains = model.sample_channel(p, seeded_rng(2))
        for k in range(p.users):
            mat = model.unvec(model.vec_outer(gains[k]), p.taps)
            assert np.trace(mat).real == pytest.approx(
                np.linalg.norm(gains[k]) ** 2, rel=1e-12
            )
            # rank-one Hermitian PSD
            assert np.allclose(mat, mat.conj().T)
            vals = np.linalg.eigvalsh(mat)
            assert vals[-1] == pytest.approx(np.linalg.norm(gains[k]) ** 2, rel=1e-12)
            assert np.all(vals[:-1] < 1e-12)

    def test_tap_variance(self):
        # 1e5 draws at P=3: mean |g(p)|^2 within 0.333 +- 0.01
        p = model.SystemParams(users=100, gain=8, taps=3, symbols=1)
        draws = np.concatenate(
            [model.sample_channel(p, seeded_rng(3, i)) for i in range(334)]
        )
        assert draws.shape[0] * draws.shape[1] >= 1e5
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(1 / 3, abs=0.01)


class TestSampleCodes:
    def test_chip_values(self):
        p = make_params(gain=4, taps=2)
        chips = model.sample_codes(p, seeded_rng(4))
        assert chips.dtype == np.int8
        assert set(np.unique(chips)) == {-1, 1}  # signs of the +-0.5 chips

    def test_unit_norm_codewords(self):
        p = make_params(gain=16, taps=2)
        chips = model.sample_codes(p, seeded_rng(5)) / np.sqrt(p.gain)
        norms = np.sum(chips**2, axis=-1)
        assert np.all(norms == 1.0)  # 1/16 is exact in binary

    def test_chip_mean(self):
        p = model.SystemParams(users=10, gain=64, taps=2, symbols=200)
        chips = model.sample_codes(p, seeded_rng(6)) / np.sqrt(p.gain)
        assert chips.size > 1e5
        assert abs(chips.mean()) < 0.02 / np.sqrt(64)

    @pytest.mark.parametrize("users,symbols,gain", [(3, 5, 64), (2, 7, 48), (3, 3, 10), (1, 3, 9)])
    def test_draw_pinned_to_int64_formula(self, users, symbols, gain):
        # int8 signs equal to 2 b - 1 of the int64 draw, and the same
        # generator state afterwards, also for an odd number of draws (1 x 3 x 9)
        p = model.SystemParams(users=users, gain=gain, taps=1, symbols=symbols)
        rng, ref_rng = seeded_rng(7), seeded_rng(7)
        chips = model.sample_codes(p, rng)
        size = (users, symbols, gain)
        ref = 2 * ref_rng.integers(0, 2, size) - 1
        assert chips.dtype == np.int8
        assert np.array_equal(chips, ref)
        after = model.sample_symbols(p, rng)
        assert np.array_equal(after, model.sample_symbols(p, ref_rng))

    @pytest.mark.parametrize("users,symbols,gain", [(3, 7, 9), (5, 3, 11)])
    def test_pieces_continue_the_stream(self, monkeypatch, users, symbols, gain):
        # pieces of 7 values end inside a 64-bit generator word, whose unused
        # half the next piece must take up, as the one-piece draw does
        monkeypatch.setattr(model, "_CHUNK_ELEMS", 7)
        p = model.SystemParams(users=users, gain=gain, taps=1, symbols=symbols)
        rng, ref_rng = seeded_rng(8), seeded_rng(8)
        chips = model.sample_codes(p, rng)
        ref = 2 * ref_rng.integers(0, 2, (users, symbols, gain)) - 1
        assert np.array_equal(chips, ref)
        assert np.array_equal(model.sample_codes(p, rng), model.sample_codes(p, ref_rng))

    @pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.SFC64, np.random.Philox])
    @pytest.mark.parametrize("held", [0, 1, 3])
    def test_held_half_and_bit_generators(self, bitgen, held):
        # after an odd number of 32-bit draws the generator holds the unused
        # half of a word, which the signs must take first
        p = model.SystemParams(users=2, gain=9, taps=1, symbols=5)
        rng, ref_rng = np.random.Generator(bitgen(11)), np.random.Generator(bitgen(11))
        rng.integers(0, 2, held, dtype=np.int32)
        ref_rng.integers(0, 2, held, dtype=np.int32)
        chips = model.sample_codes(p, rng)
        ref = 2 * ref_rng.integers(0, 2, (p.users, p.symbols, p.gain)) - 1
        assert np.array_equal(chips, ref)
        # a half left held shows in the next 32-bit draw
        after = rng.integers(0, 2**31, 3, dtype=np.int32)
        assert np.array_equal(after, ref_rng.integers(0, 2**31, 3, dtype=np.int32))
        assert np.array_equal(rng.random(2), ref_rng.random(2))

    def test_rejects_32_bit_generator(self):
        # MT19937's raw words are 32-bit: no pair of signs per word to read
        p = make_params()
        with pytest.raises(ValueError, match="MT19937"):
            model.sample_codes(p, np.random.Generator(np.random.MT19937(10)))

    def test_draw_peak_memory(self):
        # drawn in pieces: the 1.6 MB of int8 signs plus one int32 piece,
        # not a 6.6 MB int32 array of every chip
        p = model.SystemParams(users=64, gain=64, taps=3, symbols=400)
        rng = seeded_rng(9)
        tracemalloc.start()
        try:
            model.sample_codes(p, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3e6


class TestSampleSymbols:
    def test_qpsk_constellation(self):
        p = make_params(symbols=100, train_symbols=7)
        symbols = model.sample_symbols(p, seeded_rng(7))
        assert symbols.shape == (p.users, 100)
        assert np.allclose(np.abs(symbols), 1.0)
        assert np.allclose(symbols**4, -1.0)

    def test_second_moment_vanishes(self):
        p = model.SystemParams(users=100, gain=8, taps=2, symbols=1000)
        symbols = model.sample_symbols(p, seeded_rng(8))
        assert symbols.size >= 1e5
        assert abs(np.mean(symbols**2)) < 0.02


class TestSylvester:
    def test_p1_is_column(self):
        s = model.sample_codes(make_params(gain=16, taps=1), seeded_rng(9))[0, 0] / 4.0
        mat = sylvester(s, 1)
        assert mat.shape == (16, 1)
        assert np.array_equal(mat[:, 0], s)
        assert (mat.T @ mat)[0, 0] == 1.0

    def test_documented_layout(self):
        a, b, c, d = 0.5, -0.5, 0.5, 0.5
        mat = sylvester(np.array([a, b, c, d]), 2)
        assert np.array_equal(mat, [[b, a], [c, b], [d, c]])

    def test_rejects_large_order(self):
        with pytest.raises(ValueError):
            sylvester(np.ones(4), 4)
        with pytest.raises(ValueError):
            sylvester(np.ones((2, 3, 4)), 4)

    def test_stack_matches_single_words(self):
        chips = model.sample_codes(make_params(), seeded_rng(39))  # (K, M, N)
        stack = sylvester(chips, 3)
        assert stack.shape == (*chips.shape[:2], chips.shape[2] - 2, 3)
        for k, m in [(0, 0), (1, 7), (3, 49)]:
            assert np.array_equal(stack[k, m], sylvester(chips[k, m], 3))
            assert np.array_equal(stack[k, m, :, 0], chips[k, m, 2:])  # column 0: chips P..N

    def test_convolution_oracle(self):
        # C g equals the full convolution restricted to the ISI-free lags
        rng = seeded_rng(10)
        for n, p in [(16, 2), (32, 3), (64, 5)]:
            s = (2.0 * rng.integers(0, 2, n) - 1) / np.sqrt(n)
            g = rng.standard_normal(p) + 1j * rng.standard_normal(p)
            conv = np.convolve(s, g)[p - 1 : n]
            assert np.allclose(sylvester(s, p) @ g, conv, atol=1e-14)

    def test_near_orthogonal_columns(self):
        # seeded draw; entries of C^T C - I within 3/sqrt(N)
        n, p = 64, 3
        s = (2.0 * seeded_rng(11).integers(0, 2, n) - 1) / np.sqrt(n)
        mat = sylvester(s, p)
        assert np.max(np.abs(mat.T @ mat - np.eye(p))) < 3 / np.sqrt(n)


class TestSynthesize:
    def test_single_user_noiseless_p1(self):
        p = model.SystemParams(users=1, gain=16, taps=1, symbols=5, noise_var=0.0)
        gains = model.sample_channel(p, seeded_rng(12))
        chips = model.sample_codes(p, seeded_rng(13))
        symbols = np.ones((1, 5), dtype=complex)
        windows = model.synthesize_received(p, gains, chips, symbols, seeded_rng(14))
        for m in range(5):
            assert np.allclose(windows[m], gains[0, 0] * chips[0, m] / np.sqrt(p.gain))

    def test_matches_direct_sum(self):
        # independent per-user loop recomputation of sum_k C_k g_k x_k
        p = make_params(noise_var=0.0)
        gains = model.sample_channel(p, seeded_rng(15))
        chips = model.sample_codes(p, seeded_rng(16))
        symbols = model.sample_symbols(p, seeded_rng(17))
        windows = model.synthesize_received(p, gains, chips, symbols, seeded_rng(18))
        for m in range(p.symbols):
            direct = np.zeros(p.window, dtype=complex)
            for k in range(p.users):
                direct += (
                    sylvester(chips[k, m] / np.sqrt(p.gain), p.taps)
                    @ gains[k]
                    * symbols[k, m]
                )
            assert np.allclose(windows[m], direct, atol=1e-13)

    @given(data=st.data())
    def test_property_matches_direct_sum(self, data):
        # random shapes, from one tap up to P = N - 1
        gain = data.draw(st.integers(2, 12), label="N")
        taps = data.draw(
            st.one_of(st.just(1), st.just(gain - 1), st.integers(1, gain - 1)), label="P"
        )
        users = data.draw(st.integers(1, 4), label="K")
        symbols = data.draw(st.integers(1, 6), label="M")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        p = model.SystemParams(users=users, gain=gain, taps=taps, symbols=symbols)
        rng = seeded_rng(seed)
        gains = model.sample_channel(p, rng)
        chips = model.sample_codes(p, rng)
        x = model.sample_symbols(p, rng)
        windows = model.synthesize_received(p, gains, chips, x, rng)
        direct = np.array(
            [
                sum(
                    sylvester(chips[k, m] / np.sqrt(gain), taps) @ gains[k] * x[k, m]
                    for k in range(users)
                )
                for m in range(symbols)
            ]
        )
        assert windows.shape == (symbols, p.window)
        assert np.max(np.abs(windows - direct)) <= 1e-13 * max(1.0, np.max(np.abs(direct)))

    def test_full_stream_agrees_on_retained_chips(self):
        p = model.SystemParams(users=8, gain=32, taps=3, symbols=40, noise_var=0.0)
        gains = model.sample_channel(p, seeded_rng(19))
        chips = model.sample_codes(p, seeded_rng(20))
        symbols = model.sample_symbols(p, seeded_rng(21))
        isi_free = model.synthesize_received(p, gains, chips, symbols, seeded_rng(22))
        full = full_stream_windows(p, gains, chips, symbols)
        assert np.allclose(isi_free, full, atol=1e-13)

    def test_received_power(self):
        # sigma=0: E||r||^2 -> sum_k ||g_k||^2 (N-P+1)/N within 5%
        p = model.SystemParams(users=8, gain=64, taps=3, symbols=1000, noise_var=0.0)
        gains = model.sample_channel(p, seeded_rng(23))
        chips = model.sample_codes(p, seeded_rng(24))
        symbols = model.sample_symbols(p, seeded_rng(25))
        windows = model.synthesize_received(p, gains, chips, symbols, seeded_rng(26))
        power = np.mean(np.sum(np.abs(windows) ** 2, axis=1))
        expected = np.sum(np.abs(gains) ** 2) * p.window / p.gain
        assert power == pytest.approx(expected, rel=0.05)

    def test_seed_reproducibility(self):
        p = make_params()
        args = lambda: (
            model.sample_channel(p, seeded_rng(27)),
            model.sample_codes(p, seeded_rng(28)),
            model.sample_symbols(p, seeded_rng(29)),
        )
        gains, chips, symbols = args()
        r1 = model.synthesize_received(p, gains, chips, symbols, seeded_rng(30))
        gains2, chips2, symbols2 = args()
        r2 = model.synthesize_received(p, gains2, chips2, symbols2, seeded_rng(30))
        assert np.array_equal(r1, r2)

    def test_synthesis_peak_memory(self):
        # built a symbol chunk at a time into the output: at K = 64, M = 400,
        # N = 64, P = 3 the windows, their noise and one chunk's float64 signs
        # peak below 1.5 MB
        p = model.SystemParams(users=64, gain=64, taps=3, symbols=400, noise_var=0.5)
        gains = model.sample_channel(p, seeded_rng(40))
        chips = model.sample_codes(p, seeded_rng(41))
        symbols = model.sample_symbols(p, seeded_rng(42))
        rng = seeded_rng(43)
        tracemalloc.start()
        try:
            model.synthesize_received(p, gains, chips, symbols, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    def test_dimension_mismatch_rejected(self):
        p = make_params()
        gains = model.sample_channel(p, seeded_rng(31))
        chips = model.sample_codes(p, seeded_rng(32))
        symbols = model.sample_symbols(p, seeded_rng(33))
        bad = model.SystemParams(users=4, gain=32, taps=2, symbols=50, train_symbols=10)
        with pytest.raises(ValueError):
            model.synthesize_received(bad, gains, chips, symbols, seeded_rng(34))

    @pytest.mark.parametrize("case", ["unit_chips", "int16_two"])
    def test_rejects_non_sign_chips(self, case):
        # the +-1/sqrt(N) chips, or int16 signs times 2, would give windows
        # scaled by 1/sqrt(N) or 2 without a word
        p = make_params()
        gains = model.sample_channel(p, seeded_rng(31))
        chips = model.sample_codes(p, seeded_rng(32))
        symbols = model.sample_symbols(p, seeded_rng(33))
        if case == "unit_chips":
            bad = chips / np.sqrt(p.gain)
        else:
            bad = chips.astype(np.int16) * 2
        with pytest.raises(ValueError, match="exactly"):
            model.synthesize_received(p, gains, bad, symbols, seeded_rng(34))

    def test_noise_retention(self):
        p = make_params()
        gains = model.sample_channel(p, seeded_rng(35))
        chips = model.sample_codes(p, seeded_rng(36))
        symbols = model.sample_symbols(p, seeded_rng(37))
        windows = model.synthesize_received(p, gains, chips, symbols, seeded_rng(38))
        quiet = model.synthesize_received(
            make_params(noise_var=0.0), gains, chips, symbols, seeded_rng(38)
        )
        # the documented draw: after the clean windows, every real part and
        # then every imaginary part, scaled by sqrt(noise_var / 2)
        rng, shape = seeded_rng(38), (p.symbols, p.window)
        noise = np.sqrt(p.noise_var / 2) * (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        )
        assert np.allclose(windows - quiet, noise, rtol=0, atol=1e-14)
