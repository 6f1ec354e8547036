"""Tests for the Monte Carlo sweep engine, configs and record emission."""

import concurrent.futures
import logging
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from semiblind import analytic, estimators, harness, model, sos
from semiblind.errors import ConfigError, SingularSystemError


def tiny_config(**kw):
    base = dict(
        gain=32, symbols=40, beta=(0.25,), sigma_n2=(0.5,), taps=(2,),
        alpha=(0.25,), trials=2, seed=9, estimator="all", draws=20,
    )
    base.update(kw)
    return harness.ExperimentConfig(**base)


# removed config keys, each with a value it once took
REMOVED_SETTINGS = {"synthesis": "isi-free", "omega_mode": "plugin", "format": "json"}


class TestConfig:
    def test_grid_cells_rounding(self):
        cfg = tiny_config(beta=(0.25, 0.5), alpha=(0.1, 0.25))
        cells = harness.grid_cells(cfg)
        assert len(cells) == 4
        assert cells[0].params.users == 8 and cells[0].params.train_symbols == 4
        # product order: beta outer, then sigma, taps, alpha
        assert [c.beta for c in cells] == [0.25, 0.25, 0.5, 0.5]
        # the key text seeds every trial stream of its cell
        assert cells[1].key() == "beta=0.25,sigma_n2=0.5,P=2,alpha=0.25"

    def test_validation(self):
        with pytest.raises(ConfigError):
            tiny_config(trials=0)
        with pytest.raises(ConfigError):
            tiny_config(beta=(0.0,))
        with pytest.raises(ConfigError):
            tiny_config(estimator="magic")
        with pytest.raises(ConfigError, match=re.escape("omega=1.5 must lie in [0, 1]")):
            tiny_config(omega=1.5)
        with pytest.raises(ConfigError, match="'magic'"):
            tiny_config(omega="magic")
        # grids with no valid cell: M = 0, P >= N, N = 0, M_t (N-P+1) < K P;
        # each cell's SystemParams and rank rule reject them in grid_cells
        with pytest.raises(ConfigError, match="M=0"):
            harness.grid_cells(tiny_config(symbols=0))
        with pytest.raises(ConfigError, match="P=32"):
            harness.grid_cells(tiny_config(taps=(2, 32)))
        with pytest.raises(ConfigError, match="N=0"):
            harness.grid_cells(tiny_config(gain=0))
        with pytest.raises(ConfigError, match="alpha=0.01"):
            harness.grid_cells(tiny_config(alpha=(0.25, 0.01)))

    @pytest.mark.parametrize(
        "field, value",
        [("sos_mode", "foo"), ("sos_mode", "iterative"), ("sos_mode", "identity-t")],
    )
    def test_rejects_unknown_modes(self, field, value):
        # checked once for the whole config, also where no estimator uses it
        with pytest.raises(ConfigError, match=repr(value)):
            tiny_config(estimator="training", **{field: value})

    def test_load_config_file(self, tmp_path):
        text = """
        # sweep description
        N = 32
        M = 40
        P = 2, 3
        beta = 0.25 0.5
        sigma_n2 = 0.5
        alpha = 0.25
        trials = 2
        seed = 7
        estimator = subspace
        """
        path = tmp_path / "sweep.cfg"
        path.write_text(text)
        cfg = harness.load_config(path)
        assert cfg.gain == 32 and cfg.symbols == 40
        assert cfg.taps == (2, 3) and cfg.beta == (0.25, 0.5)
        assert cfg.estimator == "subspace"

    def test_load_config_overrides(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text("N = 32\nM = 40\ntrials = 5\n")
        cfg = harness.load_config(path, trials=9, estimator="training")
        assert cfg.trials == 9
        assert cfg.estimator == "training"

    def test_load_config_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text("frobnicate = 3\n")
        with pytest.raises(ConfigError):
            harness.load_config(path)

    # synthesis is ISI-free only, omega takes oracle | plugin itself, and the out
    # name picks the format; an old config naming one fails at its line
    @pytest.mark.parametrize("key, value", REMOVED_SETTINGS.items(), ids=list(REMOVED_SETTINGS))
    def test_load_config_rejects_removed_key(self, tmp_path, key, value):
        path = tmp_path / "sweep.cfg"
        path.write_text(f"N = 32\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:2: unknown config key {key!r}")):
            harness.load_config(path)


class TestRunTrial:
    def test_bit_reproducible(self):
        cfg = tiny_config()
        cell = harness.grid_cells(cfg)[0]
        a = harness.run_trial(cfg, cell, 3)
        b = harness.run_trial(cfg, cell, 3)
        for name in a.errors:
            assert np.array_equal(a.errors[name], b.errors[name])

    def test_all_estimators_present(self):
        cfg = tiny_config()
        cell = harness.grid_cells(cfg)[0]
        result = harness.run_trial(cfg, cell, 0)
        assert set(result.errors) == {"training", "mm", "subspace"}
        assert all(v.shape == (cell.params.users,) for v in result.errors.values())
        assert all(np.all(v >= 0) for v in result.errors.values())

    @pytest.mark.parametrize("estimator", ["training", "mm", "subspace", "all"])
    def test_errors_score_the_requested_fits(self, estimator):
        # each requested estimator, and no other, is scored by the squared
        # error of its fit on the trial's own draws
        cfg = tiny_config(estimator=estimator)
        cell = harness.grid_cells(cfg)[0]
        p = cell.params
        rng = harness._trial_rng(cfg.seed, cell, 1)
        gains = model.sample_channel(p, rng)
        chips = model.sample_codes(p, rng)
        symbols = model.sample_symbols(p, rng)
        windows = model.synthesize_received(p, gains, chips, symbols, rng)
        g_bar = estimators.training_estimate(windows, chips, symbols, p)
        d_hat = sos.estimate_sos(sos.build_normal_equations(windows, chips, p)[0])
        fits = {
            "training": g_bar,
            "mm": estimators.mm_semiblind(g_bar, d_hat, analytic.plugin_weight(p)).gains,
            "subspace": estimators.subspace_semiblind(
                g_bar, d_hat, analytic.optimal_omega(gains, p)
            ).gains,
        }
        errors = harness.run_trial(cfg, cell, 1).errors
        assert list(errors) == list(cfg.estimator_list)
        for name, err in errors.items():
            assert np.array_equal(err, np.sum(np.abs(fits[name] - gains) ** 2, axis=1))

    def test_noiseless_training_accuracy(self):
        cfg = harness.ExperimentConfig(
            gain=64, symbols=100, beta=(1 / 64,), sigma_n2=(1e-12,), taps=(2,),
            alpha=(1.0,), trials=1, seed=3, estimator="training",
        )
        cell = harness.grid_cells(cfg)[0]
        assert cell.params.users == 1
        result = harness.run_trial(cfg, cell, 0)
        rng = harness._trial_rng(cfg.seed, cell, 0)
        gains = model.sample_channel(cell.params, rng)
        assert result.errors["training"][0] < (0.1 * np.linalg.norm(gains[0])) ** 2

    def test_subspace_weight_source_recorded(self):
        cell0 = harness.grid_cells(tiny_config())[0]
        for omega in ("oracle", "plugin", 0.5):
            cfg = tiny_config(estimator="subspace", omega=omega)
            result = harness.run_trial(cfg, cell0, 0)
            diag = result.diagnostics["subspace"]  # one fit for all users
            assert np.shape(diag.weight) in ((), (cell0.params.users,))
            if omega == 0.5:
                assert diag.weight == 0.5


    def test_solve_trial_memory_stays_below_float64_chips(self):
        # the chips stay int8 signs from draw to Gram: one solve-mode trial at
        # N = 64, K = 64, M = 400, P = 3 peaks below the K M N * 8 bytes
        # (13.1 MB) that float64 chips alone would take
        cfg = harness.ExperimentConfig(
            gain=64, symbols=400, beta=(1.0,), sigma_n2=(0.5,), taps=(3,),
            alpha=(0.2,), trials=1, seed=5, estimator="subspace", sos_mode="solve",
        )
        cell = harness.grid_cells(cfg)[0]
        p = cell.params
        assert (p.users, p.symbols, p.gain, p.taps) == (64, 400, 64, 3)
        tracemalloc.start()
        try:
            harness.run_trial(cfg, cell, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < p.users * p.symbols * p.gain * 8

    def test_solve_trial_frees_the_block_before_the_solve(self, monkeypatch):
        # the chips and windows (2.45 MB at K = 64) hold no memory while the
        # solve-mode trial factors the SOS blocks
        refs, dead = [], []
        for name in ("sample_codes", "synthesize_received"):

            def kept(*args, _fn=getattr(model, name), **kwargs):
                out = _fn(*args, **kwargs)
                refs.append(weakref.ref(out))
                return out

            monkeypatch.setattr(model, name, kept)

        def solve(*args, _fn=sos.estimate_sos, **kwargs):
            dead.append([ref() is None for ref in refs])
            return _fn(*args, **kwargs)

        monkeypatch.setattr(sos, "estimate_sos", solve)
        cfg = tiny_config(sos_mode="solve")
        harness.run_trial(cfg, harness.grid_cells(cfg)[0], 0)
        assert dead == [[True, True]]

    def test_solve_trial_frees_the_symbols_before_the_normal_equations(self, monkeypatch):
        # the SOS normal equations read only the windows and chips, so the
        # trial keeps just its training symbols while they are built
        refs, dead = [], []

        def drawn(*args, _fn=model.sample_symbols, **kwargs):
            out = _fn(*args, **kwargs)
            refs.append(weakref.ref(out))
            return out

        def build(*args, _fn=sos.build_normal_equations, **kwargs):
            dead.append([ref() is None for ref in refs])
            return _fn(*args, **kwargs)

        monkeypatch.setattr(model, "sample_symbols", drawn)
        monkeypatch.setattr(sos, "build_normal_equations", build)
        cfg = tiny_config(sos_mode="solve")
        harness.run_trial(cfg, harness.grid_cells(cfg)[0], 0)
        assert dead == [[True]]

    def test_identity_trial_frees_the_block_before_the_training_fit(self, monkeypatch):
        # the fit reads only the training prefix: the trial's whole chips and
        # windows hold no memory while it runs
        refs, dead = [], []
        for name in ("sample_codes", "synthesize_received"):

            def kept(*args, _fn=getattr(model, name), **kwargs):
                out = _fn(*args, **kwargs)
                refs.append(weakref.ref(out))
                return out

            monkeypatch.setattr(model, name, kept)

        def fit(*args, _fn=estimators.training_estimate, **kwargs):
            dead.append([ref() is None for ref in refs])
            return _fn(*args, **kwargs)

        monkeypatch.setattr(estimators, "training_estimate", fit)
        cfg = tiny_config(sos_mode="identity")
        harness.run_trial(cfg, harness.grid_cells(cfg)[0], 0)
        assert dead == [[True, True]]

    @pytest.mark.parametrize("estimator,sos_mode", [("all", "identity"), ("all", "solve"),
                                                    ("training", "identity")])
    def test_every_draw_is_made_by_the_synthesis(self, monkeypatch, estimator, sos_mode):
        # the trial generator does not move after the synthesis, so the order
        # of the layers that follow it cannot move a stream
        seen = []

        def synthesize(*args, _fn=model.synthesize_received):
            out = _fn(*args)
            rng = args[-1]
            seen.append((rng, rng.bit_generator.state))
            return out

        monkeypatch.setattr(model, "synthesize_received", synthesize)
        cfg = tiny_config(estimator=estimator, sos_mode=sos_mode)
        harness.run_trial(cfg, harness.grid_cells(cfg)[0], 0)
        ((rng, state),) = seen
        assert rng.bit_generator.state == state

    def test_identity_trial_peaks_in_its_synthesis(self):
        # the block is freed before the training fit, the correlators are
        # reduced a chunk at a time and the training Gram weights only its
        # first block row, so an identity-mode trial at N = 64, K = 64,
        # M = 400, P = 3 peaks in its synthesis (3.1 MB), below 3.5 MB
        cfg = harness.ExperimentConfig(
            gain=64, symbols=400, beta=(1.0,), sigma_n2=(0.5,), taps=(3,),
            alpha=(0.2,), trials=1, seed=5, estimator="all", sos_mode="identity",
        )
        cell = harness.grid_cells(cfg)[0]
        assert cell.params.users == 64
        tracemalloc.start()
        try:
            harness.run_trial(cfg, cell, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5e6

    def test_solve_trial_peak_memory(self):
        # the symbols are freed before the Gram, its 27 orbit sums are kept
        # in float32, and every SPD system is factored in place: one
        # solve-mode trial at N = 64, K = 64, M = 400, P = 3 peaks at 4.47 MB
        # above its start (5.26 MB when each of these was a copy), below 4.8 MB
        cfg = harness.ExperimentConfig(
            gain=64, symbols=400, beta=(1.0,), sigma_n2=(0.5,), taps=(3,),
            alpha=(0.2,), trials=1, seed=5, estimator="subspace", sos_mode="solve",
        )
        cell = harness.grid_cells(cfg)[0]
        assert cell.params.users == 64
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            harness.run_trial(cfg, cell, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 4.8e6

    @pytest.mark.parametrize("sos_mode", ["identity", "solve"])
    def test_trial_peak_memory(self, sos_mode):
        # the chips are drawn in pieces and each Gram holds one chunk of
        # cross-Grams, so one trial at N = 64, K = 64, M = 400, P = 3 peaks
        # below 9.46 MB in either mode
        cfg = harness.ExperimentConfig(
            gain=64, symbols=400, beta=(1.0,), sigma_n2=(0.5,), taps=(3,),
            alpha=(0.2,), trials=1, seed=5, estimator="subspace", sos_mode=sos_mode,
        )
        cell = harness.grid_cells(cfg)[0]
        assert cell.params.users == 64
        tracemalloc.start()
        try:
            harness.run_trial(cfg, cell, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 9.46e6


class TestRunSweep:
    def test_single_cell_consistent_with_trials(self):
        cfg = tiny_config(estimator="training", trials=4)
        records, failures = harness.run_sweep(cfg)
        assert not failures
        (rec,) = records
        cell = harness.grid_cells(cfg)[0]
        manual = [
            harness.run_trial(cfg, cell, t).errors["training"].mean() for t in range(4)
        ]
        scaled = cell.params.symbols * np.asarray(manual) / cell.params.taps
        assert rec.sigma_g2_emp == pytest.approx(scaled.mean(), rel=1e-12)
        assert rec.sigma_g2_se == pytest.approx(
            scaled.std(ddof=1) / np.sqrt(4), rel=1e-12
        )
        assert rec.trials == 4

    def test_cell_reordering_invariance(self):
        base = tiny_config(estimator="training", sigma_n2=(0.5, 1.0))
        flipped = tiny_config(estimator="training", sigma_n2=(1.0, 0.5))
        rec_a, _ = harness.run_sweep(base)
        rec_b, _ = harness.run_sweep(flipped)
        key = lambda r: (r.beta, r.sigma_n2, r.P, r.alpha)
        assert {key(r): r.sigma_g2_emp for r in rec_a} == {
            key(r): r.sigma_g2_emp for r in rec_b
        }

    def test_adding_cells_preserves_existing(self):
        small = tiny_config(estimator="training")
        grown = tiny_config(estimator="training", beta=(0.25, 0.5))
        rec_small, _ = harness.run_sweep(small)
        rec_grown, _ = harness.run_sweep(grown)
        match = [r for r in rec_grown if r.beta == 0.25]
        assert match[0].sigma_g2_emp == rec_small[0].sigma_g2_emp

    def test_failed_cell_recorded_and_sweep_continues(self):
        # alpha = 1 leaves no information symbols for the semi-blind path
        cfg = tiny_config(estimator="mm", alpha=(1.0, 0.25))
        records, failures = harness.run_sweep(cfg)
        assert len(failures) == 1
        assert failures[0].cell.alpha == 1.0
        assert len(records) == 1 and records[0].alpha == 0.25

    def test_parallel_matches_serial(self):
        cfg = tiny_config(estimator="training", beta=(0.25, 0.5))
        serial, _ = harness.run_sweep(cfg)
        parallel, _ = harness.run_sweep(tiny_config(estimator="training", beta=(0.25, 0.5), workers=2))
        assert [r.sigma_g2_emp for r in serial] == [r.sigma_g2_emp for r in parallel]


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of every process pool the grid driver makes; each
    submitted cell runs inline, so no process is started."""
    made = []

    class InlinePool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return made


class TestGridDriver:
    """sweep and predict share one driver, with at most one worker per cell."""

    def test_pool_gets_at_most_one_worker_per_cell(self, pools):
        records, _ = harness.run_sweep(tiny_config(estimator="training", beta=(0.25, 0.5), workers=8))
        assert pools == [2] and len(records) == 2

    def test_one_cell_runs_without_a_pool(self, pools):
        records, _ = harness.run_sweep(tiny_config(estimator="training", workers=4))
        assert pools == [] and records[0].trials == 2

    def test_predict_uses_the_pool(self, pools):
        serial, _ = harness.predict(tiny_config(beta=(0.25, 0.5)))
        assert pools == []
        pooled, _ = harness.predict(tiny_config(beta=(0.25, 0.5), workers=2))
        assert pools == [2] and pooled == serial

    def test_driver_logs_each_rounding_once(self, caplog):
        # K = round(0.3 * 32) = 10 and M_t = round(0.22 * 40) = 9 both move
        cfg = tiny_config(beta=(0.3,), alpha=(0.22,), estimator="training")
        caplog.set_level(logging.INFO, logger=harness.__name__)
        harness.grid_cells(cfg)
        assert caplog.records == []
        harness.predict(cfg)
        assert [r.getMessage() for r in caplog.records] == [
            "cell 0.3: K rounded to 10 (beta -> 0.3125)",
            "cell 0.22: M_t rounded to 9 (alpha -> 0.225)",
        ]

    def test_failed_worker_is_a_cell_failure(self):
        # a lambda cannot be pickled to a worker process, so each future raises
        cfg = tiny_config(beta=(0.25, 0.5), workers=2, estimator="training")
        records, failures = harness._run_grid(lambda c, cell: [], cfg)
        assert records == [] and len(failures) == 2
        assert [f.cell.beta for f in failures] == [0.25, 0.5]
        assert all("pickle" in f.error and "<lambda>" in f.error for f in failures)

    def test_sweep_row_is_its_prediction_row_plus_trials(self):
        cfg = tiny_config(beta=(0.25, 0.5))
        predicted, _ = harness.predict(cfg)
        swept, _ = harness.run_sweep(cfg)
        assert [r.trials for r in swept] == [2] * 6
        for pred, rec in zip(predicted, swept, strict=True):
            assert (rec.sigma_g2_ana, rec.eta_ana) == (pred.sigma_g2_ana, pred.eta_ana)
            assert None not in (rec.sigma_g2_emp, rec.sigma_g2_se, rec.eta_emp)
            # both eta columns are eta of the row's mean sigma_g2 (M_t/M is alpha here)
            assert rec.eta_ana == analytic.efficiency(rec.sigma_g2_ana, rec.sigma_n2, rec.alpha)
            assert rec.eta_emp == analytic.efficiency(rec.sigma_g2_emp, rec.sigma_n2, rec.alpha)


class TestAnalyticCell:
    """Every channel draw of a cell enters its prediction; a weight at which
    no prediction exists fails the cell."""

    def test_all_draws_singular_raises(self, monkeypatch):
        # w = 1 leaves the phase of every draw unobservable
        monkeypatch.setattr(estimators, "weight_w", lambda *args: 1.0)
        cfg = tiny_config(estimator="mm")
        with pytest.raises(SingularSystemError, match="phase of g is unobservable"):
            harness._analytic_cell(cfg, harness.grid_cells(cfg)[0], "mm")

    def test_plugin_weight_has_one_owner(self, monkeypatch):
        # the trial's fit and the analytic prediction both take w from it
        cfg = tiny_config(estimator="mm")
        cell = harness.grid_cells(cfg)[0]
        before = harness._analytic_cell(cfg, cell, "mm")[0]
        monkeypatch.setattr(analytic, "plugin_weight", lambda params: 0.25)
        assert harness.run_trial(cfg, cell, 0).diagnostics["mm"].weight == 0.25
        draws = harness._analytic_draws(cfg, cell.params)
        want = np.mean(analytic.mm_error_covariance(draws, cell.params, 0.25)[1])
        got = harness._analytic_cell(cfg, cell, "mm")[0]
        assert got == pytest.approx(want, rel=1e-13)
        assert got != pytest.approx(before, rel=1e-3)


class TestPredict:
    def test_single_draw_has_no_standard_error(self):
        # one channel draw gives no spread to estimate, as one trial does not
        cfg = harness.ExperimentConfig(
            gain=16, symbols=40, beta=(0.25,), sigma_n2=(0.5,), taps=(2,),
            alpha=(0.25,), estimator="all", draws=1,
        )
        records, failures = harness.predict(cfg)
        assert not failures
        assert [r.sigma_g2_se for r in records] == [None, None, None]

    def test_subspace_omega_zero_is_baseline(self):
        cfg = tiny_config(estimator="subspace", omega=0.0, sigma_n2=(0.5, 1.0))
        records, failures = harness.predict(cfg)
        assert not failures
        for rec in records:
            assert rec.trials == 0 and rec.sigma_g2_emp is None
            assert rec.eta_ana == pytest.approx(0.0, abs=1e-12)
            assert rec.sigma_g2_ana == pytest.approx(rec.sigma_n2 / 0.25, rel=1e-12)

    def test_single_tap_subspace_degenerate(self):
        cfg = tiny_config(estimator="subspace", taps=(1,))
        records, failures = harness.predict(cfg)
        assert not failures
        (rec,) = records
        assert np.isfinite(rec.eta_ana)
        assert rec.eta_ana == pytest.approx(0.0, abs=1e-12)

    def test_training_surface_exact(self):
        cfg = tiny_config(estimator="training")
        (rec,), _ = harness.predict(cfg)
        assert rec.sigma_g2_ana == pytest.approx(0.5 / 0.25)
        assert rec.eta_ana == 0.0

    def test_mm_interior_noise_peak(self):
        # analytic mm efficiency peaks at moderate noise for the small load
        cfg = harness.ExperimentConfig(
            gain=64, symbols=400, beta=(0.25,), taps=(3,), alpha=(0.2,),
            sigma_n2=(0.1, 0.25, 0.5, 1.0, 2.0, 4.0), estimator="mm",
            draws=100, seed=5,
        )
        records, _ = harness.predict(cfg)
        etas = [r.eta_ana for r in records]
        peak = int(np.argmax(etas))
        assert 0 < peak < len(etas) - 1
        assert etas[peak] == pytest.approx(0.3, abs=0.15)


class TestEmit:
    def make_records(self):
        return [
            harness.SweepRecord(
                beta=0.25, sigma_n2=0.5, P=3, alpha=0.2, estimator="mm",
                trials=100, sigma_g2_emp=2.34567890123456789, sigma_g2_se=0.01,
                sigma_g2_ana=2.3, eta_emp=0.123, eta_ana=0.15,
            ),
            harness.SweepRecord(
                beta=0.5, sigma_n2=1.0, P=2, alpha=0.1, estimator="training",
                trials=0, sigma_g2_emp=None, sigma_g2_se=None,
                sigma_g2_ana=10.0, eta_emp=None, eta_ana=0.0,
            ),
        ]

    def test_empty_csv_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        harness.emit([], path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == ",".join(harness.CSV_COLUMNS)
        assert len(lines) == 2
        assert harness.render([]) == path.read_text()
        with pytest.raises(ConfigError, match="unknown output format 'xml'"):
            harness.render([], "xml")

    @pytest.mark.parametrize("suffix", ["csv", "json", "txt"])
    def test_round_trip_exact(self, tmp_path, suffix):
        # the file name picks the format: JSON for .json, CSV for any other
        path = tmp_path / f"records.{suffix}"
        records = self.make_records()
        harness.emit(records, path)
        assert path.read_text() == harness.render(records, "json" if suffix == "json" else "csv")
        assert harness.load_records(path) == records

    def test_two_cells_two_rows_per_estimator(self, tmp_path):
        cfg = tiny_config(estimator="all", beta=(0.25, 0.5), trials=1)
        records, _ = harness.run_sweep(cfg)
        path = tmp_path / "sweep.csv"
        harness.emit(records, path)
        rows = harness.load_records(path)
        for name in ("training", "mm", "subspace"):
            assert sum(r.estimator == name for r in rows) == 2

    def test_sweep_round_trip_preserves_floats(self, tmp_path):
        cfg = tiny_config(estimator="training")
        records, _ = harness.run_sweep(cfg)
        for fmt in ("csv", "json"):
            path = tmp_path / f"out.{fmt}"
            harness.emit(records, path)
            assert harness.load_records(path) == records


class TestReproducibility:
    def test_full_sweep_reproducible(self):
        cfg = tiny_config()
        rec_a, _ = harness.run_sweep(cfg)
        rec_b, _ = harness.run_sweep(cfg)
        assert rec_a == rec_b
