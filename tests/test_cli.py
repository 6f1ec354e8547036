"""Tests for the command-line interface."""

import argparse
import dataclasses
import importlib
import importlib.metadata
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from semiblind import cli, harness


def test_predict_writes_csv(tmp_path, capsys):
    out = tmp_path / "surface.csv"
    code = cli.main(
        [
            "predict", "--beta", "0.25,0.5", "--sigma-n2", "0.5", "--P", "3",
            "--alpha", "0.2", "--estimator", "subspace", "--draws", "30",
            "--seed", "4", "--out", str(out),
        ]
    )
    assert code == 0
    records = harness.load_records(out)
    assert len(records) == 2
    assert all(r.trials == 0 for r in records)


def test_predict_stdout_csv(capsys):
    code = cli.main(
        ["predict", "--beta", "0.25", "--sigma-n2", "0.5", "--P", "2",
         "--alpha", "0.2", "--estimator", "training"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == ",".join(harness.CSV_COLUMNS)
    assert lines[2].split(",")[4] == "training"


def test_sweep_with_config_file(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "N = 32\nM = 40\nP = 2\nbeta = 0.25\nsigma_n2 = 0.5\nalpha = 0.25\n"
        "trials = 2\nseed = 11\nestimator = training\n"
    )
    out = tmp_path / "out.json"
    code = cli.main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 1
    assert rows[0]["trials"] == 2
    assert rows[0]["sigma_g2_emp"] is not None


def test_out_name_picks_json(tmp_path):
    # a .json --out name writes the JSON array that load_records reads back
    out = tmp_path / "r.json"
    grid = ["--N", "32", "--M", "40", "--P", "2", "--alpha", "0.25", "--beta", "0.25",
            "--trials", "2"]
    assert cli.main(["sweep", *grid, "--out", str(out)]) == 0
    assert isinstance(json.loads(out.read_text()), list)
    records, _ = harness.run_sweep(cli._build_config(_common_parser().parse_args(grid)))
    assert harness.load_records(out) == records


def test_sweep_flag_overrides_config(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "N = 32\nM = 40\nP = 2\nbeta = 0.25\nsigma_n2 = 0.5\nalpha = 0.25\n"
        "trials = 2\nseed = 11\nestimator = training\n"
    )
    out = tmp_path / "out.csv"
    code = cli.main(
        ["sweep", "--config", str(cfg), "--trials", "3", "--out", str(out)]
    )
    assert code == 0
    assert harness.load_records(out)[0].trials == 3


def test_training_only_sweep_at_alpha_one(tmp_path):
    # eta divides by 1 - alpha, so the row keeps both eta fields empty
    out = tmp_path / "out.csv"
    code = cli.main(
        ["sweep", "--estimator", "training", "--alpha", "1", "--N", "16", "--M", "20",
         "--P", "2", "--trials", "2", "--out", str(out)]
    )
    assert code == 0
    rows = harness.load_records(out)
    assert len(rows) == 1 and rows[0].trials == 2 and rows[0].sigma_g2_emp is not None
    assert rows[0].eta_emp is None and rows[0].eta_ana is None


def test_huge_noise_rows_tend_to_the_training_floor(tmp_path):
    # from sigma_n2 = 5e153 theta^2 overflows for low-energy draws, and at 1e300
    # lambda^2 itself: A is inf, so omega* = 0 and the subspace projection term
    # drops out, with no RuntimeWarning. Every row tends to sigma_n2 / alpha
    for sigma_n2 in ("5e153", "1e154", "1e300"):
        out = tmp_path / f"{sigma_n2}.csv"
        argv = ["predict", "--sigma-n2", sigma_n2, "--estimator", "all", "--out", str(out)]
        assert cli.main(argv) == 0
        rows = harness.load_records(out)
        assert [r.estimator for r in rows] == ["training", "mm", "subspace"]
        for row in rows:
            assert row.sigma_g2_ana == pytest.approx(float(sigma_n2) / 0.2, rel=1e-12)
        fields = ",".join(out.read_text().splitlines()[2:]).lower().split(",")
        assert not {"nan", "inf", "-inf"} & set(fields)


def test_non_finite_rows_fail_their_estimator(tmp_path, capsys):
    # at sigma_n2 = 1e308 the training prediction sigma_n2 / alpha itself overflows,
    # and so do the mm and subspace predictions that carry it
    out = tmp_path / "out.csv"
    code = cli.main(["predict", "--sigma-n2", "1e308", "--estimator", "all", "--out", str(out)])
    assert code == 1
    assert harness.load_records(out) == []
    err = capsys.readouterr().err
    for name in ("training", "mm", "subspace"):
        assert f"{name}: sigma_g2_ana is inf, not finite" in err


def test_single_tap_subspace_row_at_huge_noise(tmp_path):
    # P = 1 leaves no perpendicular direction, so the angle term is an exact 0
    # although lambda^2 overflows, and the row is the training floor sigma_n2 / alpha
    out = tmp_path / "out.csv"
    argv = ["predict", "--P", "1", "--sigma-n2", "1e200", "--estimator", "subspace",
            "--out", str(out)]
    assert cli.main(argv) == 0
    (row,) = harness.load_records(out)
    assert row.sigma_g2_ana == pytest.approx(5e200, rel=1e-12)


def test_constant_prediction_row_has_zero_se_and_eta(tmp_path):
    # at P = 1 and sigma_n2 = 1e200 every channel draw predicts the same value,
    # so the row's mean is that value, with standard error 0 and eta 0
    out = tmp_path / "out.csv"
    argv = ["predict", "--P", "1", "--sigma-n2", "1e200", "--estimator", "subspace",
            "--out", str(out)]
    assert cli.main(argv) == 0
    (row,) = harness.load_records(out)
    assert row.sigma_g2_ana == 4.9999999999999995e200
    assert (row.sigma_g2_se, row.eta_ana) == (0.0, 0.0)


def test_single_tap_rows_at_overflowing_noise_fail_as_inf(tmp_path, capsys):
    # at P = 1 every prediction carries sigma_n2 / alpha = inf and nothing of the
    # perpendicular terms, so no row is nan
    out = tmp_path / "out.csv"
    assert cli.main(["predict", "--P", "1", "--sigma-n2", "1e308", "--out", str(out)]) == 1
    assert harness.load_records(out) == []
    err = capsys.readouterr().err
    for name in ("training", "mm", "subspace"):
        assert f"{name}: sigma_g2_ana is inf, not finite" in err


def test_subnormal_noise_mm_row_is_the_training_row(tmp_path):
    # the plug-in w is about 1e-319 here, far too small to move g_bar: mm returns it
    out = tmp_path / "out.csv"
    argv = ["sweep", "--sigma-n2", "1e-320", "--N", "16", "--M", "40", "--P", "2",
            "--alpha", "0.25", "--trials", "2", "--estimator", "all", "--out", str(out)]
    assert cli.main(argv) == 0
    training, mm, _ = harness.load_records(out)
    assert (mm.sigma_g2_emp, mm.sigma_g2_se) == (training.sigma_g2_emp, training.sigma_g2_se)


def test_standard_error_of_huge_values_is_finite(tmp_path):
    # squaring the deviations of values near 1e160 would overflow; the SE does not.
    # The plug-in w underflows to 0 there, so mm returns g_bar without evaluating
    # its cost on a D of order 1e160, and omega* = 0 drops the subspace projection term
    out = tmp_path / "out.csv"
    argv = ["sweep", "--sigma-n2", "1e160", "--N", "32", "--M", "40", "--P", "2",
            "--alpha", "0.25", "--trials", "3", "--estimator", "all", "--out", str(out)]
    assert cli.main(argv) == 0
    rows = harness.load_records(out)
    assert [r.estimator for r in rows] == ["training", "mm", "subspace"]
    for row in rows:
        assert row.trials == 3 and math.isfinite(row.sigma_g2_se) and row.sigma_g2_se > 0
        assert math.isfinite(row.sigma_g2_emp) and math.isfinite(row.sigma_g2_ana)


def test_bad_config_path_fails():
    assert cli.main(["sweep", "--config", "/nonexistent/file.cfg"]) == 2


# values that parse but are out of range, with the value the error names
_BAD_GRID = {
    "N = 0": "N=0", "M = 0": "M=0", "P = 64": "P=64", "alpha = 0.001": "alpha=0.001",
    "beta = nan": "beta=nan", "sigma_n2 = inf": "sigma_n2=inf", "alpha = 1.5": "alpha=1.5",
    "seed = -1": "seed=-1", "workers = 0": "workers=0",
    "beta =": "at least one beta value", "P =": "at least one P value",
    "N 32": "expected 'key = value', got 'N 32'",
}


@pytest.mark.parametrize("line", ["N = abc", "beta = 0.25, x", "P = 2.5", *_BAD_GRID])
def test_bad_config_value_is_config_error(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"M = 40\n{line}\n")
    assert cli.main(["predict", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert _BAD_GRID.get(line, f"{cfg}:2: bad value") in err
    assert "Traceback" not in err


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"beta = 0.25\n\xff\xfe = 1\n")
    assert cli.main(["predict", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: not UTF-8 text")
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, value", [("--beta", "nan"), ("--sigma-n2", "inf")])
def test_non_finite_grid_flag_is_config_error(capsys, flag, value):
    assert cli.main(["predict", flag, value]) == 2
    err = capsys.readouterr().err
    assert f"={value} must be positive and finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag, value, key", [("--beta", "0.25,x", "beta"), ("--omega", "foo", "omega")]
)
def test_bad_flag_value_names_the_setting(capsys, flag, value, key):
    with pytest.raises(SystemExit) as info:
        cli.main(["predict", flag, value])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"bad value for {key!r}: {value!r}" in err
    assert "<lambda>" not in err and "_omega" not in err


@pytest.mark.parametrize(
    "flag, value",
    [("--synthesis", "isi-free"), ("--omega-mode", "plugin"), ("--format", "json")],
    ids=["synthesis", "omega_mode", "format"],
)
def test_removed_flag_is_rejected(capsys, flag, value):
    with pytest.raises(SystemExit) as info:
        cli.main(["sweep", flag, value])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, error",
    [(["simulate"], "invalid choice: 'simulate'"),
     (["sweep", "--diagnostics"], "unrecognized arguments: --diagnostics")],
    ids=["simulate", "diagnostics"],
)
def test_removed_command_is_rejected(capsys, argv, error):
    # a one-cell run is a sweep on a one-value grid
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert error in capsys.readouterr().err


def _common_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser()
    cli._add_common(parser)
    return parser


# a valid non-default text value for every ExperimentConfig field
_SAMPLE_VALUES = {
    "gain": "32", "symbols": "40", "beta": "0.5, 0.75", "sigma_n2": "0.1 2",
    "taps": "2,3", "alpha": "0.25", "trials": "3", "seed": "5", "estimator": "mm",
    "sos_mode": "solve", "omega": "0.5", "draws": "7", "workers": "2",
    "out": "x.csv",
}


def test_every_field_has_one_config_key_and_one_flag(tmp_path):
    parser = _common_parser()
    default = harness.ExperimentConfig()
    names = [field.name for field in dataclasses.fields(harness.ExperimentConfig)]
    assert sorted(names) == sorted(_SAMPLE_VALUES)
    for name in names:
        keys = [key for key, (field, _, _) in harness.CONFIG_KEYS.items() if field == name]
        actions = [action for action in parser._actions if action.dest == name]
        assert len(keys) == 1 and len(actions) == 1, name
        (flag,) = actions[0].option_strings
        assert actions[0].help
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"{keys[0]} = {_SAMPLE_VALUES[name]}\n")
        from_file = getattr(harness.load_config(cfg), name)
        from_flag = getattr(cli._build_config(parser.parse_args([flag, _SAMPLE_VALUES[name]])), name)
        assert from_file == from_flag != getattr(default, name), name


@pytest.mark.parametrize("text, value", [("oracle", "oracle"), ("plugin", "plugin"), ("0.5", 0.5)])
def test_omega_source_or_weight_from_file_and_flag(tmp_path, text, value):
    cfg = tmp_path / "omega.cfg"
    cfg.write_text(f"omega = {text}\n")
    assert harness.load_config(cfg).omega == value
    assert cli._build_config(_common_parser().parse_args(["--omega", text])).omega == value


def _src_env() -> dict:
    """The environment for a fresh interpreter that imports this checkout's package."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def test_runs_without_scipy(tmp_path):
    # numpy is the only numerical dependency: a sweep through every estimator
    # and the Gram solve must work with scipy unimportable
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from semiblind import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "sweep", "--N", "32", "--M", "40", "--P", "2",
         "--beta", "0.25", "--sigma-n2", "0.5", "--alpha", "0.25", "--trials", "1",
         "--draws", "5", "--sos-mode", "solve", "--estimator", "all",
         "--out", str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(harness.load_records(tmp_path / "out.csv")) == 3


def test_import_loads_no_process_pool():
    # the grid driver imports its pool on first use, so a serial run never pays for it
    script = (
        "import sys\n"
        "import semiblind.cli\n"
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_src_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_rank_deficient_training_cell_is_config_error(capsys):
    # every command rejects each grid once, before it evaluates anything: a
    # rank-deficient cell by its key, M = 0, N = 0 and P >= N by the cell's
    # SystemParams, before any rounding is logged
    cases = {
        ("--N", "8", "--M", "10", "--P", "3", "--alpha", "0.1", "--beta", "1"):
            "cell beta=1.0,sigma_n2=0.5,P=3,alpha=0.1: joint least-squares"
            " training needs M_t (N-P+1) >= K P; got 6 training samples for 24 taps",
        ("--M", "0"): "coherence block M=0 must be >= 1",
        ("--N", "0"): "spreading gain N=0 must be >= 1",
        ("--P", "64"): "channel order P=64 must be below spreading gain N=64",
    }
    for grid, error in cases.items():
        for command in ("predict", "sweep"):
            assert cli.main([command, *grid]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [f"error: {error}"]


def test_failed_cells_nonzero_exit(tmp_path, capsys):
    # alpha = 1 starves the semi-blind estimators of information symbols
    code = cli.main(
        ["sweep", "--beta", "0.25", "--sigma-n2", "0.5", "--P", "2",
         "--alpha", "1.0", "--N", "32", "--M", "40", "--trials", "1",
         "--estimator", "mm", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 1
    assert "failed" in capsys.readouterr().err


def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    """``semiblind argv`` in a fresh interpreter, so its log lines reach the captured stderr."""
    return subprocess.run(
        [sys.executable, "-m", "semiblind.cli", *argv],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )


def test_failed_cell_is_reported_once():
    # the CLI summary is a failed cell's one report on stderr; no log line repeats it
    proc = _run_cli("sweep", "--N", "16", "--M", "20", "--P", "2", "--alpha", "1",
                    "--beta", "0.25", "--trials", "2", "--estimator", "all")
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "1 grid cell(s) failed:",
        "  beta=0.25,sigma_n2=0.5,P=2,alpha=1.0: mm: training fraction alpha=1.0 must lie in"
        " (0, 1); subspace: training fraction alpha=1.0 must lie in (0, 1)",
    ]


def test_verbose_sweep_logs_each_rounding_once():
    # the grid is expanded once per run, so each rounding reaches the log once
    proc = _run_cli("sweep", "--N", "32", "--M", "40", "--P", "2", "--alpha", "0.22",
                    "--beta", "0.3", "--trials", "2", "-v")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        "INFO semiblind.harness: cell 0.3: K rounded to 10 (beta -> 0.3125)",
        "INFO semiblind.harness: cell 0.22: M_t rounded to 9 (alpha -> 0.225)",
    ]


def test_alpha_one_cell_keeps_its_training_row(tmp_path, capsys):
    # mm and subspace fail at alpha = 1, which has no information symbols,
    # but the training estimator still gets that cell's row
    grid = ["--N", "32", "--M", "100", "--P", "2", "--alpha", "0.25,1", "--beta", "0.25",
            "--sigma-n2", "0.5", "--estimator", "all"]
    runs = {
        "predict": ["predict", *grid, "--draws", "20"],
        "sweep": ["sweep", *grid, "--trials", "2"],
        "sweep-workers": ["sweep", *grid, "--trials", "2", "--workers", "2"],
    }
    rows = {}
    for name, argv in runs.items():
        out = tmp_path / f"{name}.csv"
        assert cli.main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "1 grid cell(s) failed" in err
        assert "alpha=1.0: mm: " in err and "; subspace: " in err
        rows[name] = harness.load_records(out)
        assert [(r.alpha, r.estimator) for r in rows[name]] == [
            (0.25, "training"), (0.25, "mm"), (0.25, "subspace"), (1.0, "training")
        ]
    assert rows["sweep"] == rows["sweep-workers"]


def test_alpha_one_failures_share_predicts_wording(tmp_path, capsys, monkeypatch):
    # sweep rejects mm and subspace at alpha = 1 with the training-fraction
    # check predict uses, before it draws a trial for them
    calls = []
    run_trial = harness.run_trial
    monkeypatch.setattr(harness, "run_trial", lambda *args: calls.append(args) or run_trial(*args))
    grid = ["--N", "32", "--M", "100", "--P", "2", "--alpha", "1", "--beta", "0.25",
            "--sigma-n2", "0.5", "--estimator", "all"]
    errors = {}
    for command, extra in (("predict", ["--draws", "20"]), ("sweep", ["--trials", "2"])):
        out = tmp_path / f"{command}.csv"
        assert cli.main([command, *grid, *extra, "--out", str(out)]) == 1
        errors[command] = capsys.readouterr().err
        assert [(r.alpha, r.estimator) for r in harness.load_records(out)] == [(1.0, "training")]
    check = "training fraction alpha=1.0 must lie in (0, 1)"
    assert f"mm: {check}; subspace: {check}" in errors["sweep"]
    assert errors["sweep"] == errors["predict"]
    assert len(calls) == 2  # the training row's trials alone


def _distribution_installed(name: str) -> bool:
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


@pytest.mark.skipif(
    not _distribution_installed("semiblind"),
    reason="the semiblind distribution is not installed (pip install -e .)",
)
def test_console_script_installed():
    assert shutil.which("semiblind") is not None
    (entry,) = [
        ep
        for ep in importlib.metadata.distribution("semiblind").entry_points
        if ep.group == "console_scripts" and ep.name == "semiblind"
    ]
    assert entry.load() is cli.main


def test_pyproject_declares_console_script():
    # the wiring the installed script is built from, checked without installing
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["semiblind"]
    assert target == "semiblind.cli:main"
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main
