"""Tests for the public surface: exported names, the README quick start and
the functions the benchmark's per-layer trace wraps."""

import ast
import collections
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import semiblind
from semiblind import cli, estimators, harness, model

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(f"semiblind.{info.name}" for info in pkgutil.iter_modules(semiblind.__path__))


def _perfbench_targets() -> dict[str, list[str]]:
    """The ``TARGETS`` table of perfbench/child.py, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/child.py defines no TARGETS")


TARGETS = _perfbench_targets()


@pytest.mark.parametrize("name", ["semiblind", *MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block, "README's quick start has no python block"
    namespace: dict = {}
    exec(compile(block.group(1), "README.md quick start", "exec"), namespace)
    params = namespace["params"]
    assert namespace["fit"].gains.shape == (params.users, params.taps)
    assert namespace["sub"].gains.shape == (params.users, params.taps)


def _write_readme_sweep_cfg(path: Path) -> str:
    """Write README's ``sweep.cfg`` example to ``path``; return its config section."""
    section = (ROOT / "README.md").read_text().split("### Config files", 1)[1]
    block = re.search(r"```ini\n(# sweep.cfg\n.*?)```", section, re.DOTALL)
    assert block, "README's config section has no sweep.cfg block"
    path.write_text(block.group(1))
    return section


def test_readme_config_example_loads(tmp_path):
    # the sweep.cfg example parses, and the key list names exactly CONFIG_KEYS
    path = tmp_path / "sweep.cfg"
    section = _write_readme_sweep_cfg(path)
    assert harness.load_config(path).out == "sweep.csv"
    listed = re.search(r"Recognized keys \(case-blind\): `([^`]*)`", section)
    assert listed, "README lists no recognized keys"
    assert sorted(re.split(r",\s+", listed.group(1))) == sorted(
        key.upper() if len(key) == 1 else key for key in harness.CONFIG_KEYS
    )


def test_readme_cli_examples_run(tmp_path, capsys):
    # each `semiblind ...` command of README's CLI block runs, shrunk to a desk-size grid
    section = (ROOT / "README.md").read_text().split("## CLI", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.DOTALL)
    assert block, "README's CLI section has no bash block"
    commands = [
        shlex.split(line, comments=True)
        for line in block.group(1).replace("\\\n", " ").splitlines()
        if line.startswith("semiblind ")
    ]
    assert commands, "README's CLI block has no semiblind command"
    _write_readme_sweep_cfg(tmp_path / "sweep.cfg")
    for _, *argv in commands:
        argv = [str(tmp_path / arg) if arg == "sweep.cfg" else arg for arg in argv]
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / argv[at])
        argv += ["--N", "16", "--M", "40", "--trials", "1", "--draws", "5", "--workers", "1"]
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)


def test_traced_functions_resolve():
    for layer, names in TARGETS.items():
        module = importlib.import_module(f"semiblind.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_mm_fit_reports_newton_steps():
    # perfbench counts the Newton steps off the result's diagnostics
    rng = np.random.default_rng(0)
    g_bar = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    d_hat = model.vec_outer(g_bar + 0.1)
    diag = estimators.mm_semiblind(g_bar, d_hat, 0.5).diagnostics
    assert isinstance(diag.iterations, int) and diag.iterations >= 1
    assert diag.converged is True


@pytest.mark.parametrize("sos_mode", ["identity", "solve"])
def test_trial_calls_every_traced_layer_function(monkeypatch, sos_mode):
    # the trace wraps module attributes, so a trial must call through them
    calls = collections.Counter()
    layers = ("model", "sos", "estimators")
    for layer in layers:
        module = importlib.import_module(f"semiblind.{layer}")
        for name in TARGETS[layer]:

            def counted(*args, _fn=getattr(module, name), _span=f"{layer}.{name}", **kwargs):
                calls[_span] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    cfg = harness.ExperimentConfig(
        gain=32, symbols=40, beta=(0.25,), taps=(2,), alpha=(0.25,), trials=1,
        estimator="all", sos_mode=sos_mode,
    )
    harness.run_trial(cfg, harness.grid_cells(cfg)[0], 0)
    assert set(calls) == {f"{layer}.{name}" for layer in layers for name in TARGETS[layer]}
    assert calls["sos.estimate_sos"] == 1
