"""One benchmark repetition in a fresh process: ``semiblind.cli.main(argv)``.

Usage::

    python3 perfbench/child.py OUT_DIR TRACE CLI_ARG...

imports ``semiblind`` from the checkout's ``src/``, calls ``cli.main`` with
the CLI arguments and writes ``OUT_DIR/result.json``: the exit code, the
time spent in ``cli.main``, the monotonic-clock instant of the first call
into ``harness.run_sweep``/``harness.predict`` (the parent subtracts its
spawn instant to get the set-up time), ``ru_maxrss``, the failed-cell and
skipped-draw counts and the library versions.  With TRACE=1 the calls into
every module listed in :data:`TARGETS` are traced (see ``spans.py``) and
the spans and counters go to ``OUT_DIR/spans.json``.

The BLAS thread count is pinned by the parent through the environment.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import platform
import re
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Public functions harness calls through module attributes, plus the
# harness and cli entry points; each becomes a span "<module>.<function>".
TARGETS = {
    "model": ["sample_channel", "sample_codes", "sample_symbols", "synthesize_received"],
    "sos": ["build_normal_equations", "estimate_sos", "hermitianize"],
    "estimators": ["training_estimate", "weight_w", "mm_semiblind", "subspace_semiblind"],
    "analytic": [
        "average_sos_variance", "optimal_omega", "mm_error_covariance",
        "predict_subspace_mse", "efficiency",
    ],
    "harness": ["run_trial", "run_sweep", "predict", "emit"],
    "cli": ["main"],
}


def trace_targets(semiblind_pkg) -> dict:
    """TARGETS resolved to ``{layer: (module, names)}`` for :class:`spans.Tracer`."""
    from semiblind import cli

    modules = {name: getattr(semiblind_pkg, name, None) for name in TARGETS}
    modules["cli"] = cli
    return {layer: (modules[layer], names) for layer, names in TARGETS.items() if modules[layer]}


def _observe_mm(counters, result) -> None:
    diag = getattr(result, "diagnostics", None)
    if diag is None:
        return
    counters["estimators.mm_semiblind.fits"] += 1
    counters["estimators.mm_semiblind.iters"] += getattr(diag, "iterations", 0)
    counters["estimators.mm_semiblind.converged"] += bool(getattr(diag, "converged", False))


OBSERVERS = {"estimators.mm_semiblind": _observe_mm}


class _SkippedDraws(logging.Handler):
    """Sums harness's logged "<n> singular-Hessian draws skipped" warnings."""

    _PATTERN = re.compile(r"(\d+) singular-Hessian draws skipped")

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        match = self._PATTERN.search(record.getMessage())
        if match:
            self.count += int(match.group(1))


def environment() -> dict:
    """Versions and thread settings of the running interpreter and libraries."""
    import numpy as np
    import scipy
    import semiblind

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "semiblind": getattr(semiblind, "__version__", "unknown"),
    }


def run(out_dir: Path, traced: bool, argv: list[str]) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import semiblind
    from semiblind import cli, harness

    from spans import Tracer

    entry: dict = {}
    originals = {name: getattr(harness, name) for name in ("run_sweep", "predict")}

    def stamped(fn):
        def call(*args, **kwargs):
            entry.setdefault("t_harness", time.monotonic())
            records, failures = fn(*args, **kwargs)
            entry["cell_failures"] = len(failures)
            return records, failures

        return call

    for name, fn in originals.items():
        setattr(harness, name, stamped(fn))
    skipped = _SkippedDraws()
    logging.getLogger(harness.__name__).addHandler(skipped)
    targets = trace_targets(semiblind)
    before = {(mod, attr): getattr(mod, attr, None) for mod, names in targets.values() for attr in names}
    tracer = Tracer(targets, OBSERVERS) if traced else None
    try:
        with tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            finally:
                wall = time.perf_counter() - t0
        restored = all(getattr(mod, attr, None) is fn for (mod, attr), fn in before.items())
    finally:
        for name, fn in originals.items():
            setattr(harness, name, fn)
    result = {
        "exit_code": code,
        "wall_s": wall,
        "t_harness": entry.get("t_harness"),
        "cell_failures": entry.get("cell_failures", 0),
        "skipped_draws": skipped.count,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer:
        result["restored"] = restored
        (out_dir / "spans.json").write_text(
            json.dumps({"spans": tracer.spans, "counters": tracer.counters})
        )
    return result


def main() -> int:
    out_dir, traced, argv = Path(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    result = run(out_dir, traced, argv)
    (out_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
