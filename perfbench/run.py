"""Benchmark of the semiblind CLI: end-to-end metrics, or a traced per-layer breakdown.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Each repetition runs ``semiblind.cli.main`` in a fresh process (``child.py``)
with ``--workers 1`` and the BLAS thread count pinned to ``BLAS_THREADS``.
Repetitions of the workload, all with the CLI seed ``--seed``, start until the
next one would end past ``--seconds`` (at least ``MIN_REPS``).  Every output
CSV is checked (``outcheck.py``) and must be byte-identical to the first.

``--trace 0`` reports the end-to-end metrics as medians over repetitions.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones; ``trace.overhead_s`` is the traced
minus the untraced median wall time.  Metric names and units are those of
``BENCHMARK.json`` at the repository root.  The last stdout line is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``; the full
record, with the environment and every repetition's raw numbers, is written
to ``perfbench/out/<workload>-seed<seed>-trace<t>/record.json``.

``--smoke`` runs one trial and five analytic draws per cell, one repetition
of each kind: it is for the benchmark's own tests, not for measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import BLAS_ENV
from outcheck import check_csv, mean_sigma_g2
from spans import root_seconds, summarize
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1  # one BLAS thread: steadiest on a shared machine, <= nproc everywhere
MIN_REPS = 5  # untraced repetitions per --trace 0 run (set-up time is their median)
MIN_TRACE_REPS = 2  # of each kind per --trace 1 run
RUN_LIMIT_S = 150.0  # stop starting repetitions past this, to end within 180 s


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def run_rep(rep_dir: Path, argv: list[str], traced: bool, timeout: float) -> dict:
    """Run one repetition in a fresh process; return its result with
    ``setup_s`` (spawn to first harness call) and the CSV text added."""
    rep_dir.mkdir(parents=True)
    env = dict(os.environ)
    env.update({k: str(BLAS_THREADS) for k in BLAS_ENV})
    cmd = [sys.executable, str(HERE / "child.py"), str(rep_dir), "1" if traced else "0", *argv]
    with open(rep_dir / "stdout.txt", "w") as out, open(rep_dir / "stderr.txt", "w") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            proc.wait(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    elapsed = time.monotonic() - t_spawn
    result_file = rep_dir / "result.json"
    result = json.loads(result_file.read_text()) if proc.returncode == 0 and result_file.exists() else {}
    result.update(traced=traced, returncode=proc.returncode, elapsed_s=elapsed)
    if result.get("t_harness") is not None:
        result["setup_s"] = result["t_harness"] - t_spawn
    csv_file = rep_dir / "out.csv"
    result["csv"] = csv_file.read_text() if csv_file.exists() else ""
    return result


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def failed_rows(rep: dict, first_csv: str, workload) -> tuple[int, list[str]]:
    """Rows of one repetition counted as failed, and the problems found."""
    _, problems = check_csv(rep["csv"], workload)
    bad = len(problems)
    if rep["returncode"] or rep.get("exit_code") or rep.get("cell_failures"):
        bad = max(bad, rep.get("cell_failures", 0) * len(workload.estimators), 1)
        problems.append(
            f"exit code {rep.get('exit_code')}, process return code {rep['returncode']},"
            f" {rep.get('cell_failures', 0)} failed cells (see {rep['dir']})"
        )
    if not bad and rep["csv"] != first_csv:
        bad = 1
        problems.append("CSV differs from the first repetition's")
    if rep["traced"] and not rep.get("restored", False):
        problems.append("traced functions were not all restored")
    return min(bad, workload.rows_expected), problems


def end_to_end(reps: list[dict], workload, ok_frac: float) -> dict:
    rows, _ = check_csv(reps[0]["csv"], workload)
    return {
        "wall_s": _median([r["wall_s"] for r in reps if "wall_s" in r]),
        "setup_s": _median([r["setup_s"] for r in reps if "setup_s" in r]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps if "peak_rss_mb" in r]),
        "ok_frac": ok_frac,
        "mse_all": mean_sigma_g2(rows, workload) if rows else 0.0,
        "mse_subspace": mean_sigma_g2(rows, workload, "subspace") if rows else 0.0,
    }


def per_layer(reps: list[dict], workload, names: list[str]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced repetitions' spans; also returns
    problems found in the span records."""
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    problems = []
    per_rep, durations, counters = [], {}, {}
    for rep in traced:
        path = rep["dir"] / "spans.json"
        if not path.exists():
            continue
        data = json.loads(path.read_text())
        stats = summarize(data["spans"])
        per_rep.append(stats)
        for name, entry in stats.items():
            durations.setdefault(name, []).extend(entry["durations"])
        for key, val in data["counters"].items():
            counters[key] = counters.get(key, 0.0) + val
        root = root_seconds(data["spans"])
        self_sum = sum(e["self_s"] for e in stats.values())
        if abs(self_sum - root) > 1e-6 * max(root, 1.0):
            problems.append(f"{path}: self times sum to {self_sum}, root spans to {root}")
    metrics: dict[str, float] = {}
    for name in names:
        layer_fn, _, stat = name.rpartition(".")
        if stat in ("s", "self_s", "calls", "errors"):
            metrics[name] = _median([rep.get(layer_fn, {}).get(stat, 0) for rep in per_rep])
        elif stat == "ms_p50":
            metrics[name] = 1e3 * _median(durations.get(layer_fn, []))
        elif stat == "ms_p90":
            metrics[name] = 1e3 * _p90(durations.get(layer_fn, []))
    fits = counters.get("estimators.mm_semiblind.fits", 0.0)
    metrics["estimators.mm_semiblind.iters"] = (
        counters.get("estimators.mm_semiblind.iters", 0.0) / max(len(per_rep), 1)
    )
    metrics["estimators.mm_semiblind.converged_frac"] = (
        counters.get("estimators.mm_semiblind.converged", 0.0) / fits if fits else 0.0
    )
    metrics.update(workload.kernel_counts())
    metrics["harness.singular_draws_skipped"] = _median([r.get("skipped_draws", 0) for r in traced])
    traced_wall = _median([r["wall_s"] for r in traced if "wall_s" in r])
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - _median([r["wall_s"] for r in plain if "wall_s" in r])
    return metrics, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "semiblind" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: no semiblind sources under {ROOT / 'src'} or no {bench_file}", file=sys.stderr)
        return 2
    spec = json.loads(bench_file.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    min_reps = 1 if args.smoke else (MIN_TRACE_REPS if args.trace else MIN_REPS)
    out_dir = HERE / "out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    reps: list[dict] = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep_dir = out_dir / f"rep{len(reps):02d}"
        argv_cli = workload.argv(args.seed, str(rep_dir / "out.csv"))
        remaining = RUN_LIMIT_S + 25.0 - (time.monotonic() - start)
        reps.append(run_rep(rep_dir, argv_cli, traced, remaining))
        reps[-1]["dir"] = rep_dir
        elapsed = time.monotonic() - start
        typical = _median([r["elapsed_s"] for r in reps])
        kinds = (False, True) if args.trace else (False,)
        enough = all(sum(r["traced"] == k for r in reps) >= min_reps for k in kinds)
        if elapsed > RUN_LIMIT_S or (enough and elapsed + typical > args.seconds):
            break

    # correctness: every CSV passes the check and matches the first byte for byte
    attempted = failed = 0
    problems: list[str] = []
    for i, rep in enumerate(reps):
        bad, rep_problems = failed_rows(rep, reps[0]["csv"], workload)
        attempted += workload.rows_expected
        failed += bad
        problems += [f"rep {i}: {p}" for p in rep_problems]

    if args.trace:
        values, span_problems = per_layer(reps, workload, [m["name"] for m in declared])
        values["fail_frac"] = failed / attempted
        problems += span_problems
    else:
        values = end_to_end(reps, workload, 1.0 - failed / attempted)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics declared in BENCHMARK.json but not computed: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    env = next((r["env"] for r in reps if "env" in r), {})
    env.update(git_sha=_git_sha(), seed=args.seed, nproc=os.cpu_count(), blas_threads_pinned=BLAS_THREADS)
    record = {
        "workload": workload.name, "trace": args.trace, "seconds": args.seconds,
        "trials": workload.trials, "draws": workload.draws, "env": env,
        "repetitions": [
            {k: v for k, v in r.items() if k not in ("csv", "env", "dir")} for r in reps
        ],
        "problems": problems, "metrics": metrics,
    }
    (out_dir / "record.json").write_text(json.dumps(record, indent=1))

    print(f"workload {workload.name}: {len(reps)} repetitions, seed {args.seed}, trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for p in problems:
        print(f"problem: {p}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
