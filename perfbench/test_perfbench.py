"""Tests of the benchmark itself: smoke runs of every workload, CSV identity
with and without tracing, restoration of traced functions, the output check
and the span arithmetic.

Run from the repository root: ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from child import trace_targets  # noqa: E402
from outcheck import check_csv  # noqa: E402
from spans import Tracer, root_seconds, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines[:-1])


def test_traced_and_untraced_csv_identical(tmp_path):
    workload = WORKLOADS["sweep-identity"].smoke()
    texts = []
    for trace in ("0", "1"):
        rep = tmp_path / f"trace{trace}"
        rep.mkdir()
        argv = workload.argv(5, str(rep / "out.csv"))
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(rep), trace, *argv],
            capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        texts.append((rep / "out.csv").read_bytes())
    assert (tmp_path / "trace1" / "spans.json").exists()
    assert texts[0] == texts[1]


def test_tracer_restores_every_function(tmp_path):
    import semiblind
    from semiblind import cli

    targets = trace_targets(semiblind)
    before = {(m, a): getattr(m, a) for m, names in targets.values() for a in names}
    with Tracer(targets) as tracer:
        assert cli.main(["predict", "--estimator", "all", "--draws", "3",
                         "--out", str(tmp_path / "p.csv")]) == 0
    assert tracer.spans and all(getattr(m, a) is fn for (m, a), fn in before.items())
    with pytest.raises(RuntimeError):
        with Tracer(targets):
            raise RuntimeError("boom")
    assert all(getattr(m, a) is fn for (m, a), fn in before.items())


def test_self_times_partition_the_root_span():
    # root 0..10 with children 1..4 (itself holding 2..3) and 5..9
    spans = [
        [0, -1, -1, "cli.main", 0.0, 10.0, 0],
        [1, 0, 1, "harness.run_trial", 1.0, 4.0, 0],
        [2, 1, 1, "model.sample_codes", 2.0, 3.0, 0],
        [3, 0, -1, "harness.emit", 5.0, 9.0, 1],
    ]
    stats = summarize(spans)
    assert stats["cli.main"]["self_s"] == 3.0
    assert stats["harness.run_trial"]["self_s"] == 2.0
    assert stats["harness.emit"]["errors"] == 1
    assert sum(e["self_s"] for e in stats.values()) == root_seconds(spans) == 10.0


def test_output_check_counts_bad_rows():
    workload = WORKLOADS["sweep-identity"].smoke()
    header = ",".join(["beta", "sigma_n2", "P", "alpha", "estimator", "trials",
                       "sigma_g2_emp", "sigma_g2_se", "sigma_g2_ana", "eta_emp", "eta_ana"])

    def row(beta, est, emp):
        eta = (0.5 / emp - 0.2) / 0.8
        return f"{beta},0.5,3,0.2,{est},1,{emp!r},,2.5,{eta!r},0"

    good = [row(b, e, 3.0) for b in (0.25, 1) for e in ("training", "mm", "subspace")]
    _, problems = check_csv("\n".join([header, *good]) + "\n", workload)
    assert problems == []
    bad = list(good)
    bad[1] = row(0.25, "mm", -1.0)  # negative MSE
    bad[4] = bad[4].replace(",1,", ",2,", 1)  # wrong trial count
    _, problems = check_csv("\n".join([header, *bad[:-1]]) + "\n", workload)
    assert len(problems) == 3  # two bad rows and one missing
    _, problems = check_csv("", workload)
    assert len(problems) == workload.rows_expected


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "sweep-identity", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
