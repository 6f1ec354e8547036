"""Reference outputs: CLI runs whose CSVs are committed under ``tests/data``.

Each case is the argv of one ``semiblind`` run, written to ``<name>.csv``.
The committed file is the CLI's own output for that argv, so a change that
moves a number by design regenerates it by the same command, e.g.
``semiblind predict --estimator training ... --out tests/data/predict-training.csv``.
Strings and integers must match exactly, floats to a relative 1e-12 (a
different BLAS, or its thread count, may reorder a sum), and empty fields
must sit in the same places.
"""

import math
from dataclasses import astuple
from pathlib import Path

import pytest

from semiblind import cli, harness

DATA = Path(__file__).parent / "data"
REL_TOL = 1e-12

REFERENCE_RUNS = {
    # the benchmark's sweep and predict workloads at seed 1
    "sweep-identity": [
        "sweep", "--N", "64", "--M", "400", "--P", "3", "--alpha", "0.2",
        "--beta", "0.25,1.0", "--sigma-n2", "0.5", "--estimator", "all",
        "--draws", "200", "--seed", "1", "--workers", "1",
        "--trials", "12", "--sos-mode", "identity",
    ],
    "sweep-solve": [
        "sweep", "--N", "64", "--M", "400", "--P", "3", "--alpha", "0.2",
        "--beta", "0.25,1.0", "--sigma-n2", "0.5", "--estimator", "subspace",
        "--draws", "200", "--seed", "1", "--workers", "1",
        "--trials", "10", "--sos-mode", "solve",
    ],
    "predict-fig1": [
        "predict", "--N", "64", "--M", "400", "--P", "3", "--alpha", "0.2",
        "--beta", "0.25,0.5,0.75,1.0", "--sigma-n2", "0.1,0.5,1.0,2.0,4.0",
        "--estimator", "all", "--draws", "200", "--seed", "1", "--workers", "1",
    ],
    # every estimator with the plug-in omega, at P = 1, 2 and 3
    "sweep-plugin": [
        "sweep", "--N", "32", "--M", "100", "--P", "1,2,3", "--alpha", "0.25",
        "--beta", "0.25", "--sigma-n2", "0.5,2", "--estimator", "all",
        "--omega", "plugin", "--trials", "5", "--draws", "50", "--seed", "1",
    ],
    # alpha = 1 rows leave eta empty
    "predict-training": [
        "predict", "--estimator", "training", "--alpha", "0.2,1",
        "--beta", "0.25,1.0", "--sigma-n2", "0.5", "--seed", "1",
    ],
    # the prediction grids of acceptance criteria 6, 7 and 8 (figures 3 and 4)
    "criterion-06-mm": [
        "predict", "--N", "64", "--M", "400", "--P", "3", "--alpha", "0.2",
        "--beta", "0.25,0.5,0.75,1.0", "--sigma-n2", "0.1,0.25,0.5,1.0,2.0,4.0",
        "--estimator", "mm", "--draws", "200", "--seed", "2764",
    ],
    "criterion-07-mm": [
        "predict", "--N", "64", "--M", "400", "--P", "2,8", "--alpha", "0.1,0.6",
        "--beta", "0.5", "--sigma-n2", "0.5", "--estimator", "mm",
        "--draws", "200", "--seed", "2764",
    ],
    "criterion-08-fig3": [
        "predict", "--N", "64", "--M", "400", "--P", "3", "--alpha", "0.1",
        "--beta", "0.25,0.5,0.75,1.0", "--sigma-n2", "0.1,0.25,0.5,1.0,2.0,4.0",
        "--estimator", "subspace", "--draws", "200", "--seed", "2764",
    ],
    "criterion-08-fig4": [
        "predict", "--N", "64", "--M", "400", "--P", "2,3,4,5,6,7,8",
        "--alpha", "0.1,0.2,0.3,0.4,0.5,0.6", "--beta", "0.5", "--sigma-n2", "0.5",
        "--estimator", "subspace", "--draws", "200", "--seed", "2764",
    ],
}


@pytest.mark.parametrize("name", sorted(REFERENCE_RUNS))
def test_cli_reproduces_reference_csv(name, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    assert cli.main([*REFERENCE_RUNS[name], "--out", str(out)]) == 0
    got, want = harness.load_records(out), harness.load_records(DATA / f"{name}.csv")
    assert len(got) == len(want)
    for row, (new, ref) in enumerate(zip(got, want)):
        for column, a, b in zip(harness.CSV_COLUMNS, astuple(new), astuple(ref)):
            where = f"row {row} column {column}: {a!r} against {b!r}"
            if isinstance(b, float) and isinstance(a, float):
                assert math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0), where
            else:
                assert a == b, where
