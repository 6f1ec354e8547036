"""Check a CSV written by ``semiblind sweep`` or ``semiblind predict``.

The rows must be exactly the workload's grid x estimators, in order, with
the expected trial count.  Every value the row kind carries must be finite;
``sigma_g2_emp`` and ``sigma_g2_ana`` must be positive and ``sigma_g2_se``
non-negative; the training prediction must equal sigma_n2/alpha and each
efficiency must match its MSE through eta = (sigma_n2/sigma_g2 - alpha)/(1 - alpha).
"""

from __future__ import annotations

import csv
import io
import math

from workloads import Workload

COLUMNS = [
    "beta", "sigma_n2", "P", "alpha", "estimator", "trials",
    "sigma_g2_emp", "sigma_g2_se", "sigma_g2_ana", "eta_emp", "eta_ana",
]
_REL_TOL = 1e-9


def _eta(sigma_g2: float, sigma_n2: float, alpha: float) -> float:
    return (sigma_n2 / sigma_g2 - alpha) / (1 - alpha)


def _row_problem(row: dict, key: tuple, estimator: str, workload: Workload) -> str | None:
    beta, sigma_n2, taps, alpha = key
    try:
        got = (float(row["beta"]), float(row["sigma_n2"]), int(row["P"]), float(row["alpha"]))
        trials = int(row["trials"])
        vals = {c: (float(row[c]) if row[c] != "" else None) for c in COLUMNS[6:]}
    except (TypeError, ValueError) as exc:
        return f"unparsable row: {exc}"
    if got != key or row["estimator"] != estimator:
        return f"expected cell {key} {estimator}, got {got} {row['estimator']}"
    sweep = workload.command == "sweep"
    if trials != (workload.trials if sweep else 0):
        return f"trials={trials}"
    present = ["sigma_g2_ana", "eta_ana"]
    if sweep:
        # the standard error needs two trials
        present += ["sigma_g2_emp", "eta_emp"] + (["sigma_g2_se"] if trials > 1 else [])
    elif estimator != "training":
        present.append("sigma_g2_se")
    for col in COLUMNS[6:]:
        v = vals[col]
        if col in present and (v is None or not math.isfinite(v)):
            return f"{col}={row[col]!r} is not a finite number"
        if col not in present and v is not None:
            return f"{col}={v} should be empty"
    if vals["sigma_g2_ana"] <= 0 or (sweep and vals["sigma_g2_emp"] <= 0):
        return "sigma_g2 must be positive"
    if vals["sigma_g2_se"] is not None and vals["sigma_g2_se"] < 0:
        return "sigma_g2_se must be non-negative"
    if estimator == "training" and not math.isclose(
        vals["sigma_g2_ana"], sigma_n2 / alpha, rel_tol=_REL_TOL
    ):
        return f"training prediction {vals['sigma_g2_ana']} != sigma_n2/alpha"
    if sweep and not math.isclose(
        vals["eta_emp"], _eta(vals["sigma_g2_emp"], sigma_n2, alpha),
        rel_tol=_REL_TOL, abs_tol=1e-12,
    ):
        return "eta_emp does not match sigma_g2_emp"
    return None


def check_csv(text: str, workload: Workload) -> tuple[list[dict], list[str]]:
    """Parse ``text`` and return (rows, problems).

    One problem is listed per expected row that is missing or wrong and per
    unexpected extra row, so ``len(problems)`` counts failed rows.
    """
    lines = [ln for ln in io.StringIO(text) if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    if reader.fieldnames != COLUMNS:
        return [], [f"header {reader.fieldnames} != {COLUMNS}"] * workload.rows_expected
    rows = list(reader)
    expected = [(key, est) for key in workload.cells for est in workload.estimators]
    problems = []
    for i, (key, est) in enumerate(expected):
        if i >= len(rows):
            problems.append(f"row {i}: missing ({key} {est})")
            continue
        problem = _row_problem(rows[i], key, est, workload)
        if problem:
            problems.append(f"row {i}: {problem}")
    problems += [f"row {i}: unexpected extra row" for i in range(len(expected), len(rows))]
    return rows, problems


def mean_sigma_g2(rows: list[dict], workload: Workload, estimator: str | None = None) -> float:
    """Mean sigma_g2 the CSV reports over its rows (optionally one estimator):
    the simulated ``sigma_g2_emp`` on sweeps, the predicted ``sigma_g2_ana``
    on predict."""
    col = "sigma_g2_emp" if workload.command == "sweep" else "sigma_g2_ana"
    vals = [float(r[col]) for r in rows if estimator in (None, r["estimator"])]
    return sum(vals) / len(vals)
