"""Monte Carlo experiment engine: trials, grid sweeps, analytic surfaces, I/O.

Per-trial randomness derives from a stable mix of (master seed, hash of the
cell coordinates, trial index), so results are reproducible bit-for-bit and
adding or reordering grid cells never perturbs existing cells.  The scaled
per-tap MSE reported everywhere is sigma_g2 = M * E{||g_hat - g||^2} / P.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields, replace
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np

from . import analytic, estimators, model, sos
from .errors import ConfigError, SingularSystemError

__all__ = [
    "ExperimentConfig",
    "CONFIG_KEYS",
    "Cell",
    "TrialResult",
    "SweepRecord",
    "CSV_COLUMNS",
    "CellFailure",
    "load_config",
    "grid_cells",
    "run_trial",
    "run_sweep",
    "predict",
    "emit",
    "render",
    "load_records",
]

log = logging.getLogger(__name__)

_CSV_COMMENT = (
    "# sigma_g2 columns are the coherence-scaled per-tap MSE"
    " M * E{||g_hat - g||^2} / P; eta = (sigma_n2/sigma_g2 - alpha)/(1 - alpha)"
)
_ESTIMATORS = ("training", "mm", "subspace")
_SOS_MODES = ("identity", "solve")  # d = y (T ~ I), or the exact solve of T d = y
_OMEGA_SOURCES = ("oracle", "plugin")
_ANALYTIC_SALT = 0x616E616C79746963  # fixed salt for prediction channel draws


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of a sweep: system constants, grid, and run options."""

    gain: int = 64  # spreading gain N
    symbols: int = 400  # coherence block M
    beta: tuple[float, ...] = (0.25,)
    sigma_n2: tuple[float, ...] = (0.5,)
    taps: tuple[int, ...] = (3,)
    alpha: tuple[float, ...] = (0.2,)
    trials: int = 100
    seed: int = 0
    estimator: str = "all"  # training | mm | subspace | all
    sos_mode: str = "identity"
    omega: str | float = "oracle"  # oracle | plugin | a fixed subspace weight
    draws: int = 200  # channel draws for analytic surfaces
    workers: int = 1
    out: str | None = None
    fmt: str = "csv"

    def __post_init__(self):
        for name in ("trials", "draws", "workers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}={getattr(self, name)} must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed={self.seed} must be >= 0")
        if self.symbols < 1:
            raise ConfigError(f"coherence block M={self.symbols} must be >= 1")
        for name in ("beta", "sigma_n2", "alpha"):
            if not getattr(self, name):
                raise ConfigError(f"the grid needs at least one {name} value")
            for v in getattr(self, name):
                if not 0 < v < math.inf:
                    raise ConfigError(f"grid value {name}={v} must be positive and finite")
        if not self.taps or any(int(p) < 1 for p in self.taps):
            raise ConfigError("grid values for P must be positive integers")
        for p in self.taps:
            if int(p) >= self.gain:
                raise ConfigError(f"channel order P={p} must be below spreading gain N={self.gain}")
        for a in self.alpha:  # M_t as grid_cells rounds it
            if a > 1:
                raise ConfigError(f"training fraction alpha={a} must be <= 1")
            if round(a * self.symbols) == 0:
                raise ConfigError(f"alpha={a} leaves no training symbols at M={self.symbols}")
        if self.estimator not in (*_ESTIMATORS, "all"):
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if self.sos_mode not in _SOS_MODES:
            raise ConfigError(f"unknown SOS solver mode {self.sos_mode!r}")
        if isinstance(self.omega, str):
            if self.omega not in _OMEGA_SOURCES:
                raise ConfigError(f"unknown omega {self.omega!r}")
        elif not 0 <= self.omega <= 1:
            raise ConfigError(f"omega={self.omega} must be oracle, plugin or lie in [0, 1]")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.fmt!r}")

    @property
    def estimator_list(self) -> tuple[str, ...]:
        return _ESTIMATORS if self.estimator == "all" else (self.estimator,)


def _grid(cast):
    """Parser of a comma- or space-separated list of values."""
    return lambda text: tuple(cast(tok) for tok in text.replace(",", " ").split())


def _omega(text: str) -> str | float:
    return text if text in _OMEGA_SOURCES else float(text)


# Every ExperimentConfig field, once: config-file key -> (field, parser of the
# text value, help).  File keys match case-blind; the CLI flag is --N, --M or
# --P for the one-letter keys and --<key> with '-' for '_' otherwise.
CONFIG_KEYS = {
    "n": ("gain", int, "spreading gain N"),
    "m": ("symbols", int, "coherence block length M"),
    "beta": ("beta", _grid(float), "load values K/N"),
    "sigma_n2": ("sigma_n2", _grid(float), "noise variance values"),
    "p": ("taps", _grid(int), "channel orders"),
    "alpha": ("alpha", _grid(float), "training fractions M_t/M, each in (0, 1]"),
    "trials": ("trials", int, "Monte Carlo trials per cell"),
    "seed": ("seed", int, "master seed (>= 0)"),
    "estimator": ("estimator", str, " | ".join((*_ESTIMATORS, "all"))),
    "sos_mode": ("sos_mode", str, " | ".join(_SOS_MODES)),
    "omega": ("omega", _omega, "subspace weight: oracle | plugin | a value in [0, 1]"),
    "draws": ("draws", int, "channel draws for analytic surfaces"),
    "workers": ("workers", int, "parallel cell workers"),
    "out": ("out", str, "output file (stdout if omitted)"),
    "format": ("fmt", str, "csv | json"),
}


@dataclass(frozen=True)
class Cell:
    """One grid point and the system it simulates, with K and M_t rounded."""

    beta: float
    sigma_n2: float
    taps: int
    alpha: float
    params: model.SystemParams

    def key(self) -> str:
        return f"beta={self.beta!r},sigma_n2={self.sigma_n2!r},P={self.taps},alpha={self.alpha!r}"


@dataclass
class TrialResult:
    """Squared channel errors (per user, per estimator) from one trial."""

    errors: dict[str, np.ndarray]  # estimator -> (K,) float
    diagnostics: dict[str, estimators.FitDiagnostics]  # semi-blind estimator -> its fit


@dataclass
class SweepRecord:
    """One (cell, estimator) row of a sweep or prediction; its fields are the
    output columns.

    For analytic-only records (trials == 0) the empirical fields are None
    and ``sigma_g2_se`` carries the standard error of the channel-draw
    average behind ``sigma_g2_ana``.
    """

    beta: float
    sigma_n2: float
    P: int
    alpha: float
    estimator: str
    trials: int
    sigma_g2_emp: float | None
    sigma_g2_se: float | None
    sigma_g2_ana: float | None
    eta_emp: float | None
    eta_ana: float | None


CSV_COLUMNS = [f.name for f in fields(SweepRecord)]


@dataclass
class CellFailure:
    """A grid cell whose evaluation raised; the sweep keeps going."""

    cell: Cell
    error: str


# ---------------------------------------------------------------------------
# configuration file handling
# ---------------------------------------------------------------------------


def load_config(path: str | Path | None, **overrides) -> ExperimentConfig:
    """Read a flat ``key = value`` config file (keys of :data:`CONFIG_KEYS`);
    keyword overrides, named by field, win unless they are None.

    Grid keys (beta, sigma_n2, P, alpha) accept comma-separated value lists;
    blank lines and ``#`` comments are ignored.  No path reads no file.
    """
    values: dict = {}
    lines = Path(path).read_text().splitlines() if path is not None else []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip().lower(), val.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        name, parse, _ = CONFIG_KEYS[key]
        try:
            values[name] = parse(val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {val!r}") from exc
    values.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**values)


def grid_cells(config: ExperimentConfig) -> list[Cell]:
    """Cartesian product of the grid in (beta, sigma_n2, P, alpha) order.

    K = round(beta N) and M_t = round(alpha M); any rounding that moves the
    realized load or training fraction is logged.
    """
    cells = []
    for beta, sn2, taps, alpha in product(
        config.beta, config.sigma_n2, config.taps, config.alpha
    ):
        users = max(1, round(beta * config.gain))
        train = round(alpha * config.symbols)
        if abs(users / config.gain - beta) > 1e-12:
            log.info("cell %s: K rounded to %d (beta -> %.6g)", beta, users, users / config.gain)
        if abs(train / config.symbols - alpha) > 1e-12:
            log.info("cell %s: M_t rounded to %d (alpha -> %.6g)", alpha, train, train / config.symbols)
        params = model.SystemParams(
            users=users,
            gain=config.gain,
            taps=int(taps),
            symbols=config.symbols,
            train_symbols=train,
            noise_var=sn2,
        )
        cells.append(Cell(beta=beta, sigma_n2=sn2, taps=int(taps), alpha=alpha, params=params))
    return cells


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------


def _cell_hash(cell: Cell) -> int:
    digest = hashlib.blake2b(cell.key().encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _trial_rng(seed: int, cell: Cell, trial_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((seed, _cell_hash(cell), trial_index))
    )


def run_trial(config: ExperimentConfig, cell: Cell, trial_index: int) -> TrialResult:
    """One Monte Carlo repetition: fresh channel, codes, symbols and noise."""
    params = cell.params
    rng = _trial_rng(config.seed, cell, trial_index)
    gains = model.sample_channel(params, rng)
    chips = model.sample_codes(params, rng)
    symbols = model.sample_symbols(params, rng)
    windows = model.synthesize_received(params, gains, chips, symbols, rng)

    which = config.estimator_list
    g_bar = estimators.training_estimate(windows, chips, symbols, params)
    errors: dict[str, np.ndarray] = {}
    diagnostics: dict[str, estimators.FitDiagnostics] = {}

    if "training" in which:
        errors["training"] = np.sum(np.abs(g_bar - gains) ** 2, axis=1)

    if "mm" in which or "subspace" in which:
        if params.train_symbols >= params.symbols:
            raise ConfigError("semi-blind estimators need at least one information symbol")
        info = range(params.train_symbols, params.symbols)
        rhs, gram = sos.build_normal_equations(
            chips, windows, info, params.noise_var, include_gram=config.sos_mode == "solve"
        )
        d_hat = sos.hermitianize(sos.estimate_sos(rhs, gram))

        if "mm" in which:
            w = estimators.weight_w(
                params.train_frac, params.noise_var, analytic.average_sos_variance(params)
            )
            fit = estimators.mm_semiblind(g_bar, d_hat, w)
            errors["mm"] = np.sum(np.abs(fit.gains - gains) ** 2, axis=1)
            diagnostics["mm"] = fit.diagnostics

        if "subspace" in which:
            source = config.omega if isinstance(config.omega, str) else "given"
            omega = _subspace_omega(config, params, gains, g_bar)
            fit = estimators.subspace_semiblind(g_bar, d_hat, omega)
            errors["subspace"] = np.sum(np.abs(fit.gains - gains) ** 2, axis=1)
            diagnostics["subspace"] = replace(fit.diagnostics, weight_source=source)

    return TrialResult(errors=errors, diagnostics=diagnostics)


def _subspace_omega(config, params, g_true, g_bar) -> float | np.ndarray:
    if not isinstance(config.omega, str):
        return config.omega
    ref = g_true if config.omega == "oracle" else g_bar
    return analytic.optimal_omega(ref, params)


# ---------------------------------------------------------------------------
# analytic surfaces
# ---------------------------------------------------------------------------


def _analytic_draws(config: ExperimentConfig, taps: int) -> np.ndarray:
    """Channel draws for prediction, shared by all cells of the same order.

    Sharing the draws across cells is a common-random-numbers device: grid
    trends in beta, sigma_n2 and alpha are then monotone in the formulas
    rather than jittered by independent sampling.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence((config.seed, _ANALYTIC_SALT, taps))
    )
    scale = math.sqrt(1.0 / (2 * taps))
    return scale * (
        rng.standard_normal((config.draws, taps))
        + 1j * rng.standard_normal((config.draws, taps))
    )


def _analytic_cell(
    config: ExperimentConfig, cell: Cell, estimator: str
) -> tuple[float, float, float]:
    """Channel-averaged (sigma_g2_ana, its standard error, eta_ana)."""
    params = cell.params
    alpha, s2 = params.train_frac, params.noise_var
    if estimator == "training":
        return s2 / alpha, 0.0, 0.0

    draws = _analytic_draws(config, cell.taps)
    if estimator == "mm":
        _, sg2 = analytic.mm_error_covariance(draws, params)  # NaN where singular
    else:
        omega = analytic.optimal_omega(draws, params) if isinstance(config.omega, str) else config.omega
        sg2 = analytic.predict_subspace_mse(draws, params, omega)
    singular = np.isnan(sg2)
    if singular.any():
        log.warning("cell %s: %d singular-Hessian draws skipped", cell.key(), singular.sum())
        sg2 = sg2[~singular]
    if not sg2.size:
        raise SingularSystemError(f"all analytic draws failed for cell {cell.key()}")
    eta = analytic.efficiency(sg2, s2, alpha)
    se = float(sg2.std(ddof=1) / math.sqrt(sg2.size)) if sg2.size > 1 else 0.0
    return float(sg2.mean()), se, float(eta.mean())


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _cell_records(
    config: ExperimentConfig, cell: Cell, per_trial: dict[str, list] | None = None
) -> list[SweepRecord]:
    """One record per estimator of the cell.

    The analytic columns are always filled; the empirical ones come from
    ``per_trial`` (each estimator's per-trial mean squared errors) when it is
    given, and are otherwise left empty in an analytic-only record.
    """
    params = cell.params
    records = []
    for name in config.estimator_list:
        ana, ana_se, eta_ana = _analytic_cell(config, cell, name)
        trials, emp, eta_emp = 0, None, None
        se = ana_se if name != "training" else None
        if per_trial is not None:
            scaled = params.symbols * np.asarray(per_trial[name]) / params.taps
            trials, emp = scaled.size, float(scaled.mean())
            se = float(scaled.std(ddof=1) / math.sqrt(scaled.size)) if scaled.size > 1 else None
            eta_emp = analytic.efficiency(emp, params.noise_var, params.train_frac)
        records.append(
            SweepRecord(
                beta=cell.beta,
                sigma_n2=cell.sigma_n2,
                P=cell.taps,
                alpha=cell.alpha,
                estimator=name,
                trials=trials,
                sigma_g2_emp=emp,
                sigma_g2_se=se,
                sigma_g2_ana=ana,
                eta_emp=eta_emp,
                eta_ana=eta_ana,
            )
        )
    return records


def _run_cell(config: ExperimentConfig, cell: Cell) -> list[SweepRecord]:
    per_trial = {name: [] for name in config.estimator_list}
    for t in range(config.trials):
        result = run_trial(config, cell, t)
        for name in config.estimator_list:
            per_trial[name].append(result.errors[name].mean())
    return _cell_records(config, cell, per_trial)


def _gather(jobs) -> tuple[list[SweepRecord], list[CellFailure]]:
    """Evaluate each (cell, records thunk) pair in order; a cell that raises
    is logged and recorded as a :class:`CellFailure`, and the rest go on."""
    records: list[SweepRecord] = []
    failures: list[CellFailure] = []
    for cell, evaluate in jobs:
        try:
            records.extend(evaluate())
        except Exception as exc:
            log.error("cell %s failed: %s", cell.key(), exc)
            failures.append(CellFailure(cell=cell, error=str(exc)))
    return records, failures


def run_sweep(
    config: ExperimentConfig,
) -> tuple[list[SweepRecord], list[CellFailure]]:
    """Simulate every grid cell; failed cells are recorded, not fatal."""
    cells = grid_cells(config)
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            futures = [pool.submit(_run_cell, config, cell) for cell in cells]
            return _gather((cell, fut.result) for cell, fut in zip(cells, futures))
    return _gather((cell, partial(_run_cell, config, cell)) for cell in cells)


def predict(
    config: ExperimentConfig,
) -> tuple[list[SweepRecord], list[CellFailure]]:
    """Analytic-only surfaces over the grid; no simulation."""
    return _gather((cell, partial(_cell_records, config, cell)) for cell in grid_cells(config))


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:.17g}"


def render(records: list[SweepRecord], fmt: str = "csv") -> str:
    """Serialize records as CSV text (exact column set) or a JSON array."""
    if fmt == "csv":
        out = io.StringIO()
        out.write(_CSV_COMMENT + "\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows([_fmt(v) for v in astuple(r)] for r in records)
        return out.getvalue()
    if fmt == "json":
        return json.dumps([asdict(r) for r in records], indent=1) + "\n"
    raise ConfigError(f"unknown output format {fmt!r}")


def emit(records: list[SweepRecord], path: str | Path, fmt: str = "csv") -> None:
    """Write records as CSV (exact column set) or the mirroring JSON array."""
    Path(path).write_text(render(records, fmt))


# parser of a CSV or JSON value, by the annotation of its SweepRecord field
_COLUMN_PARSERS = {
    "float": float,
    "int": int,
    "str": str,
    "float | None": lambda v: None if v is None or v == "" else float(v),
}


def load_records(path: str | Path, fmt: str | None = None) -> list[SweepRecord]:
    """Parse a file produced by :func:`emit` back into records."""
    path = Path(path)
    if fmt is None:
        fmt = "json" if path.suffix == ".json" else "csv"
    if fmt == "csv":
        with path.open() as fh:
            rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    else:
        rows = json.loads(path.read_text())
    return [
        SweepRecord(**{f.name: _COLUMN_PARSERS[f.type](row[f.name]) for f in fields(SweepRecord)})
        for row in rows
    ]
