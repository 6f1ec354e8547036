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
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np

from . import analytic, estimators, model, sos
from .errors import ConfigError

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


def _grid(cast):
    """Parser of a comma- or space-separated list of values."""
    return lambda text: tuple(cast(tok) for tok in text.replace(",", " ").split())


def _omega(text: str) -> str | float:
    return text if text in _OMEGA_SOURCES else float(text)


def _setting(default, parse, help_text: str, key: str | None = None):
    """A config field: its default, the parser of its text value, its help and its
    config-file key (the field name unless given)."""
    return field(default=default, metadata={"parse": parse, "help": help_text, "key": key})


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep's constants, grid and run options; each cell's SystemParams checks N, M and P."""

    gain: int = _setting(64, int, "spreading gain N", key="n")
    symbols: int = _setting(400, int, "coherence block length M", key="m")
    beta: tuple[float, ...] = _setting((0.25,), _grid(float), "load values K/N")
    sigma_n2: tuple[float, ...] = _setting((0.5,), _grid(float), "noise variance values")
    taps: tuple[int, ...] = _setting((3,), _grid(int), "channel orders", key="p")
    alpha: tuple[float, ...] = _setting((0.2,), _grid(float), "training fractions M_t/M in (0, 1]")
    trials: int = _setting(100, int, "Monte Carlo trials per cell")
    seed: int = _setting(0, int, "master seed (>= 0)")
    estimator: str = _setting("all", str, " | ".join((*_ESTIMATORS, "all")))
    sos_mode: str = _setting("identity", str, " | ".join(_SOS_MODES))
    omega: str | float = _setting("oracle", _omega, "subspace weight oracle, plugin or w in [0, 1]")
    draws: int = _setting(200, int, "channel draws for analytic surfaces")
    workers: int = _setting(1, int, "parallel cell workers")
    out: str | None = _setting(None, str, "output file: JSON if *.json, else CSV (stdout if none)")

    def __post_init__(self):
        for name in ("trials", "draws", "workers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}={getattr(self, name)} must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed={self.seed} must be >= 0")
        for name in ("beta", "sigma_n2", "alpha"):
            if not getattr(self, name):
                raise ConfigError(f"the grid needs at least one {name} value")
            for v in getattr(self, name):
                if not 0 < v < math.inf:
                    raise ConfigError(f"grid value {name}={v} must be positive and finite")
                if name == "alpha" and v > 1:
                    raise ConfigError(f"training fraction alpha={v} must be <= 1")
        if not self.taps:
            raise ConfigError("the grid needs at least one P value")
        if self.estimator not in (*_ESTIMATORS, "all"):
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if self.sos_mode not in _SOS_MODES:
            raise ConfigError(f"unknown SOS solver mode {self.sos_mode!r}")
        if not isinstance(self.omega, str):
            model._check_unit_weight("omega", self.omega)
        elif self.omega not in _OMEGA_SOURCES:
            raise ConfigError(f"unknown omega {self.omega!r}")

    @property
    def estimator_list(self) -> tuple[str, ...]:
        return _ESTIMATORS if self.estimator == "all" else (self.estimator,)


# config-file key -> (field, parser of the text value, help), one per ExperimentConfig
# field.  File keys match case-blind; the CLI flag is --N, --M or --P for the
# one-letter keys and --<key> with '-' for '_' otherwise.
CONFIG_KEYS = {
    f.metadata["key"] or f.name: (f.name, f.metadata["parse"], f.metadata["help"])
    for f in fields(ExperimentConfig)
}


@dataclass(frozen=True)
class Cell:
    """One grid point (beta and alpha as given) and its system, K and M_t rounded."""

    beta: float
    alpha: float
    params: model.SystemParams

    def key(self) -> str:
        p = self.params
        return f"beta={self.beta!r},sigma_n2={p.noise_var!r},P={p.taps},alpha={self.alpha!r}"


@dataclass
class TrialResult:
    """Squared channel errors (per user, per estimator) from one trial."""

    errors: dict[str, np.ndarray]  # estimator -> (K,) float
    diagnostics: dict[str, estimators.FitDiagnostics]  # semi-blind estimator -> its fit


@dataclass
class SweepRecord:
    """One (cell, estimator) row of a sweep or prediction; its fields are the
    output columns.

    Both eta columns are eta of the row's mean sigma_g2.  For analytic-only
    records (trials == 0) the empirical fields are None and ``sigma_g2_se``
    carries the standard error of the channel-draw average behind ``sigma_g2_ana``.
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
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines() if path is not None else []
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
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

    K = round(beta N) and M_t = round(alpha M); each cell's :class:`model.SystemParams`
    checks its rules, and a cell that fails :func:`model._check_training_rank` raises
    ``ConfigError`` naming it.  Nothing is logged: :func:`_run_grid` logs the roundings.
    """
    cells = []
    for beta, sn2, taps, alpha in product(
        config.beta, config.sigma_n2, config.taps, config.alpha
    ):
        params = model.SystemParams(
            users=max(1, round(beta * config.gain)),
            gain=config.gain,
            taps=int(taps),
            symbols=config.symbols,
            train_symbols=round(alpha * config.symbols),
            noise_var=sn2,
        )
        cells.append(Cell(beta=beta, alpha=alpha, params=params))
        try:
            model._check_training_rank(params)
        except ConfigError as exc:
            raise ConfigError(f"cell {cells[-1].key()}: {exc}") from exc
    return cells


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------


def _trial_rng(seed: int, cell: Cell, trial_index: int) -> np.random.Generator:
    cell_hash = int.from_bytes(hashlib.blake2b(cell.key().encode(), digest_size=8).digest(), "big")
    return np.random.default_rng(np.random.SeedSequence((seed, cell_hash, trial_index)))


def run_trial(config: ExperimentConfig, cell: Cell, trial_index: int) -> TrialResult:
    """One Monte Carlo repetition: fresh channel, codes, symbols and noise.

    Every random draw is made by the synthesis, so the order of the fits
    moves no result.  The symbols are needed only for the training fit,
    so a copy of their training prefix is kept and the whole symbols
    (0.41 MB at K = 64, M = 400) are freed before the SOS normal
    equations, which read only the windows and chips, are built from the
    whole block.  Then copies of the training prefix of the chips and
    windows are kept (0.49 MB with the training symbols, of the 2.45 MB
    block at K = 64, M = 400, N = 64, P = 3), so the block is freed before
    the training fit, the SOS solve and the semi-blind fits.
    """
    params = cell.params
    rng = _trial_rng(config.seed, cell, trial_index)
    gains = model.sample_channel(params, rng)
    chips = model.sample_codes(params, rng)
    symbols = model.sample_symbols(params, rng)
    windows = model.synthesize_received(params, gains, chips, symbols, rng)
    mt = params.train_symbols
    train_symbols = symbols[:, :mt].copy()
    del symbols

    which = config.estimator_list
    semiblind = "mm" in which or "subspace" in which
    if semiblind:
        rhs, gram = sos.build_normal_equations(
            windows, chips, params, include_gram=config.sos_mode == "solve"
        )
    prefix = windows[:mt].copy(), chips[:, :mt].copy(), train_symbols
    del chips, windows, train_symbols  # free the block before the fits
    g_bar = estimators.training_estimate(*prefix, replace(params, symbols=mt))
    del prefix
    estimates = {"training": g_bar}
    diagnostics: dict[str, estimators.FitDiagnostics] = {}

    if semiblind:
        d_hat = sos.estimate_sos(rhs, gram)  # Hermitian in both SOS modes

        if "mm" in which:
            fit = estimators.mm_semiblind(g_bar, d_hat, analytic.plugin_weight(params))
            estimates["mm"], diagnostics["mm"] = fit.gains, fit.diagnostics

        if "subspace" in which:
            omega = _subspace_omega(config, params, gains if config.omega == "oracle" else g_bar)
            fit = estimators.subspace_semiblind(g_bar, d_hat, omega)
            estimates["subspace"], diagnostics["subspace"] = fit.gains, fit.diagnostics

    errors = {name: np.sum(np.abs(estimates[name] - gains) ** 2, axis=1) for name in which}
    return TrialResult(errors=errors, diagnostics=diagnostics)


def _subspace_omega(config, params, ref) -> float | np.ndarray:
    if not isinstance(config.omega, str):
        return config.omega
    return analytic.optimal_omega(ref, params)


# ---------------------------------------------------------------------------
# analytic surfaces
# ---------------------------------------------------------------------------


def _analytic_draws(config: ExperimentConfig, params: model.SystemParams) -> np.ndarray:
    """The (draws, P) prediction channels, drawn as :func:`model.sample_channel`
    draws them and shared by all cells of the same order.

    Sharing the draws across cells is a common-random-numbers device: grid
    trends in beta, sigma_n2 and alpha are then monotone in the formulas
    rather than jittered by independent sampling.
    """
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, _ANALYTIC_SALT, params.taps)))
    return model.sample_channel(replace(params, users=config.draws), rng)


def _summary(values, params, column: str) -> tuple[float, float | None, float | None]:
    """(mean, standard error, eta of the mean) of the sigma_g2 sample behind ``column``,
    taken on the sample scaled exactly by a power of two so the SE cannot overflow first,
    and centred on its first value so a constant sample has that value as its mean and
    SE 0; one value has no standard error, alpha = 1 no eta, and a non-finite mean or SE
    raises."""
    n, exp = len(values), math.frexp(float(np.max(np.abs(values))))[1]
    scaled = np.ldexp(values, -exp)
    centre = float(scaled[0]) if math.isfinite(scaled[0]) else 0.0  # inf - inf is nan
    mean = math.ldexp(centre + float(np.mean(scaled - centre)), exp)
    se = None  # a non-finite mean raises below, before its deviations make inf - inf
    if n > 1 and math.isfinite(mean):
        se = math.ldexp(float(np.std(scaled - centre, ddof=1)) / math.sqrt(n), exp)
    for name, value in ((column, mean), ("sigma_g2_se", se)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} is {value}, not finite")
    alpha = params.train_frac
    return mean, se, (analytic.efficiency(mean, params.noise_var, alpha) if alpha < 1 else None)


def _analytic_cell(
    config: ExperimentConfig, cell: Cell, estimator: str
) -> tuple[float, float | None, float | None]:
    """:func:`_summary` of the prediction over every channel draw, or of the exact
    training prediction as a one-value sample."""
    params = cell.params
    if estimator == "training":
        sg2 = [params.noise_var / params.train_frac]
    elif estimator == "mm":
        _, sg2 = analytic.mm_error_covariance(_analytic_draws(config, params), params)
    else:
        draws = _analytic_draws(config, params)
        sg2 = analytic.predict_subspace_mse(draws, params, _subspace_omega(config, params, draws))
    return _summary(sg2, params, "sigma_g2_ana")


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _cell_records(config: ExperimentConfig, cell: Cell) -> list[SweepRecord]:
    """The cell's prediction, one record per estimator: trials = 0, empirical columns empty,
    sigma_g2_ana and its eta_ana filled, bar eta at alpha = 1 (mm and subspace raise)."""
    params = cell.params
    records = []
    for name in config.estimator_list:
        ana, se, eta_ana = _analytic_cell(config, cell, name)
        records.append(SweepRecord(
            beta=cell.beta, sigma_n2=params.noise_var, P=params.taps, alpha=cell.alpha,
            estimator=name, trials=0, sigma_g2_emp=None, sigma_g2_se=se,
            sigma_g2_ana=ana, eta_emp=None, eta_ana=eta_ana,
        ))
    return records


def _run_cell(config: ExperimentConfig, cell: Cell) -> list[SweepRecord]:
    """The cell's :func:`_cell_records`, then its trials, which fill each record's
    trials, sigma_g2_emp, sigma_g2_se and eta_emp; a failed prediction runs no trial."""
    records = _cell_records(config, cell)
    params = cell.params
    squared = [run_trial(config, cell, t).errors for t in range(config.trials)]
    for rec in records:
        scaled = params.symbols * np.array([e[rec.estimator].mean() for e in squared]) / params.taps
        rec.trials = scaled.size
        rec.sigma_g2_emp, rec.sigma_g2_se, rec.eta_emp = _summary(scaled, params, "sigma_g2_emp")
    return records


def _evaluate(evaluate, config: ExperimentConfig, cell: Cell) -> tuple[list, list[str]]:
    """The rows of ``evaluate(config, cell)`` and its errors, each led by its estimator;
    a cell of several estimators that raises is evaluated per estimator, so one that
    cannot run there (mm and subspace at alpha = 1) costs only its own row."""
    try:
        return evaluate(config, cell), []
    except Exception as exc:
        if len(config.estimator_list) == 1:
            return [], [f"{config.estimator}: {exc}"]
    parts = [_evaluate(evaluate, replace(config, estimator=n), cell) for n in config.estimator_list]
    return sum((rows for rows, _ in parts), []), sum((errors for _, errors in parts), [])


def _gather(jobs) -> tuple[list[SweepRecord], list[CellFailure]]:
    """Collect each (cell, :func:`_evaluate` thunk) pair in order; a cell with errors,
    or whose worker raised, is kept as a :class:`CellFailure`, its one report."""
    records: list[SweepRecord] = []
    failures: list[CellFailure] = []
    for cell, evaluate in jobs:
        try:
            rows, errors = evaluate()
        except Exception as exc:
            rows, errors = [], [str(exc)]
        records.extend(rows)
        if errors:
            failures.append(CellFailure(cell=cell, error="; ".join(errors)))
    return records, failures


def _run_grid(evaluate, config: ExperimentConfig) -> tuple[list[SweepRecord], list[CellFailure]]:
    """:func:`_evaluate` of ``evaluate`` on each grid cell, then :func:`_gather`; a pool
    gets at most one worker per cell, and one worker runs serially with no pool."""
    cells = grid_cells(config)
    for cell in cells:  # log each rounding that moves the realized load or training fraction
        p = cell.params
        if abs(p.load - cell.beta) > 1e-12:
            log.info("cell %s: K rounded to %d (beta -> %.6g)", cell.beta, p.users, p.load)
        if abs(p.train_frac - cell.alpha) > 1e-12:
            log.info("cell %s: M_t rounded to %d (alpha -> %.6g)",
                     cell.alpha, p.train_symbols, p.train_frac)
    workers = min(config.workers, len(cells))
    if workers > 1:
        # imported here: multiprocessing costs every serial run its startup time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_evaluate, evaluate, config, cell) for cell in cells]
            return _gather((cell, fut.result) for cell, fut in zip(cells, futures))
    return _gather((cell, partial(_evaluate, evaluate, config, cell)) for cell in cells)


def run_sweep(config: ExperimentConfig) -> tuple[list[SweepRecord], list[CellFailure]]:
    """Simulate every grid cell beside its prediction; failed cells are recorded, not fatal."""
    return _run_grid(_run_cell, config)


def predict(config: ExperimentConfig) -> tuple[list[SweepRecord], list[CellFailure]]:
    """Analytic-only surfaces over the grid; no simulation."""
    return _run_grid(_cell_records, config)


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


def _format_of(path: str | Path) -> str:
    """The format of an output file: JSON for a ``.json`` name, CSV for any other."""
    return "json" if Path(path).suffix == ".json" else "csv"


def emit(records: list[SweepRecord], path: str | Path) -> None:
    """Write records as a JSON array to a ``.json`` path, as CSV (exact column set) otherwise."""
    Path(path).write_text(render(records, _format_of(path)))


# parser of a CSV or JSON value, by the annotation of its SweepRecord field
_COLUMN_PARSERS = {
    "float": float,
    "int": int,
    "str": str,
    "float | None": lambda v: None if v is None or v == "" else float(v),
}


def load_records(path: str | Path) -> list[SweepRecord]:
    """Parse a file produced by :func:`emit` back into records, by the same name rule."""
    path = Path(path)
    if _format_of(path) == "csv":
        with path.open() as fh:
            rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    else:
        rows = json.loads(path.read_text())
    return [
        SweepRecord(**{f.name: _COLUMN_PARSERS[f.type](row[f.name]) for f in fields(SweepRecord)})
        for row in rows
    ]
