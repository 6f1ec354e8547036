"""Command-line front end: analytic surfaces, single-cell runs, grid sweeps."""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from . import harness
from .errors import ConfigError


def _flag_parser(key: str, parse):
    """``parse`` with argparse's error naming the setting, as the config file does."""

    def parse_flag(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad value for {key!r}: {text!r}") from exc

    return parse_flag


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file; flags override it")
    for key, (field, parse, help_text) in harness.CONFIG_KEYS.items():
        flag = key.upper() if len(key) == 1 else key.replace("_", "-")
        parser.add_argument(f"--{flag}", dest=field, type=_flag_parser(key, parse), help=help_text)
    parser.add_argument("-v", "--verbose", action="store_true", help="log at INFO level")


def _build_config(args: argparse.Namespace) -> harness.ExperimentConfig:
    overrides = {field: getattr(args, field) for field, _, _ in harness.CONFIG_KEYS.values()}
    return harness.load_config(args.config, **overrides)


def _write(records, config: harness.ExperimentConfig) -> None:
    if config.out:
        harness.emit(records, config.out, config.fmt)
        print(f"wrote {len(records)} records to {config.out}")
    else:
        sys.stdout.write(harness.render(records, config.fmt))


def _report_failures(failures) -> int:
    if not failures:
        return 0
    print(f"{len(failures)} grid cell(s) failed:", file=sys.stderr)
    for f in failures:
        print(f"  {f.cell.key()}: {f.error}", file=sys.stderr)
    return 1


def _cmd_grid(args) -> int:
    config = _build_config(args)
    run = harness.run_sweep if args.command == "sweep" else harness.predict
    records, failures = run(config)
    _write(records, config)
    return _report_failures(failures)


def _cmd_simulate(args) -> int:
    config = _build_config(args)
    cells = harness.grid_cells(config)
    if len(cells) != 1:
        raise ConfigError(
            f"simulate expects a single grid cell, got {len(cells)}; use sweep"
        )
    cell, p = cells[0], cells[0].params
    print(f"cell {cell.key()}  (K={p.users}, N={p.gain}, M={p.symbols}, M_t={p.train_symbols})")
    records, failures = harness.run_sweep(config)
    for rec in records:
        se = f" +- {rec.sigma_g2_se:.4f}" if rec.sigma_g2_se is not None else ""
        eta = ""  # empty at alpha = 1, where eta is undefined
        if rec.eta_ana is not None:
            eta = f"  eta = {rec.eta_emp:+.4f} (analytic {rec.eta_ana:+.4f})"
        print(
            f"  {rec.estimator:>9}: sigma_g2 = {rec.sigma_g2_emp:.4f}{se}"
            f" (analytic {rec.sigma_g2_ana:.4f}){eta}"
        )
    if args.diagnostics and not failures:  # a failed cell would only fail again
        _print_diagnostics(config, cell)
    if config.out:
        _write(records, config)
    return _report_failures(failures)


def _print_diagnostics(config: harness.ExperimentConfig, cell) -> None:
    result = harness.run_trial(config, cell, 0)
    for name, d in result.diagnostics.items():
        print(
            f"  {name} trial-0 diagnostics: iterations {d.iterations},"
            f" converged {d.converged}, weight median {np.median(d.weight):.4f}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="semiblind",
        description="Long-code DS-CDMA semi-blind channel estimation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, extra in (
        ("predict", _cmd_grid, "analytic efficiency surfaces over the grid"),
        ("simulate", _cmd_simulate, "single cell with verbose diagnostics"),
        ("sweep", _cmd_grid, "full Monte Carlo grid sweep"),
    ):
        p = sub.add_parser(name, help=extra)
        _add_common(p)
        if name == "simulate":
            p.add_argument("--diagnostics", action="store_true",
                           help="print per-estimator fit diagnostics")
        p.set_defaults(func=fn)

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
