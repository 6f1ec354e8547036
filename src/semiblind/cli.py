"""Command-line front end: analytic surfaces and Monte Carlo grid sweeps."""

from __future__ import annotations

import argparse
import logging
import sys

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
        harness.emit(records, config.out)
        print(f"wrote {len(records)} records to {config.out}")
    else:
        sys.stdout.write(harness.render(records))


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="semiblind",
        description="Long-code DS-CDMA semi-blind channel estimation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("predict", "analytic efficiency surfaces over the grid"),
        ("sweep", "Monte Carlo grid sweep; a one-value grid runs one cell"),
    ):
        _add_common(sub.add_parser(name, help=help_text))

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _cmd_grid(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
