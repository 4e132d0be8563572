"""Command-line entry point.

Usage::

    majorana-nh <command> --config <path> [--out <dir>] [--threads N] [--preset <id>]

Exit codes: 0 success, 2 configuration error, 3 numeric/convergence error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import COMMANDS, RunConfig, parse_config
from .errors import ConfigurationError, ConvergenceError
from .pipelines import run_command
from .presets import PRESET_IDS


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="majorana-nh",
        description="Spectra, exceptional points and skin-effect diagnostics "
        "of non-Hermitian Yao-Lee lattice models.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="YAML run configuration")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--threads", type=int,
                        help="worker threads for sweeps (default: one per CPU on the dense, chiral and "
                        "Hermitian strip routes, else 1)")
    parser.add_argument(
        "--preset", help=f"figure preset for 'reproduce' ({', '.join(PRESET_IDS)})"
    )
    return parser


def _load_config(args) -> RunConfig:
    if args.config is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {args.config}: {exc}") from exc
    elif args.command == "reproduce" and args.preset:
        text = "command: reproduce"
    else:
        raise ConfigurationError("--config is required (or --preset with 'reproduce')")
    cfg = parse_config(text, preset=args.preset)
    if cfg.command != args.command:
        raise ConfigurationError(
            f"config declares command {cfg.command!r} but {args.command!r} was requested"
        )

    if args.out:
        cfg.output.directory = args.out
    if args.threads is not None:
        if args.threads < 1:
            raise ConfigurationError("--threads must be >= 1")
        cfg.threads = args.threads
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        files = run_command(cfg)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    for path in files:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
