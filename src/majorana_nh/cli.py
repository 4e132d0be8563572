"""Command-line entry point.

Usage::

    majorana-nh <command> --config <path> [--out <dir>] [--threads N]
                [--seed S] [--scale raw|half] [--preset <id>]

Exit codes: 0 success, 2 configuration error, 3 numeric/convergence error.
Environment overrides: ``MAJORANA_NH_THREADS`` and ``MAJORANA_NH_OUT``.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import COMMANDS, RunConfig, parse_config, resolved_dict
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
    parser.add_argument("--threads", type=int, help="worker threads for sweeps")
    parser.add_argument("--seed", type=int, help="seed recorded in run metadata")
    parser.add_argument("--scale", choices=("raw", "half"), help="energy scale override")
    parser.add_argument(
        "--preset", help=f"figure preset for 'reproduce' ({', '.join(PRESET_IDS)})"
    )
    return parser


def _load_config(args) -> RunConfig:
    if args.config is not None:
        try:
            text = open(args.config, encoding="utf-8").read()
        except OSError as exc:
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

    out_dir = args.out or os.environ.get("MAJORANA_NH_OUT")
    if out_dir:
        cfg.output.directory = out_dir
    threads = args.threads
    if threads is None and os.environ.get("MAJORANA_NH_THREADS"):
        threads = int(os.environ["MAJORANA_NH_THREADS"])
    if threads is not None:
        if threads < 1:
            raise ConfigurationError("--threads must be >= 1")
        cfg.threads = threads
    if args.seed is not None:
        cfg.seed = args.seed
    if args.scale is not None and cfg.model is not None:
        cfg.model = replace(cfg.model, energy_scale=args.scale)
    cfg.resolved = resolved_dict(cfg)
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
