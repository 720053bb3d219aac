"""Command line interface: ``singh run`` and ``singh preset``."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .presets import PRESETS
from .runner import run_preset, run_scenario
from .scenario import ScenarioParseError, ScenarioValidationError, parse_scenario
from .special_math import _MAX_SEED

__all__ = ["main"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singh",
        description="Validate confidence distributions and c-boxes with Singh plots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario file")
    run.add_argument("--scenario", required=True, help="path to a scenario document")
    run.add_argument("--out", default="out", help="output directory (default: out)")
    run.add_argument("--replicates", type=int, help="override the replicate count m")
    run.add_argument("--seed", type=int, help="override the master seed")
    run.add_argument("--format", choices=("csv", "svg", "both"),
                     help="restrict emitted curve artifacts")

    preset = sub.add_parser("preset", help="run a built-in preset")
    preset.add_argument("name", choices=sorted(PRESETS), help="preset name")
    preset.add_argument("--out", default="out", help="output directory (default: out)")
    return parser


def _run_command(args) -> int:
    try:
        text = Path(args.scenario).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    try:
        scenario = parse_scenario(text)
        if args.replicates is not None:
            if args.replicates < 1:
                raise ScenarioValidationError("m must be at least 1")
            scenario = replace(scenario, m=args.replicates)
        if args.seed is not None:
            if not 0 <= args.seed < _MAX_SEED:
                raise ScenarioValidationError("seed must be a 64-bit unsigned integer")
            scenario = replace(scenario, seed=args.seed)
    except ScenarioParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ScenarioValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        written = run_scenario(scenario, args.out, fmt=args.format)
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for path in written:
        print(path)
    return EXIT_OK


def _preset_command(args) -> int:
    try:
        written = run_preset(args.name, args.out)
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for path in written:
        print(path)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _run_command(args)
    return _preset_command(args)


if __name__ == "__main__":
    sys.exit(main())
