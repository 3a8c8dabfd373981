"""Command-line entry point: run, list, and validate experiments.

Exit codes: 0 success, 2 configuration/validation failure (including a
ValueError raised during a run), 3 numerical non-convergence during a run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from qdlab.errors import NonConvergenceError
from .config import ConfigError
from .experiments import EXPERIMENTS, load_config, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _read_config(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError([f"cannot read config {path}: {exc}"]) from exc
    return load_config(text)


def _cmd_list(_args) -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name in sorted(EXPERIMENTS):
        print(f"{name:<{width}}  {EXPERIMENTS[name].description}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = _read_config(args.config)
    print(f"ok: experiment {config.experiment!r}, output {config.output_dir!r}")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = _read_config(args.config)
    try:
        manifest = run_experiment(config)
    except ValueError as exc:
        # A precondition only the run can check, e.g. deloc's crossover window.
        raise ConfigError(str(exc).splitlines()) from exc
    print(f"wrote {len(manifest.files)} file(s) to {config.output_dir}")
    for name in manifest.files:
        print(f"  {name}")
    print(f"manifest: {Path(config.output_dir) / 'manifest.json'}")
    return EXIT_OK


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="qdlab",
        description="Run desk-scale lattice-disorder experiments from INI configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("config", help="path to an INI config file")
    run_p.set_defaults(func=_cmd_run)

    list_p = sub.add_parser("list", help="list registered experiments")
    list_p.set_defaults(func=_cmd_list)

    val_p = sub.add_parser("validate", help="check a config without running")
    val_p.add_argument("config", help="path to an INI config file")
    val_p.set_defaults(func=_cmd_validate)

    args = parser.parse_args()
    try:
        return args.func(args)
    except ConfigError as exc:
        for line in exc.violations:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
