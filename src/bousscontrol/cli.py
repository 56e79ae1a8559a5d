"""Command-line entry point.

Subcommands: simulate | linear-control | nonlinear-control | decay |
large-time | verify, each taking --config PATH and --out DIR.  The subcommand
overrides the config file's ``kind``.
"""

from __future__ import annotations

import argparse
import sys

from .config import _KINDS, parse_config
from .exceptions import BoussControlError
from .runner import run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bousscontrol",
        description="Simulation and null-control synthesis for the 2-D "
                    "Boussinesq system with nonlocal viscosity and viscous heating")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in _KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", required=True, help="configuration file")
        p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except (OSError, BoussControlError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run_experiment(cfg.with_kind(args.kind), args.out)


if __name__ == "__main__":
    raise SystemExit(main())
