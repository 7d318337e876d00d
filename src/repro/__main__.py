"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro list                 # what can be reproduced
    python -m repro table 5-1            # one table
    python -m repro figure 5-2           # one figure (ASCII panels)
    python -m repro consistency          # the §2.3 stale-read demo
    python -m repro micro                # the §5.3 microbenchmark
    python -m repro scaling              # the N-clients extension
    python -m repro ablations            # all five ablations
    python -m repro golden --check       # every fixed-seed digest vs golden.json
    python -m repro nemesis              # conformance matrix under faults
    python -m repro all                  # everything (under half a minute)
"""

from __future__ import annotations

import argparse
import sys

from .analysis import cli as analysis_cli
from .bench import cli as bench_cli
from .experiments import cli as experiments_cli
from .nemesis import cli as nemesis_cli
from .obs import cli as obs_cli
from .trace import cli as trace_cli


def _list(args) -> int:
    print(__doc__)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce tables and figures from Spritely NFS (SOSP 1989).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list reproducible artifacts").set_defaults(func=_list)
    # each owning package adds its subcommands (parser + ``func``
    # default; ``report`` already has a positional called ``run``), in
    # ``--help`` order, which lists ``all`` last
    for cli in (experiments_cli, trace_cli, bench_cli, nemesis_cli, obs_cli, analysis_cli):
        cli.register(sub)
    experiments_cli.register_all(sub)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
