"""``python -m repro table|figure|all`` and the single-artifact
subcommands: argparse front ends over :data:`~.artifacts.ARTIFACTS`."""

from __future__ import annotations

__all__ = ["register", "register_all"]

#: single-artifact subcommand (= artifact name) -> help line
_SUBCOMMANDS = {
    "consistency": "the §2.3 stale-read comparison",
    "micro": "the §5.3 write-close-reread microbenchmark",
    "scaling": "N-concurrent-clients extension experiment",
    "lifetimes": "write traffic vs file lifetime (§2.1)",
    "readpatterns": "§5.1 read-quickly/slowly RPC counts",
    "blocksharing": "block vs whole-file consistency (§2.5)",
    "ablations": "all design-decision ablations",
    "resilience": "faulted runs judged by the consistency oracle",
}


def _run_artifact(args) -> int:
    from .artifacts import ARTIFACTS

    name = args.command
    if name in ("table", "figure"):  # NAME: 5.1 and 5-1 both name 5-1
        name = "%s-%s" % (name, args.name.replace(".", "-"))
        if name not in ARTIFACTS:
            hint = "4-1, 5-1 .. 5-6" if args.command == "table" else "5-1, 5-2"
            raise SystemExit(
                "unknown %s %r (try: %s)" % (args.command, args.name, hint)
            )
    build = ARTIFACTS[name]
    kwargs = {"seed": args.seed} if hasattr(args, "seed") else {}
    if not getattr(args, "trace", None):
        print(build(**kwargs))
        return 0
    from ..trace.cli import trace_experiment

    text, exports = trace_experiment(
        lambda: build(**kwargs), args.trace, prefix=args.command
    )
    print(text)
    for export in exports:
        print("trace: %s" % export["trace"])
    return 0


def _run_all(args) -> int:
    from .artifacts import ALL_ARTIFACTS, ARTIFACTS

    for i, name in enumerate(ALL_ARTIFACTS):
        if i:
            print()
        print(ARTIFACTS[name]())
    return 0


def register(sub) -> None:
    p_table = sub.add_parser("table", help="print one table")
    p_table.add_argument("name", help="4-1, 5-1, 5-2, 5-3, 5-4, 5-5, or 5-6")
    p_table.set_defaults(func=_run_artifact)
    p_fig = sub.add_parser("figure", help="print one figure (ASCII)")
    p_fig.add_argument("name", help="5-1 or 5-2")
    p_fig.set_defaults(func=_run_artifact)
    for name, help_line in _SUBCOMMANDS.items():
        parser = sub.add_parser(name, help=help_line)
        parser.set_defaults(func=_run_artifact)
        if name == "resilience":
            parser.add_argument("--seed", type=int, default=1, help="experiment seed")
        if name in ("micro", "resilience"):
            parser.add_argument(
                "--trace",
                metavar="DIR",
                        help="record causal traces and export them into DIR",
            )


def register_all(sub) -> None:
    """``all`` is registered after every other package's subcommands."""
    sub.add_parser("all", help="everything (under half a minute)").set_defaults(
        func=_run_all
    )
