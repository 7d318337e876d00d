"""``python -m repro nemesis``: sweep the conformance matrix (or, with
``--sharded``, the sharded failover rows), print the verdict table and
write the ``repro-nemesis/1`` document."""

from __future__ import annotations

from .plans import QUICK_PLANS

__all__ = ["register", "run_nemesis"]


def run_nemesis(args) -> int:
    from ..document import write_json
    from ..parallel import make_progress_printer, resolve_jobs, sweep_summary
    from .matrix import nemesis_document, nemesis_obs_artifact, render_matrix, run_matrix
    from .sharded import SHARDED_PROTOCOLS, SHARDED_ROWS

    axes = {"plans": QUICK_PLANS if args.quick else None}
    if args.sharded:
        workloads, plans = zip(*SHARDED_ROWS)
        axes = {"protocols": SHARDED_PROTOCOLS, "workloads": workloads, "plans": plans}
    timing: dict = {}
    try:
        cells = run_matrix(
            seed=args.seed, only=args.only, jobs=resolve_jobs(args.jobs),
            timing=timing, pool_progress=make_progress_printer("nemesis"),
            **axes,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(render_matrix(cells, args.seed))
    doc = nemesis_document(cells, args.seed, timing=timing)
    print(sweep_summary(timing))
    print(
        "cells=%d pass=%d expected=%d fail=%d digest=%s"
        % (
            len(cells),
            doc["summary"]["pass"],
            doc["summary"]["expected"],
            doc["summary"]["fail"],
            doc["digest"][:16],
        )
    )
    if args.json:
        print("wrote %s" % write_json(doc, args.json, sort_keys=False))
    if args.obs:
        print("wrote %s" % nemesis_obs_artifact(args.obs, seed=args.seed))
    return 1 if doc["summary"]["fail"] else 0


def register(sub) -> None:
    p_nem = sub.add_parser(
        "nemesis",
        help="conformance matrix: workloads x fault plans x protocols",
    )
    p_nem.add_argument("--seed", type=int, default=1, help="matrix seed")
    p_nem.add_argument(
        "--quick",
        action="store_true",
        help="CI subset: %s" % ", ".join(QUICK_PLANS),
    )
    p_nem.add_argument(
        "--only",
        metavar="CELL",
        help="run matching cells: an exact protocol/workload/plan id or "
        "an fnmatch pattern (e.g. 'snfs/*/crash-*'); no match exits 1",
    )
    p_nem.add_argument(
        "-j",
        "--jobs",
        type=int,
        metavar="N",
        help="worker processes for the matrix sweep (default: all "
        "cores; 1 runs in-process with byte-identical output)",
    )
    p_nem.add_argument(
        "--json",
        metavar="PATH",
        help="also write the schema-versioned JSON document to PATH",
    )
    p_nem.add_argument(
        "--obs",
        metavar="PATH",
        help="also run one obs-enabled cell and write its repro-obs/1 "
        "latency-attribution document to PATH",
    )
    p_nem.add_argument(
        "--sharded",
        action="store_true",
        help="run the sharded failover cells (one-shard crash during "
        "grace, snfs + lease) instead of the matrix",
    )
    p_nem.set_defaults(func=run_nemesis)
