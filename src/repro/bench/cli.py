"""``python -m repro bench`` and ``python -m repro golden``.

``bench`` runs the protocol-stack workload scenarios and writes
``BENCH_workloads.json`` (schema ``repro-bench/2``): per scenario the
simulated work (``ops``) and simulated time (``sim_seconds``), nothing
measured by a wall clock, so the document is byte-identical at any job
count and ``--check`` compares it exactly::

    python -m repro bench -j2                    # regenerate ./BENCH_workloads.json
    python -m repro bench --check BENCH_workloads.json --out bench-out
    python -m repro bench --only 'sharded-*' --n 1024 --out bench-out

Scenarios are independent cells executed by the :mod:`repro.parallel`
process pool (``--jobs``, default every core); ``-j1`` runs in-process.
A raising or crashed cell becomes an ``ERROR`` line and a non-zero
exit, without taking the rest of the sweep down.

``golden`` is the schedule oracle (every trace digest lives in
``tests/golden/golden.json``) and ``perfbench/`` the stopwatch.
"""

from __future__ import annotations

import os
import time

__all__ = ["register", "run_bench", "run_golden_cli"]


def run_bench(args) -> int:
    from ..document import read_json, write_json
    from ..parallel import make_progress_printer, resolve_jobs, sweep_summary
    from .schema import bench_document, compare_to_baseline, validate_bench_document
    from .workloads import run_workload_suite

    baseline = read_json(args.check) if args.check else None
    if baseline is not None:
        problems = validate_bench_document(baseline)
        for problem in problems:
            print("baseline %s: %s" % (args.check, problem))
        if problems:
            return 1
    accounting: dict = {}
    scenarios = run_workload_suite(
        only=args.only,
        jobs=resolve_jobs(args.jobs),
        extra_ns=tuple(args.n or ()),
        progress=make_progress_printer("bench"),
        accounting=accounting,
    )
    for s in scenarios:
        print("  %-24s %8d ops  %12.6f sim s" % (s["name"], s["ops"], s["sim_seconds"]))
    errors = [c for c in accounting["cells"] if c.get("error")]
    for cell in errors:
        print("  %-24s ERROR: %s" % (cell["name"], cell["error"]))
    print("  " + sweep_summary(accounting))
    if not scenarios:
        if not errors:
            print("no scenarios match --only %r" % args.only)
        return 1
    rc = 1 if errors else 0
    doc = bench_document(scenarios)
    for problem in validate_bench_document(doc):
        print("schema problem: %s" % problem)
        rc = 1
    print("wrote %s" % write_json(doc, os.path.join(args.out, "BENCH_workloads.json")))
    if baseline is not None:
        ok, lines = compare_to_baseline(doc, baseline)
        print("baseline check (%s):" % args.check)
        for line in lines:
            print("  " + line)
        if not ok:
            rc = 1
    return rc


def run_golden_cli(args) -> int:
    """``python -m repro golden``: pooled golden-digest check/regen.
    ``--check`` exits 1 when the model changed (an output digest differs,
    a cell errored), 2 when only trace digests moved, 0 on a match."""
    from ..parallel import make_progress_printer, resolve_jobs, sweep_summary
    from .golden import check_golden, default_golden_path, write_golden

    if args.check and args.write:
        raise SystemExit("--check and --write are mutually exclusive")
    jobs = resolve_jobs(args.jobs)
    path = args.path or default_golden_path()
    progress = make_progress_printer("golden")
    if args.write:
        t0 = time.perf_counter()  # lint: ok=DET002 — wall-clock sweep accounting, not sim logic
        out = write_golden(path, jobs=jobs, progress=progress)
        print(
            "wrote %s (%.1fs, %d worker(s))"
            % (out, time.perf_counter() - t0, jobs)  # lint: ok=DET002 — wall-clock sweep accounting, not sim logic
        )
        return 0
    accounting: dict = {}
    ok, lines = check_golden(
        path, jobs=jobs, progress=progress, accounting=accounting
    )
    for line in lines:
        print(line)
    print(sweep_summary(accounting))
    moved = [line.split()[1] for line in lines if line.startswith("MOVED")]
    model_changed = any(not line.startswith(("ok", "MOVED")) for line in lines)
    print("model    (output digests): %s" % ("CHANGED" if model_changed else "MATCH"))
    schedule = " ".join(["MOVED "] + moved) if moved else "MATCH"
    print("schedule (trace digests):  %s" % schedule)
    print("golden digests %s vs %s" % ("MATCH" if ok else "DIFFER", path))
    return 1 if model_changed else 2 if moved else 0


def register(sub) -> None:
    p_bench = sub.add_parser(
        "bench",
        help="simulated work and time of the workload scenarios; "
        "write BENCH_workloads.json",
    )
    p_bench.add_argument(
        "--out", metavar="DIR", default=".", help="output directory (default: .)"
    )
    p_bench.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare against a committed BENCH_workloads.json; non-zero "
        "exit when a scenario on both sides differs in any field",
    )
    p_bench.add_argument(
        "--only",
        metavar="SCENARIO",
        help="run only scenarios matching this fnmatch pattern "
        "(e.g. 'sharded-*' or an exact name)",
    )
    p_bench.add_argument(
        "-j",
        "--jobs",
        type=int,
        metavar="N",
        help="worker processes for the scenario sweep (default: all "
        "cores; 1 runs in-process with byte-identical output)",
    )
    p_bench.add_argument(
        "--n",
        type=int,
        action="append",
        metavar="CLIENTS",
        help="add an opt-in sweep-n<CLIENTS> SNFS cluster point "
        "(e.g. --n 10000; repeatable)",
    )
    p_bench.set_defaults(func=run_bench)
    p_golden = sub.add_parser(
        "golden",
        help="recompute the fixed-seed golden digests on the cell pool; "
        "--check (default) diffs against tests/golden/golden.json",
    )
    p_golden.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed golden file (the default)",
    )
    p_golden.add_argument(
        "--write",
        action="store_true",
        help="regenerate the golden file (only after an INTENTIONAL "
        "behavior change)",
    )
    p_golden.add_argument(
        "--path",
        metavar="PATH",
        help="golden file location (default: tests/golden/golden.json)",
    )
    p_golden.add_argument(
        "-j",
        "--jobs",
        type=int,
        metavar="N",
        help="worker processes (default: all cores)",
    )
    p_golden.set_defaults(func=run_golden_cli)
