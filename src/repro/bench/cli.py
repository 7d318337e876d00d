"""``python -m repro bench``: run the wall-clock benchmark suites.

Runs the pure-engine microbenchmarks and/or the protocol-stack
workload benchmarks, writes ``BENCH_engine.json`` /
``BENCH_workloads.json`` documents (schema ``repro-bench/1``), and
optionally gates against a committed baseline::

    python -m repro bench                      # both suites, full size
    python -m repro bench --quick -j4          # CI-sized, 4 workers
    python -m repro bench --suite engine \\
        --check BENCH_engine.json --tolerance 0.2

Scenarios are independent cells executed by the
:mod:`repro.parallel` process pool (``--jobs``, default every core);
``-j1`` runs in-process and the emitted documents are byte-identical
at any job count modulo the wall-clock fields.  A raising or crashed
cell becomes an ``error`` row in the document's ``parallel`` block and
a non-zero exit, without taking the rest of the sweep down.

``--check`` compares each produced document against the baseline file
whose ``suite`` field matches and exits non-zero when any scenario's
(median-of-repeats) events/sec falls more than ``tolerance`` below the
baseline.
"""

from __future__ import annotations

import os
import time
from typing import List

from ..document import read_json, write_json
from ..obs import OBS_INDENT
from ..parallel import (
    CellSpec,
    make_progress_printer,
    resolve_jobs,
    run_cells,
    sweep_summary,
)
from .engine_bench import run_engine_suite
from .golden import check_golden, default_golden_path, write_golden
from .schema import (
    RATE_KEY, bench_document, compare_to_baseline, validate_bench_document,
)
from .workloads import run_workload_suite

__all__ = ["register", "run_bench", "run_golden_cli", "emit_obs_artifacts"]


def emit_obs_artifacts(
    out_dir: str, seed: int = 1989, jobs: int = 1, progress=None
) -> List[str]:
    """Run the traced two-client Andrew workload (both protocols) with
    latency attribution on and write ``OBS_andrew-<protocol>.json``
    documents — the obs CI job's quick traced bench.  Each protocol is
    one pool cell; the documents are deterministic, so the files are
    byte-identical at any job count."""
    specs = [
        CellSpec(
            kind="obs-baseline",
            name="obs-andrew-%s" % protocol,
            params={"protocol": protocol, "scenario": "andrew-2client"},
            seed=seed,
        )
        for protocol in ("nfs", "snfs")
    ]
    rows = run_cells(specs, jobs=jobs, progress=progress)
    paths = []
    for row in rows:
        if row["error"]:
            raise RuntimeError(
                "obs cell %r failed: %s" % (row["name"], row["error"])
            )
        protocol = row["result"]["meta"]["protocol"]
        path = os.path.join(out_dir, "OBS_andrew-%s.json" % protocol)
        paths.append(write_json(row["result"], path, indent=OBS_INDENT))
    return paths


def _print_summary(suite: str, scenarios: List[dict], parallel: dict) -> None:
    print("%s suite:" % suite)
    rate_key = RATE_KEY[suite]
    for s in scenarios:
        digest = (s.get("trace_digest") or "-")[:12]
        print(
            "  %-22s %12d ops  %8.3fs wall  %10d %s  digest %s"
            % (s["name"], s["ops"], s["wall_seconds"], s[rate_key], rate_key, digest)
        )
    for cell in parallel["cells"]:
        if cell.get("error"):
            print("  %-22s ERROR: %s" % (cell["name"], cell["error"]))
    print("  " + sweep_summary(parallel))


def run_bench(args) -> int:
    suites = ("engine", "workloads") if args.suite == "all" else (args.suite,)
    jobs = resolve_jobs(args.jobs)
    baseline = read_json(args.check) if args.check else None
    rc = 0
    only = args.only
    extra_ns = tuple(args.n or ())
    matched_any = False
    for suite in suites:
        accounting: dict = {}
        pool_progress = make_progress_printer("bench:%s" % suite)
        if suite == "engine":
            scenarios = run_engine_suite(
                quick=args.quick, repeats=args.repeats, only=only,
                jobs=jobs, progress=pool_progress, accounting=accounting,
            )
        else:
            scenarios = run_workload_suite(
                quick=args.quick,
                digests=not args.no_digests,
                only=only,
                jobs=jobs,
                extra_ns=extra_ns,
                pool_progress=pool_progress,
                accounting=accounting,
            )
        errors = [c for c in accounting["cells"] if c.get("error")]
        if errors:
            rc = 1
        if not scenarios and not errors:
            print("no %s scenarios match --only %r" % (suite, only))
            continue
        matched_any = True
        doc = bench_document(
            suite, scenarios, quick=args.quick, parallel=accounting
        )
        problems = validate_bench_document(doc)
        if problems:
            for problem in problems:
                print("schema problem: %s" % problem)
            rc = 1
        path = write_json(doc, os.path.join(args.out, "BENCH_%s.json" % suite))
        _print_summary(suite, scenarios, accounting)
        print("wrote %s" % path)
        if baseline is not None and baseline.get("suite") == suite:
            ok, lines = compare_to_baseline(doc, baseline, tolerance=args.tolerance)
            print("baseline check (%s, tolerance %.0f%%):" % (args.check, 100 * args.tolerance))
            for line in lines:
                print("  " + line)
            if not ok:
                rc = 1
    if not matched_any:
        return 1
    if args.obs:
        for path in emit_obs_artifacts(args.out, jobs=jobs):
            print("wrote %s" % path)
    return rc


def run_golden_cli(args) -> int:
    """``python -m repro golden``: pooled golden-digest check/regen.
    ``--check`` exits 1 when the model changed (an output digest differs,
    a cell errored), 2 when only trace digests moved, 0 on a match."""
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
        "bench", help="wall-clock benchmarks; write BENCH_*.json documents"
    )
    p_bench.add_argument(
        "--suite",
        choices=["engine", "workloads", "all"],
        default="all",
        help="which suite(s) to run (default: all)",
    )
    p_bench.add_argument(
        "--quick", action="store_true", help="CI-sized scenario variants"
    )
    p_bench.add_argument(
        "--out", metavar="DIR", default=".", help="output directory (default: .)"
    )
    p_bench.add_argument(
        "--repeats", type=int, default=3, help="engine timing repeats (best-of)"
    )
    p_bench.add_argument(
        "--no-digests", action="store_true", help="skip trace-digest variants"
    )
    p_bench.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare against a committed BENCH_*.json; non-zero exit on regression",
    )
    p_bench.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed events/sec regression vs the baseline (default: 0.20)",
    )
    p_bench.add_argument(
        "--obs",
        action="store_true",
        help="also emit OBS_andrew-*.json latency-attribution artifacts",
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
        help="add an opt-in sweep-n<CLIENTS> cluster scaling point "
        "(e.g. --n 10000; repeatable; workloads suite, full size only)",
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
