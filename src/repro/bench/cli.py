"""``python -m repro golden``: the one model and schedule oracle.

It recomputes every fixed-seed digest in ``tests/golden/golden.json`` —
the paper's tables and figures, the load points' simulated work and
time, the traced scenarios' schedules — as independent cells of the
:mod:`repro.parallel` process pool (``--jobs``, default every core;
``-j1`` runs in-process)::

    python -m repro golden --check -j2     # exit 1 model, 2 schedule moved
    python -m repro golden --write -j4     # after an intentional change

``perfbench/`` is the stopwatch.
"""

from __future__ import annotations

import time

__all__ = ["register", "run_golden_cli"]


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
