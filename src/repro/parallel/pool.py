"""The process pool itself: ordered collection, failure isolation,
speedup accounting, and a live progress line.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .cells import CellSpec, blank_row, run_cell_spec

__all__ = [
    "default_jobs",
    "resolve_jobs",
    "run_cells",
    "sweep",
    "pool_accounting",
    "sweep_summary",
    "make_progress_printer",
]

#: pools a cell may break while it runs alone (so the crash is its
#: own) before it is written off as an error row
_MAX_ATTEMPTS = 3

Progress = Callable[[int, int, Dict[str, Any]], None]


def default_jobs() -> int:
    """The ``--jobs`` default: every core the scheduler gives us."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return max(1, os.cpu_count() or 1)


def resolve_jobs(jobs: Optional[int]) -> int:
    """A ``--jobs`` value as a worker count: ``None`` is the default."""
    return default_jobs() if jobs is None else max(1, jobs)


def _crash_row(spec: CellSpec, detail: str) -> Dict[str, Any]:
    return blank_row(spec, "worker process crashed (%s)" % detail)


def run_cells(
    specs: Sequence[CellSpec],
    jobs: Optional[int] = None,
    progress: Optional[Progress] = None,
) -> List[Dict[str, Any]]:
    """Execute every spec; returns rows in **spec order** regardless of
    completion order.

    ``jobs=None`` uses :func:`default_jobs`; ``jobs<=1`` (or a single
    cell) executes in-process through the same per-cell function, so
    the serial path is byte-identical by construction.  A raising cell
    yields its error row from inside the worker; a worker that dies
    outright breaks the pool; the unfinished cells are bisected over
    fresh pools until the poisonous one runs alone, so it cannot take
    the sweep down with it and only it is charged the break (at most
    ``_MAX_ATTEMPTS`` each).
    """
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(specs) <= 1:
        rows = []
        for i, spec in enumerate(specs):
            row = run_cell_spec(spec)
            rows.append(row)
            if progress is not None:
                progress(i + 1, len(specs), row)
        return rows
    return _run_pooled(specs, jobs, progress)


def _run_pooled(
    specs: List[CellSpec], jobs: int, progress: Optional[Progress]
) -> List[Dict[str, Any]]:
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    results: List[Optional[Dict[str, Any]]] = [None] * len(specs)
    attempts = [0] * len(specs)
    # cells to run together in one pool; the next group is the last
    groups = [list(range(len(specs)))]
    done = 0
    while groups:
        group = groups.pop()
        broken: List[int] = []
        with ProcessPoolExecutor(max_workers=min(jobs, len(group))) as pool:
            futures = {}
            for i in group:
                try:
                    futures[pool.submit(run_cell_spec, specs[i])] = i
                except BrokenProcessPool:
                    broken.append(i)
            for future in as_completed(futures):
                i = futures[future]
                try:
                    results[i] = future.result()
                except BrokenProcessPool:
                    broken.append(i)
                    continue
                except Exception as exc:  # noqa: BLE001 - unpicklable result etc.
                    results[i] = _crash_row(specs[i], "%s: %s" % (type(exc).__name__, exc))
                done += 1
                if progress is not None:
                    progress(done, len(specs), results[i])
        if len(broken) > 1:
            # the cell that killed its worker is among the unfinished
            # ones, which are bystanders until it runs alone: bisect
            broken.sort()
            half = len(broken) // 2
            groups += [broken[half:], broken[:half]]
        elif broken:
            (i,) = broken
            attempts[i] += 1
            if attempts[i] >= _MAX_ATTEMPTS:
                results[i] = _crash_row(specs[i], "gave up after %d pool breaks" % attempts[i])
                done += 1
                if progress is not None:
                    progress(done, len(specs), results[i])
            else:
                groups.append(broken)
    return [row for row in results if row is not None]


def pool_accounting(
    rows: Sequence[Dict[str, Any]], total_wall_seconds: float, jobs: int
) -> Dict[str, Any]:
    """The per-cell + aggregate timing block embedded in artifacts.

    ``serial_cell_seconds`` is the sum of per-cell wall clocks (what a
    one-core sweep would cost); ``speedup`` is that sum over the
    observed wall clock — an honest measurement of what the pool
    bought on this machine, not a theoretical figure.
    """
    serial = sum(r.get("wall_seconds", 0.0) for r in rows)
    cells = []
    for r in rows:
        cell: Dict[str, Any] = {
            "name": r["name"],
            "kind": r["kind"],
            "wall_seconds": round(r.get("wall_seconds", 0.0), 6),
        }
        if r.get("error"):
            cell["error"] = r["error"]
        cells.append(cell)
    return {
        "jobs": jobs,
        "cells": cells,
        "total_wall_seconds": round(total_wall_seconds, 6),
        "serial_cell_seconds": round(serial, 6),
        "speedup": round(serial / total_wall_seconds, 3) if total_wall_seconds > 0 else 0.0,
    }


def sweep(
    specs: Sequence[CellSpec],
    jobs: Optional[int] = None,
    progress: Optional[Progress] = None,
) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    """:func:`run_cells` under a stopwatch: ``(rows, accounting)``.

    Every command that fans out (golden, nemesis) runs its cells
    through here, so a sweep is timed and accounted one way."""
    jobs = resolve_jobs(jobs)
    t0 = time.perf_counter()  # lint: ok=DET002 — wall-clock sweep accounting, not sim logic
    rows = run_cells(specs, jobs=jobs, progress=progress)
    total = time.perf_counter() - t0  # lint: ok=DET002 — wall-clock sweep accounting, not sim logic
    return rows, pool_accounting(rows, total, jobs)


def sweep_summary(accounting: Dict[str, Any]) -> str:
    """The one-line rendering of a :func:`pool_accounting` block."""
    return (
        "%d cells on %d worker(s): %.3fs wall, %.3fs serial-equivalent "
        "(speedup %.2fx)"
        % (
            len(accounting["cells"]), accounting["jobs"],
            accounting["total_wall_seconds"],
            accounting["serial_cell_seconds"], accounting["speedup"],
        )
    )


def make_progress_printer(label: str, stream=None) -> Progress:
    """A progress callback: one live line on a tty, plain lines otherwise."""
    stream = stream if stream is not None else sys.stderr
    live = hasattr(stream, "isatty") and stream.isatty()
    t0 = time.perf_counter()  # lint: ok=DET002 — wall-clock progress display, not sim logic

    def emit(done: int, total: int, row: Dict[str, Any]) -> None:
        elapsed = time.perf_counter() - t0  # lint: ok=DET002 — wall-clock progress display, not sim logic
        status = "ERROR " if row.get("error") else ""
        text = "[%s %d/%d] %s%s (%.1fs cell, %.1fs total)" % (
            label, done, total, status, row["name"],
            row.get("wall_seconds", 0.0), elapsed,
        )
        if live:
            stream.write("\r\x1b[2K" + text)
            if done == total:
                stream.write("\n")
        else:
            stream.write(text + "\n")
        stream.flush()

    return emit
