"""The ``BENCH_*.json`` document schema, builder, and validator.

A bench document is deterministic in *shape* (key set, ordering,
types) while its wall-clock fields vary run to run; the per-scenario
``trace_digest`` fields are fully deterministic and double as a
schedule-identity oracle.  Documents are written with sorted keys and
a trailing newline so regenerating one produces a minimal diff.

The shape is :data:`_SPEC` below, field by field.

:func:`compare_to_baseline` implements the CI regression gate: each
scenario present in both documents must be no slower than
``(1 - tolerance) *`` the baseline's rate (:data:`RATE_KEY`: engine
``ops`` are scheduler events, workload ``ops`` RPCs and disk transfers),
and must carry the baseline's ``trace_digest`` when both sides have one.
Engine scenarios derive ``wall_seconds`` / ``events_per_sec`` from the
**median** of their timing repeats (the raw repeats ride along in
``wall_seconds_repeats``), so one noisy CI repeat cannot fail the
gate; digest comparison is exact and unaffected.

Parallel runs add an optional top-level ``parallel`` block (also
wall-clock-only, never part of any digest).
"""

from __future__ import annotations

import platform
import sys
from typing import Dict, List, Optional, Tuple

from ..document import NUMBER, Maybe, check

__all__ = [
    "BENCH_SCHEMA",
    "RATE_KEY",
    "bench_document",
    "validate_bench_document",
    "compare_to_baseline",
]

BENCH_SCHEMA = "repro-bench/1"

#: suite -> the scenario field holding ``ops / wall_seconds``
RATE_KEY = {"engine": "events_per_sec", "workloads": "ops_per_wall_s"}

_SPEC = {
    "schema": {BENCH_SCHEMA},
    "suite": {"engine", "workloads"},
    "quick": bool,
    "host": {"python": str},  # "3.11.7"; also platform and machine
    "scenarios": [
        {
            "name": str,
            "params": dict,  # scenario-defining knobs
            "ops": int,  # deterministic op count
            # "sim_seconds": float | null — simulated time covered
            "wall_seconds": NUMBER,  # wall clock (engine: median of repeats)
            "events_per_sec": Maybe(int),  # ops / wall_seconds, under RATE_KEY
            "ops_per_wall_s": Maybe(int),
            "trace_digest": Maybe(str),  # schedule-identity hash
            "wall_seconds_repeats": Maybe([NUMBER]),
        }
    ],
    # :func:`repro.parallel.pool_accounting`'s block
    "parallel": Maybe(
        {
            "jobs": int,
            "total_wall_seconds": NUMBER,  # observed sweep wall clock
            "serial_cell_seconds": NUMBER,  # sum of per-cell wall clocks
            "speedup": NUMBER,  # serial / total
            # each also has "kind", and "error" when the cell failed
            "cells": [{"name": str, "wall_seconds": NUMBER}],
        }
    ),
}


def bench_document(
    suite: str,
    scenarios: List[Dict],
    quick: bool = False,
    parallel: Optional[Dict] = None,
) -> Dict:
    """Assemble a bench document from scenario result dicts.

    ``parallel`` is the :func:`repro.parallel.pool_accounting` block
    for the sweep that produced the scenarios (omitted when absent)."""
    doc = {
        "schema": BENCH_SCHEMA,
        "suite": suite,
        "quick": quick,
        "host": {
            "python": "%d.%d.%d" % sys.version_info[:3],
            "platform": sys.platform,
            "machine": platform.machine(),
        },
        "scenarios": scenarios,
    }
    if parallel:
        doc["parallel"] = parallel
    return doc


def validate_bench_document(doc) -> List[str]:
    """Schema check; returns a list of problems (empty when valid)."""
    problems = check(doc, _SPEC)
    if problems:
        return problems
    if not doc["scenarios"]:
        problems.append("scenarios must be a non-empty list")
    seen = set()
    rate_key = RATE_KEY[doc["suite"]]
    for i, scenario in enumerate(doc["scenarios"]):
        where = "scenarios[%d]" % i
        if scenario.get(rate_key) is None:
            problems.append("%s missing %r" % (where, rate_key))
        digest = scenario.get("trace_digest")
        if digest is not None and len(digest) != 64:
            problems.append("%s.trace_digest must be null or a sha256 hex" % where)
        if scenario.get("wall_seconds_repeats") == []:
            problems.append("%s.wall_seconds_repeats must be non-empty" % where)
        if scenario["name"] in seen:
            problems.append("duplicate scenario name %r" % scenario["name"])
        seen.add(scenario["name"])
    parallel = doc.get("parallel")
    if parallel is not None and parallel["jobs"] < 1:
        problems.append("parallel.jobs must be a positive int")
    return problems


def compare_to_baseline(
    fresh: Dict, baseline: Dict, tolerance: float = 0.20
) -> Tuple[bool, List[str]]:
    """Regression gate: fresh rates and schedule digests vs the
    committed baseline.

    An engine document's ``events_per_sec`` are median-of-repeats figures (see
    :func:`repro.bench.engine_bench.run_engine_cell`), so a single
    noisy repeat on either side cannot decide the verdict.  A
    ``trace_digest`` is taken on a fixed small variant whatever the run
    size, so a ``--quick`` run is held to a full-size baseline's: a
    mismatch means same-instant entries ran in another order, and fails
    the gate with its own line.

    Returns ``(ok, report_lines)``.  Scenarios only present on one side
    are reported but do not fail the gate (suites may grow).
    """
    base = {s["name"]: s for s in baseline.get("scenarios", [])}
    rate_key = RATE_KEY[fresh["suite"]]
    lines = []
    ok = True
    for scenario in fresh.get("scenarios", []):
        name = scenario["name"]
        ref = base.pop(name, None)
        if ref is None:
            lines.append("%-20s new scenario (no baseline)" % name)
            continue
        digest, ref_digest = scenario.get("trace_digest"), ref.get("trace_digest")
        if digest is not None and ref_digest is not None and digest != ref_digest:
            ok = False
            lines.append(
                "%-20s trace_digest %s differs from baseline %s SCHEDULE CHANGED"
                % (name, digest[:12], ref_digest[:12])
            )
        rate, ref_rate = scenario[rate_key], ref[rate_key]
        if ref_rate <= 0:
            lines.append("%-20s baseline rate is 0; skipped" % name)
            continue
        ratio = rate / ref_rate
        status = "ok"
        if ratio < (1.0 - tolerance):
            status = "REGRESSION"
            ok = False
        lines.append(
            "%-20s %10d /s vs %10d baseline (%+5.1f%%) %s"
            % (name, rate, ref_rate, 100.0 * (ratio - 1.0), status)
        )
    for name in sorted(base):
        lines.append("%-20s missing from fresh run" % name)
    return ok, lines
