"""The ``BENCH_workloads.json`` document schema, builder, and validator.

A bench document records what each workload scenario simulated:
``{name, params, ops, sim_seconds}`` per scenario, every field
deterministic, so a regenerated document is byte-identical to the
committed one at any ``-j``.  It is written with sorted keys and a
trailing newline.  The shape is :data:`_SPEC` below.

:func:`compare_to_baseline` is the ``--check`` gate: a scenario present
in both documents must match the baseline in every field — a changed
``ops`` or ``sim_seconds`` means the model computes something else.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..document import NUMBER, check

__all__ = [
    "BENCH_SCHEMA",
    "bench_document",
    "validate_bench_document",
    "compare_to_baseline",
]

BENCH_SCHEMA = "repro-bench/2"

#: the fields of one scenario row, in the order ``--check`` reports them
_FIELDS = ("params", "ops", "sim_seconds")

_SPEC = {
    "schema": {BENCH_SCHEMA},
    "scenarios": [
        {
            "name": str,
            "params": dict,  # scenario-defining knobs
            "ops": int,  # RPCs plus disk transfers
            "sim_seconds": NUMBER,  # simulated time covered
        }
    ],
}


def bench_document(scenarios: List[Dict]) -> Dict:
    """Assemble a bench document from scenario result dicts."""
    return {"schema": BENCH_SCHEMA, "scenarios": scenarios}


def validate_bench_document(doc) -> List[str]:
    """Schema check; returns a list of problems (empty when valid)."""
    problems = check(doc, _SPEC)
    if problems:
        return problems
    if not doc["scenarios"]:
        problems.append("scenarios must be a non-empty list")
    seen = set()
    for scenario in doc["scenarios"]:
        if scenario["name"] in seen:
            problems.append("duplicate scenario name %r" % scenario["name"])
        seen.add(scenario["name"])
    return problems


def compare_to_baseline(fresh: Dict, baseline: Dict) -> Tuple[bool, List[str]]:
    """Exact gate: every scenario present in both documents must equal
    the baseline's row field for field.

    Returns ``(ok, report_lines)``.  Scenarios only present on one side
    are reported but do not fail the gate (``--only`` runs a subset, and
    suites may grow).
    """
    base = {s["name"]: s for s in baseline["scenarios"]}
    lines = []
    ok = True
    for scenario in fresh["scenarios"]:
        name = scenario["name"]
        ref = base.pop(name, None)
        if ref is None:
            lines.append("%-24s new scenario (no baseline)" % name)
            continue
        changed = [key for key in _FIELDS if scenario[key] != ref[key]]
        ok = ok and not changed
        lines.extend(
            "%-24s %s %r differs from baseline %r CHANGED"
            % (name, key, scenario[key], ref[key])
            for key in changed
        )
        if not changed:
            lines.append("%-24s ok" % name)
    for name in sorted(base):
        lines.append("%-24s missing from fresh run" % name)
    return ok, lines
