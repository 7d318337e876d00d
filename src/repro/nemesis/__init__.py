"""repro.nemesis: the deterministic conformance engine.

A Jepsen-style matrix — workloads × fault plans × all five protocols —
where every cell is one seeded simulation judged by the
:class:`~repro.faults.ConsistencyOracle` and scored against the
protocol's *documented* guarantees.  ``python -m repro nemesis`` runs
it and emits both a rendered table and a schema-versioned JSON
document whose digest is stable at a fixed seed.
"""

from .matrix import (
    ALL_PROTOCOLS,
    NEMESIS_SCHEMA,
    NemesisCell,
    cell_id,
    cell_seed,
    nemesis_document,
    nemesis_obs_artifact,
    render_matrix,
    run_cell,
    run_matrix,
    validate_nemesis_document,
)
from .plans import NEMESIS_PLANS, NemesisPlanSpec, QUICK_PLANS, plan_events
from .sharded import SHARDED_PROTOCOLS, SHARDED_ROWS
from .workloads import NEMESIS_WORKLOADS, run_workload

__all__ = [
    "ALL_PROTOCOLS",
    "NEMESIS_SCHEMA",
    "NEMESIS_PLANS",
    "NEMESIS_WORKLOADS",
    "NemesisCell",
    "NemesisPlanSpec",
    "QUICK_PLANS",
    "cell_id",
    "cell_seed",
    "nemesis_document",
    "nemesis_obs_artifact",
    "plan_events",
    "render_matrix",
    "run_cell",
    "run_matrix",
    "run_workload",
    "validate_nemesis_document",
    "SHARDED_PROTOCOLS",
    "SHARDED_ROWS",
]
