"""repro.nemesis: the deterministic conformance engine.

A Jepsen-style matrix — workloads × fault plans × all five protocols —
where every cell is one seeded simulation judged by the
:class:`~repro.faults.ConsistencyOracle` and scored against the
protocol's *documented* guarantees.  ``python -m repro nemesis`` runs
it and emits both a rendered table and a schema-versioned JSON
document whose digest is stable at a fixed seed.
"""

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "ALL_PROTOCOLS": ".matrix",
    "NEMESIS_SCHEMA": ".matrix",
    "NEMESIS_PLANS": ".plans",
    "NEMESIS_WORKLOADS": ".workloads",
    "NemesisCell": ".matrix",
    "NemesisPlanSpec": ".plans",
    "QUICK_PLANS": ".plans",
    "cell_id": ".matrix",
    "cell_seed": ".matrix",
    "nemesis_document": ".matrix",
    "nemesis_obs_artifact": ".matrix",
    "plan_events": ".plans",
    "render_matrix": ".matrix",
    "run_cell": ".matrix",
    "run_matrix": ".matrix",
    "run_workload": ".workloads",
    "validate_nemesis_document": ".matrix",
    "SHARDED_PROTOCOLS": ".sharded",
    "SHARDED_ROWS": ".sharded",
})
