"""The benchmark harness: ``python -m repro bench`` and ``golden``.

Three jobs, one mechanism each:

* :mod:`repro.bench.golden` — the schedule and model oracle: fixed-seed
  digests of every paper-facing table and figure, and the trace (or
  engine schedule) digest of every traced scenario, all in
  ``tests/golden/golden.json``;
* :mod:`repro.bench.workloads` — the protocol-stack workloads (the
  two-client Andrew run, the external sort, the five-protocol N-client
  cluster sweep, the sharded namespace), recorded as simulated work and
  simulated time in ``BENCH_workloads.json``
  (:mod:`repro.bench.schema`) and checked exactly;
* :mod:`repro.bench.engine_bench` — pure-engine microbenchmark bodies:
  golden digests their schedules, and :func:`run_engine_cell` is the
  wall-clock calibration ``perfbench/`` (the only source of speed
  claims) runs.
"""

from .engine_bench import ENGINE_SCENARIOS, run_engine_cell
from .golden import (
    GOLDEN_OUTPUTS,
    GOLDEN_SCHEMA,
    GOLDEN_TRACED,
    check_golden,
    compute_output_digests,
    compute_trace_digests,
    default_golden_path,
    run_golden,
    write_golden,
)
from .schema import (
    BENCH_SCHEMA,
    bench_document,
    compare_to_baseline,
    validate_bench_document,
)
from .workloads import WORKLOAD_SCENARIOS, run_workload_cell, run_workload_suite

__all__ = [
    "ENGINE_SCENARIOS",
    "run_engine_cell",
    "WORKLOAD_SCENARIOS",
    "run_workload_cell",
    "run_workload_suite",
    "GOLDEN_OUTPUTS",
    "GOLDEN_SCHEMA",
    "GOLDEN_TRACED",
    "check_golden",
    "compute_output_digests",
    "compute_trace_digests",
    "default_golden_path",
    "run_golden",
    "write_golden",
    "BENCH_SCHEMA",
    "bench_document",
    "validate_bench_document",
    "compare_to_baseline",
]
