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

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "ENGINE_SCENARIOS": ".engine_bench",
    "run_engine_cell": ".engine_bench",
    "WORKLOAD_SCENARIOS": ".workloads",
    "run_workload_cell": ".workloads",
    "run_workload_suite": ".workloads",
    "GOLDEN_OUTPUTS": ".golden",
    "GOLDEN_SCHEMA": ".golden",
    "GOLDEN_TRACED": ".golden",
    "check_golden": ".golden",
    "compute_output_digests": ".golden",
    "compute_trace_digests": ".golden",
    "default_golden_path": ".golden",
    "run_golden": ".golden",
    "write_golden": ".golden",
    "BENCH_SCHEMA": ".schema",
    "bench_document": ".schema",
    "validate_bench_document": ".schema",
    "compare_to_baseline": ".schema",
})
