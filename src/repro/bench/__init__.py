"""Wall-clock benchmark harness (``python -m repro bench``).

Everything else in this repository measures *simulated* time; this
package measures *real* time — how fast the discrete-event engine and
the full protocol stacks execute on the host machine.  It exists so
that performance work has a trajectory to regress against:

* :mod:`repro.bench.engine_bench` — pure-engine microbenchmarks
  (timeout chains, event ping-pong, AnyOf races, timer churn) that
  isolate the scheduler hot path from the protocol layers;
* :mod:`repro.bench.workloads` — macro benchmarks: the two-client
  Andrew run, the external sort, and an N-client cluster sweep per
  protocol (N=16/64/256) that exercises the server at a scale the
  paper could only speculate about;
* :mod:`repro.bench.golden` — fixed-seed digests of every paper-facing
  table and figure, so optimization PRs can prove byte-identical
  schedules before/after;
* :mod:`repro.bench.schema` — the deterministic ``BENCH_*.json``
  document schema and its validator.

The committed ``BENCH_engine.json`` / ``BENCH_workloads.json`` at the
repository root are the perf trajectory; CI re-runs the quick suite and
fails when the engine microbench regresses more than 20 % against them.
"""

from .engine_bench import ENGINE_SCENARIOS, run_engine_cell, run_engine_suite
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
    RATE_KEY,
    bench_document,
    compare_to_baseline,
    validate_bench_document,
)
from .workloads import WORKLOAD_SCENARIOS, run_workload_cell, run_workload_suite

__all__ = [
    "ENGINE_SCENARIOS",
    "run_engine_cell",
    "run_engine_suite",
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
    "RATE_KEY",
    "bench_document",
    "validate_bench_document",
    "compare_to_baseline",
]
