"""The benchmark harness: ``python -m repro golden``.

Two jobs, one mechanism each:

* :mod:`repro.bench.golden` — the schedule and model oracle: fixed-seed
  digests of every paper-facing table and figure, the simulated work
  and time of every load point, and the trace (or engine schedule)
  digest of every traced scenario, all in ``tests/golden/golden.json``;
* :mod:`repro.bench.engine_bench` — pure-engine microbenchmark bodies:
  golden digests their schedules, and :func:`run_engine_cell` is the
  wall-clock calibration ``perfbench/`` (the only source of speed
  claims) runs.
"""

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "ENGINE_SCENARIOS": ".engine_bench",
    "run_engine_cell": ".engine_bench",
    "GOLDEN_OUTPUTS": ".golden",
    "GOLDEN_SCHEMA": ".golden",
    "GOLDEN_TRACED": ".golden",
    "check_golden": ".golden",
    "compute_output_digests": ".golden",
    "compute_trace_digests": ".golden",
    "default_golden_path": ".golden",
    "run_golden": ".golden",
    "write_golden": ".golden",
})
