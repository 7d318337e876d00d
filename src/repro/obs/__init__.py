"""Latency attribution, queueing accounting, and cross-run reports.

``repro.obs`` decomposes every remote-FS operation's end-to-end latency
into phases (client CPU, network transit, retransmit wait, server
queue-wait, server CPU, disk) and exports a schema-versioned
``repro-obs/1`` artifact that ``python -m repro report`` renders and
diffs across runs.  Enable per-simulator with ``sim.enable_obs()`` or
globally with ``REPRO_OBS=1``.  Model code reaches the collector (and
the other observers) only through :mod:`repro.obs.probe`; runs are
bit-identical to un-instrumented ones.
"""

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "ObsCollector": ".collector",
    "PHASES": ".collector",
    "QuantileDigest": ".digest",
    "LATENCY_BREAKS": ".digest",
    "OBS_SCHEMA": ".report",
    "OBS_INDENT": ".report",
    "obs_document": ".report",
    "merge_obs_documents": ".report",
    "validate_obs_document": ".report",
    "render_report": ".report",
    "diff_reports": ".report",
    "utilization_series_from_tracer": ".report",
    "DEFAULT_THRESHOLDS": ".report",
})
