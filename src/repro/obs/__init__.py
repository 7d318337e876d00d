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

from .collector import PHASES, ObsCollector
from .digest import LATENCY_BREAKS, QuantileDigest
from .report import (
    DEFAULT_THRESHOLDS,
    OBS_INDENT,
    OBS_SCHEMA,
    diff_reports,
    merge_obs_documents,
    obs_document,
    render_report,
    utilization_series_from_tracer,
    validate_obs_document,
)

__all__ = [
    "ObsCollector",
    "PHASES",
    "QuantileDigest",
    "LATENCY_BREAKS",
    "OBS_SCHEMA",
    "OBS_INDENT",
    "obs_document",
    "merge_obs_documents",
    "validate_obs_document",
    "render_report",
    "diff_reports",
    "utilization_series_from_tracer",
    "DEFAULT_THRESHOLDS",
]
