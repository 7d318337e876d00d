"""repro.trace — deterministic causal tracing and exporters.

Turn on with ``sim.enable_tracer()`` (or ``REPRO_TRACE=1``); export
with :func:`chrome_trace_json`, :func:`flamegraph_report`, or
:func:`run_report`.  See docs/OBSERVABILITY.md.
"""

from .tracer import Span, TraceEvent, Tracer
from .export import (
    chrome_trace,
    chrome_trace_json,
    collapsed_stacks,
    flamegraph_report,
    run_report,
    trace_digest,
    validate_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "Tracer",
    "Span",
    "TraceEvent",
    "chrome_trace",
    "chrome_trace_json",
    "write_chrome_trace",
    "validate_chrome_trace",
    "collapsed_stacks",
    "flamegraph_report",
    "run_report",
    "trace_digest",
]
