"""repro.trace — deterministic causal tracing and exporters.

Turn on with ``sim.enable_tracer()`` (or ``REPRO_TRACE=1``); export
with :func:`chrome_trace_json`, :func:`flamegraph_report`, or
:func:`run_report`.  See docs/OBSERVABILITY.md.
"""

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "Tracer": ".tracer",
    "Span": ".tracer",
    "TraceEvent": ".tracer",
    "chrome_trace": ".export",
    "chrome_trace_json": ".export",
    "write_chrome_trace": ".export",
    "validate_chrome_trace": ".export",
    "collapsed_stacks": ".export",
    "flamegraph_report": ".export",
    "run_report": ".export",
    "trace_digest": ".export",
})
