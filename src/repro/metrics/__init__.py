"""Measurement infrastructure: tallies, utilization sampling, reports."""

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "Tally": ".tally",
    "MetricsRegistry": ".registry",
    "Counter": ".registry",
    "Histogram": ".registry",
    "TimeSeries": ".timeseries",
    "UtilizationSampler": ".timeseries",
    "format_table": ".report",
    "format_strip_chart": ".report",
    "format_series_table": ".report",
    "series_to_csv": ".report",
})
