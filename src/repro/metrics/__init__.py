"""Measurement infrastructure: tallies, utilization sampling, reports."""

from .registry import Counter, Histogram, MetricsRegistry
from .report import format_series_table, format_strip_chart, format_table, series_to_csv
from .tally import Tally
from .timeseries import TimeSeries, UtilizationSampler

__all__ = [
    "Tally",
    "MetricsRegistry",
    "Counter",
    "Histogram",
    "TimeSeries",
    "UtilizationSampler",
    "format_table",
    "format_strip_chart",
    "format_series_table",
    "series_to_csv",
]
