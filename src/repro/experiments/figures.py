"""Figures 5-1 and 5-2: server utilization and call rates over time.

Each figure has four panels in the paper: server CPU utilization, total
RPC call rate, read call rate, and write call rate, sampled across one
Andrew run with /tmp remote.  ``figure_series`` returns all four as
(t, value) series; ``render_figure`` prints them as ASCII strip charts
(matplotlib is not available offline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..metrics import TimeSeries, format_strip_chart
from .andrew import rates_from_times, run_andrew

__all__ = ["FigureData", "figure_series", "render_figure"]


@dataclass
class FigureData:
    protocol: str
    utilization: List[Tuple[float, float]]
    total_rate: List[Tuple[float, float]]
    read_rate: List[Tuple[float, float]]
    write_rate: List[Tuple[float, float]]
    elapsed: float = 0.0

    def mean_utilization(self) -> float:
        """Time-weighted mean utilization (integral / span).

        For the evenly spaced :class:`UtilizationSampler` series this
        equals the sample mean, but it stays correct if the series has
        uneven intervals (e.g. a window cut out of a longer run).
        """
        series = TimeSeries("utilization")
        series.points = list(self.utilization)
        return series.time_mean()

    def utilization_rate_correlation(self) -> float:
        """Pearson correlation between CPU load and total call rate —
        the paper: load "was strongly correlated with the aggregate
        rate of RPC calls"."""
        return _correlation(
            [v for _, v in self.utilization],
            _resample(self.total_rate, [t for t, _ in self.utilization]),
        )

    def utilization_write_correlation(self) -> float:
        return _correlation(
            [v for _, v in self.utilization],
            _resample(self.write_rate, [t for t, _ in self.utilization]),
        )


def _resample(series: List[Tuple[float, float]], at_times: List[float]) -> List[float]:
    """Align rate buckets with utilization windows.

    A utilization sample stamped ``t`` covers the window ending at
    ``t``; a rate bucket stamped ``st`` covers the window *starting* at
    ``st`` — so the matching bucket is the last one with ``st < t``.
    """
    out = []
    for t in at_times:
        value = 0.0
        for st, sv in series:
            if st < t:
                value = sv
            else:
                break
        out.append(value)
    return out


def _correlation(xs: List[float], ys: List[float]) -> float:
    n = min(len(xs), len(ys))
    if n < 2:
        return 0.0
    xs, ys = xs[:n], ys[:n]
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx == 0 or vy == 0:
        return 0.0
    return cov / (vx * vy) ** 0.5


def figure_series(
    protocol: str,
    tree=None,
    bench_config=None,
    sample_interval: float = 5.0,
    rate_bucket: float = 5.0,
) -> FigureData:
    """Produce figure 5-1 (nfs) or 5-2 (snfs) data from one run: server
    CPU utilization and RPC call rates over the benchmark, with /tmp
    remote ("effectively simulating a diskless workstation")."""
    run = run_andrew(
        protocol,
        remote_tmp=True,
        tree=tree,
        bench_config=bench_config,
        keep_call_times=True,
        sample_interval=sample_interval,
    )
    elapsed = run.result.total
    return FigureData(
        protocol=protocol,
        utilization=list(run.server_utilization.points),
        total_rate=rates_from_times(run.call_times["total"], rate_bucket, elapsed),
        read_rate=rates_from_times(run.call_times["read"], rate_bucket, elapsed),
        write_rate=rates_from_times(run.call_times["write"], rate_bucket, elapsed),
        elapsed=elapsed,
    )


def render_figure(data: FigureData, width: int = 50) -> str:
    """ASCII rendering of the four panels."""
    title = "Figure 5-%s: server utilization and call rates for %s" % (
        {"nfs": "1"}.get(data.protocol, "2"),
        data.protocol.upper(),
    )
    peak_rate = max(
        [v for _, v in data.total_rate] + [1.0]
    )
    parts = [
        title,
        "",
        format_strip_chart(
            data.utilization, "server CPU utilization", width=width, y_max=1.0
        ),
        "",
        format_strip_chart(
            data.total_rate, "total RPC calls/sec", width=width, y_max=peak_rate
        ),
        "",
        format_strip_chart(
            data.read_rate, "read calls/sec", width=width, y_max=peak_rate
        ),
        "",
        format_strip_chart(
            data.write_rate, "write calls/sec", width=width, y_max=peak_rate
        ),
    ]
    return "\n".join(parts)
