"""Andrew benchmark experiment runners (Table 5-1, Table 5-2, figures).

``run_andrew`` executes one configuration; ``andrew_table_5_1`` and
``andrew_table_5_2`` assemble the paper's tables; ``andrew_figure``
produces the utilization/call-rate series of figures 5-1 and 5-2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..metrics import TimeSeries, UtilizationSampler, format_table
from ..workloads import AndrewBenchmark, AndrewConfig, AndrewResult, make_tree
from .cluster import build_testbed

__all__ = [
    "AndrewRun",
    "run_andrew",
    "andrew_table_5_1",
    "andrew_table_5_2",
    "andrew_figure",
    "ANDREW_CONFIGS",
]

#: Table 5-1's five columns: (label, protocol, remote_tmp)
ANDREW_CONFIGS: List[Tuple[str, str, bool]] = [
    ("local", "local", False),
    ("NFS tmp-local", "nfs", False),
    ("SNFS tmp-local", "snfs", False),
    ("NFS tmp-remote", "nfs", True),
    ("SNFS tmp-remote", "snfs", True),
]

PHASES = ["MakeDir", "Copy", "ScanDir", "ReadAll", "Make"]


@dataclass
class AndrewRun:
    label: str
    protocol: str
    remote_tmp: bool
    result: AndrewResult
    rpc_rows: Dict[str, int] = field(default_factory=dict)
    server_utilization: Optional[TimeSeries] = None
    call_times: Dict[str, List[float]] = field(default_factory=dict)
    server_disk: Dict[str, int] = field(default_factory=dict)


def run_andrew(
    protocol: str = "nfs",
    remote_tmp: bool = False,
    label: str = "",
    tree=None,
    bench_config: Optional[AndrewConfig] = None,
    client_config=None,
    host_config=None,
    server_config=None,
    keep_call_times: bool = False,
    sample_interval: float = 5.0,
) -> AndrewRun:
    """Run the Andrew benchmark once in the given configuration."""
    bed = build_testbed(
        protocol,
        remote_tmp=remote_tmp,
        client_config=client_config,
        host_config=host_config,
        server_config=server_config,
        keep_call_times=keep_call_times,
    )
    bench = AndrewBenchmark(
        bed.client.kernel,
        src_dir="/data/src",
        dst_dir="/data/dst",
        tmp_dir="/tmp",
        tree=tree or make_tree(),
        config=bench_config,
    )

    def setup():
        yield from bed.client.kernel.mkdir("/data/src")
        yield from bench.populate_source()

    bed.run(setup())
    # settle all delayed traffic, then measure only the benchmark — the
    # paper ran SNFS trials back-to-back "so that NFS would not be
    # charged for writes incurred by SNFS"
    bed.run(bed.client.kernel.sync())
    bed.client.rpc.client_stats.reset()
    if bed.server_host is not None:
        bed.server_host.rpc.server_stats.reset()
        if keep_call_times:
            bed.server_host.rpc.call_log.clear()
        bed.server_host.rpc.client_stats.reset()
        for disk in bed.server_host.disks.values():
            disk.stats.reset()

    sampler = None
    if keep_call_times and bed.server_host is not None:
        sampler = UtilizationSampler(
            bed.sim,
            bed.server_host.cpu.busy_time,
            interval=sample_interval,
            name="server-cpu",
        )

    t0 = bed.sim.now
    result = bed.run(bench.run())
    if sampler is not None:
        sampler.stop()

    run = AndrewRun(
        label=label or "%s%s" % (protocol, " tmp-remote" if remote_tmp else ""),
        protocol=protocol,
        remote_tmp=remote_tmp,
        result=result,
        rpc_rows=bed.client_rpc_rows() if bed.server is not None else {},
        server_disk=bed.server_disk_stats(),
    )
    if sampler is not None:
        # keep the benchmark window only, re-zeroed to its start
        run.server_utilization = sampler.series.window(t0, bed.sim.now).shifted(-t0)
        log = bed.server_host.rpc.call_log
        read, write = "%s.read" % protocol, "%s.write" % protocol
        run.call_times = {
            "total": [t - t0 for t, _name in log],
            "read": [t - t0 for t, name in log if name == read],
            "write": [t - t0 for t, name in log if name == write],
        }
    return run


def andrew_table_5_1(
    tree=None, bench_config=None, configs=None
) -> Tuple[str, List[AndrewRun]]:
    """Reproduce Table 5-1: phase elapsed times across configurations."""
    runs = [
        run_andrew(protocol, remote_tmp, label=label, tree=tree, bench_config=bench_config)
        for label, protocol, remote_tmp in (configs or ANDREW_CONFIGS)
    ]
    headers = ["Phase"] + [r.label for r in runs]
    rows = []
    for phase in PHASES:
        rows.append([phase] + ["%.0f" % r.result.phase_seconds[phase] for r in runs])
    rows.append(["Total"] + ["%.0f" % r.result.total for r in runs])
    table = format_table(
        headers, rows, title="Table 5-1: Andrew benchmark elapsed time (seconds)"
    )
    return table, runs


def andrew_table_5_2(tree=None, bench_config=None) -> Tuple[str, List[AndrewRun]]:
    """Reproduce Table 5-2: RPC call counts for the Andrew benchmark."""
    configs = [c for c in ANDREW_CONFIGS if c[1] != "local"]
    runs = [
        run_andrew(protocol, remote_tmp, label=label, tree=tree, bench_config=bench_config)
        for label, protocol, remote_tmp in configs
    ]
    ops = ["lookup", "read", "write", "getattr", "open", "close", "callback", "other", "total"]
    headers = ["Operation"] + [r.label for r in runs]
    rows = [[op] + [str(r.rpc_rows.get(op, 0)) for r in runs] for op in ops]
    table = format_table(
        headers, rows, title="Table 5-2: RPC calls for Andrew benchmark"
    )
    return table, runs


def andrew_figure(
    protocol: str,
    tree=None,
    bench_config=None,
    sample_interval: float = 5.0,
    rate_bucket: float = 5.0,
) -> AndrewRun:
    """Reproduce figure 5-1 (protocol='nfs') or 5-2 (protocol='snfs'):
    server CPU utilization and RPC call rates over the benchmark, with
    /tmp remote ("effectively simulating a diskless workstation")."""
    return run_andrew(
        protocol,
        remote_tmp=True,
        tree=tree,
        bench_config=bench_config,
        keep_call_times=True,
        sample_interval=sample_interval,
    )


def rates_from_times(times: List[float], bucket: float, t_end: float) -> List[Tuple[float, float]]:
    """Convert raw event timestamps to an events/second series."""
    n_buckets = max(1, int(t_end / bucket + 0.999999))
    counts = [0] * n_buckets
    for t in times:
        idx = min(int(t / bucket), n_buckets - 1)
        counts[idx] += 1
    return [(i * bucket, c / bucket) for i, c in enumerate(counts)]
