"""Andrew benchmark experiment runners (Table 5-1, Table 5-2, figures).

``run_andrew`` executes one configuration; ``andrew_table_5_1`` and
``andrew_table_5_2`` assemble the paper's tables; with
``keep_call_times`` a run also keeps the utilization and call-time
series behind figures 5-1 and 5-2 (:mod:`.figures`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..metrics import TimeSeries, UtilizationSampler, format_table
from ..workloads import AndrewBenchmark, AndrewConfig, AndrewResult, make_tree
from .cluster import build_testbed
from .memo import shared_run
from .window import Window, rpc_rows_table

__all__ = [
    "AndrewRun",
    "run_andrew",
    "andrew_table_5_1",
    "andrew_table_5_2",
    "ANDREW_CONFIGS",
    "stage_andrew",
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
    bench = stage_andrew(bed, bed.client.kernel, tree or make_tree(), bench_config)
    # settle all delayed traffic, then measure only the benchmark — the
    # paper ran SNFS trials back-to-back "so that NFS would not be
    # charged for writes incurred by SNFS"
    bed.run(bed.client.kernel.sync())
    window = Window(bed)

    sampler = None
    if keep_call_times and bed.server_host is not None:
        sampler = UtilizationSampler(
            bed.sim,
            bed.server_host.cpu.busy_time,
            interval=sample_interval,
            name="server-cpu",
        )

    result = bed.run(bench.run())
    if sampler is not None:
        sampler.stop()

    run = AndrewRun(
        label=label or "%s%s" % (protocol, " tmp-remote" if remote_tmp else ""),
        protocol=protocol,
        remote_tmp=remote_tmp,
        result=result,
        rpc_rows=window.rpc_rows(),
        server_disk=window.disk_stats(window.server_hosts),
    )
    if sampler is not None:
        # keep the benchmark window only, re-zeroed to its start
        t0 = window.t0
        run.server_utilization = sampler.series.window(t0, bed.sim.now).shifted(-t0)
        log = window.call_log()
        read, write = "%s.read" % protocol, "%s.write" % protocol
        run.call_times = {
            "total": [t for t, _name in log],
            "read": [t for t, name in log if name == read],
            "write": [t for t, name in log if name == write],
        }
    return run


def stage_andrew(bed, kernel, tree, config: Optional[AndrewConfig] = None) -> AndrewBenchmark:
    """The benchmark over ``/data/src`` -> ``/data/dst`` with ``/tmp``
    temporaries, its source tree populated through ``kernel``."""
    bench = AndrewBenchmark(
        kernel,
        src_dir="/data/src",
        dst_dir="/data/dst",
        tmp_dir="/tmp",
        tree=tree,
        config=config,
    )

    def setup():
        yield from kernel.mkdir("/data/src")
        yield from bench.populate_source()

    bed.run(setup())
    return bench


def _table_runs(configs, tree, bench_config) -> List[AndrewRun]:
    """One run per ``(label, protocol, remote_tmp)`` column, shared
    across Tables 5-1/5-2 and the ablations at the default tree."""
    return [
        dataclasses.replace(
            shared_run(
                run_andrew, protocol, remote_tmp, tree=tree, bench_config=bench_config
            ),
            label=label,
        )
        for label, protocol, remote_tmp in configs
    ]


def andrew_table_5_1(
    tree=None, bench_config=None, configs=None
) -> Tuple[str, List[AndrewRun]]:
    """Reproduce Table 5-1: phase elapsed times across configurations."""
    runs = _table_runs(configs or ANDREW_CONFIGS, tree, bench_config)
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
    runs = _table_runs(configs, tree, bench_config)
    return rpc_rows_table(runs, "Table 5-2: RPC calls for Andrew benchmark"), runs


def rates_from_times(times: List[float], bucket: float, t_end: float) -> List[Tuple[float, float]]:
    """Convert raw event timestamps to an events/second series."""
    n_buckets = max(1, int(t_end / bucket + 0.999999))
    counts = [0] * n_buckets
    for t in times:
        idx = min(int(t / bucket), n_buckets - 1)
        counts[idx] += 1
    return [(i * bucket, c / bucket) for i, c in enumerate(counts)]
