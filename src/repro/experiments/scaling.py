"""Multi-client scaling (§2.3 / §5.2's server-capacity discussion).

The paper argues that "the Sprite server should be able to provide
acceptable performance to a larger number of simultaneously active
clients", and measures that "the server disk utilization with SNFS is
30 % to 35 % lower" while CPU load mostly tracks total RPC rate.

This experiment runs N clients concurrently against one server, each
looping an edit/compile-flavoured private workload (write a few files,
read them back, delete the temporaries), and reports per-protocol:

* mean client completion time (response-time degradation with N);
* server CPU utilization;
* server disk utilization (where SNFS's fewer writes pay off).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..metrics import format_table
from ..workloads import edit_compile
from .bed import build_bed
from .window import Window

__all__ = ["ScalingPoint", "run_scaling_point", "scaling_table"]


@dataclass
class ScalingPoint:
    protocol: str
    n_clients: int
    mean_client_seconds: float
    max_client_seconds: float
    server_cpu_utilization: float
    server_disk_utilization: float
    total_rpcs: int


def run_scaling_point(
    protocol: str,
    n_clients: int,
    iterations: int = 6,
    file_blocks: int = 4,
) -> ScalingPoint:
    """One (protocol, N) measurement."""
    bed = build_bed(protocol, n_clients)
    server_host = bed.server_host
    disk = next(iter(server_host.disks.values()))
    window = Window(bed)
    finish_times: List[float] = []

    def timed(kernel, i):
        yield from edit_compile(kernel, "/data/user%d" % i, iterations, file_blocks)
        finish_times.append(window.elapsed)

    bed.run_all(*(timed(k, i) for i, k in enumerate(bed.kernels)), limit=1e6)
    return ScalingPoint(
        protocol=protocol,
        n_clients=n_clients,
        mean_client_seconds=sum(finish_times) / len(finish_times),
        max_client_seconds=max(finish_times),
        server_cpu_utilization=window.utilization(server_host.cpu),
        server_disk_utilization=window.utilization(disk),
        total_rpcs=window.wire_calls(),
    )


def scaling_table(
    client_counts: Tuple[int, ...] = (1, 2, 4, 8),
    protocols: Tuple[str, ...] = ("nfs", "snfs"),
    iterations: int = 6,
    file_blocks: int = 4,
) -> Tuple[str, Dict[Tuple[str, int], ScalingPoint]]:
    """Scaling sweep: the server-capacity extension experiment."""
    points: Dict[Tuple[str, int], ScalingPoint] = {}
    rows = []
    for n in client_counts:
        row = ["%d" % n]
        for protocol in protocols:
            pt = run_scaling_point(protocol, n, iterations, file_blocks)
            points[(protocol, n)] = pt
            row.append("%.1f" % pt.mean_client_seconds)
            row.append("%.0f%%" % (100 * pt.server_cpu_utilization))
            row.append("%.0f%%" % (100 * pt.server_disk_utilization))
        rows.append(row)
    headers = ["Clients"]
    for protocol in protocols:
        headers += [
            "%s client (s)" % protocol.upper(),
            "%s CPU" % protocol.upper(),
            "%s disk" % protocol.upper(),
        ]
    table = format_table(
        headers,
        rows,
        title="Server scaling: N concurrent clients (extension experiment)",
    )
    return table, points
