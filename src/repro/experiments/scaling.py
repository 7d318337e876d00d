"""Multi-client scaling (§2.3 / §5.2's server-capacity discussion).

The paper argues that "the Sprite server should be able to provide
acceptable performance to a larger number of simultaneously active
clients", and measures that "the server disk utilization with SNFS is
30 % to 35 % lower" while CPU load mostly tracks total RPC rate.

Every N-client experiment runs one load: each client loops an
edit/compile-flavoured private workload (write a few files, read them
back, delete the temporaries) in its own directory.  The scaling table
reports per protocol:

* mean client completion time (response-time degradation with N);
* server CPU utilization;
* server disk utilization (where SNFS's fewer writes pay off).

:func:`cluster_point` and :func:`sharded_point` run the same load at
cluster scale, on one server or over a sharded namespace; golden pins
their simulated work and time (:data:`repro.bench.golden.LOAD_POINTS`).
A large-N point is one call, e.g. ``cluster_point("snfs", 4096,
iterations=1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..metrics import format_table
from ..workloads import edit_compile
from .cluster import build_cluster, build_sharded_cluster
from .window import Window

__all__ = [
    "ScalingPoint",
    "run_scaling_point",
    "scaling_table",
    "cluster_point",
    "sharded_point",
]


def _edit_compile_load(
    bed, iterations: int, file_blocks: int, hot_dir: bool = False
) -> List[float]:
    """Run one edit/compile loop per client to completion; returns each
    client's finish time, in seconds since the load began, in finishing
    order.  With ``hot_dir`` every client works in ``/data/shared``."""
    t0 = bed.sim.now
    finish_times: List[float] = []

    def client(i, kernel):
        if hot_dir:
            yield from edit_compile(
                kernel, "/data/shared", iterations, file_blocks, "u%d." % i
            )
        else:
            yield from edit_compile(kernel, "/data/user%d" % i, iterations, file_blocks)
        finish_times.append(bed.sim.now - t0)

    bed.run_all(*(client(i, k) for i, k in enumerate(bed.kernels)), limit=1e6)
    return finish_times


def cluster_point(
    protocol: str,
    n_clients: int,
    iterations: int = 3,
    file_blocks: int = 4,
    seed: Optional[int] = None,
):
    """Run one (protocol, N) cluster load; returns (bed, sim_seconds)."""
    bed = build_cluster(protocol, n_clients, seed=seed)
    return bed, max(_edit_compile_load(bed, iterations, file_blocks))


def sharded_point(
    protocol: str,
    n_shards: int,
    n_clients: int,
    iterations: int = 3,
    file_blocks: int = 4,
    hot_dir: bool = False,
    seed: Optional[int] = None,
):
    """Run the load over a sharded namespace; returns (bed, sim_seconds).

    Each client works in its own top-level directory, round-robin
    assigned across the shards (subtree strategy), so aggregate server
    CPU — the single-server bottleneck — is split N ways.  With
    ``hot_dir`` every client instead works in one shared ``/data/shared``
    directory owned by shard 0, which re-serializes the whole load on
    one server no matter how many shards exist.
    """
    if hot_dir:
        assignments = {"shared": 0}
    else:
        assignments = {"user%d" % i: i % n_shards for i in range(n_clients)}
    bed = build_sharded_cluster(
        protocol,
        n_shards,
        n_clients,
        strategy="subtree",
        assignments=assignments,
        seed=seed,
    )
    return bed, max(_edit_compile_load(bed, iterations, file_blocks, hot_dir))


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
    bed = build_cluster(protocol, n_clients)
    server_host = bed.server_host
    disk = next(iter(server_host.disks.values()))
    window = Window(bed)
    finish_times = _edit_compile_load(bed, iterations, file_blocks)
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
