"""File-lifetime sweep: write savings vs. lifetime (extension).

Sweeps the mean file lifetime against the 30 s write-delay window and
reports what fraction of the written bytes each protocol actually sent
to the server.  The crossover this exposes *is* the paper's argument
for delayed write-back: below the window SNFS sends almost nothing;
far above it, SNFS converges toward NFS's write volume (everything
eventually ages out and is flushed).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..metrics import format_table
from ..workloads.lifetimes import LifetimeConfig, LifetimeWorkload
from .cluster import build_testbed
from .window import Window

__all__ = ["LifetimePoint", "run_lifetime_point", "lifetime_sweep"]


@dataclass
class LifetimePoint:
    protocol: str
    mean_lifetime: float
    bytes_written: int
    write_rpcs: int
    blocks_written: int

    @property
    def network_fraction(self) -> float:
        """Fraction of written blocks that crossed the network."""
        total_blocks = self.bytes_written // 4096
        return self.blocks_written / total_blocks if total_blocks else 0.0


def run_lifetime_point(
    protocol: str,
    mean_lifetime: float,
    config: Optional[LifetimeConfig] = None,
) -> LifetimePoint:
    bed = build_testbed(protocol, remote_tmp=True)
    cfg = dataclasses.replace(config or LifetimeConfig(), mean_lifetime=mean_lifetime)
    bench = LifetimeWorkload(bed.client.kernel, "/tmp", cfg)
    window = Window(bed)
    result = bed.run(bench.run())
    write_rpcs = window.rpc_rows()["write"]
    return LifetimePoint(
        protocol=protocol,
        mean_lifetime=mean_lifetime,
        bytes_written=result.bytes_written,
        write_rpcs=write_rpcs,
        blocks_written=write_rpcs,  # one block per write RPC here
    )


def lifetime_sweep(
    lifetimes: Tuple[float, ...] = (2.0, 10.0, 30.0, 90.0, 300.0),
    protocols: Tuple[str, ...] = ("nfs", "snfs"),
) -> Tuple[str, Dict[Tuple[str, float], LifetimePoint]]:
    points: Dict[Tuple[str, float], LifetimePoint] = {}
    rows = []
    for lifetime in lifetimes:
        row = ["%.0f s" % lifetime]
        for protocol in protocols:
            pt = run_lifetime_point(protocol, lifetime)
            points[(protocol, lifetime)] = pt
            row.append("%d" % pt.write_rpcs)
            row.append("%.0f%%" % (100 * pt.network_fraction))
        rows.append(row)
    headers = ["Mean lifetime"]
    for protocol in protocols:
        headers += ["%s writes" % protocol.upper(), "%s sent" % protocol.upper()]
    table = format_table(
        headers,
        rows,
        title=(
            "Write traffic vs. file lifetime (30 s write-delay window) "
            "— §2.1's motivation"
        ),
    )
    return table, points
