"""The §2.3 correctness experiment: stale reads under write-sharing.

NFS "provides consistency as long as no client writes a file while
another client has the file open" — here a client does exactly that,
and we count how often a concurrent reader observes stale data under
each protocol.  SNFS (and RFS) must show zero stale reads; NFS shows a
stale window bounded by its attribute-probe interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..metrics import format_table
from ..workloads import SharingResult, run_sharing_experiment
from .bed import build_bed
from .window import Window

__all__ = ["ConsistencyOutcome", "run_consistency", "consistency_table"]


@dataclass
class ConsistencyOutcome:
    protocol: str
    result: SharingResult
    #: wire traffic for the whole run: every client call plus every
    #: server->client push (callbacks, invalidations, revokes, vacates),
    #: excluding mount-time setup — the cost of the consistency guarantee
    rpc_calls: int = 0

    @property
    def total(self) -> int:
        return self.result.total_reads

    @property
    def stale(self) -> int:
        return self.result.stale_reads


def run_consistency(
    protocol: str,
    n_updates: int = 20,
    write_period: float = 4.0,
    read_period: float = 1.0,
) -> ConsistencyOutcome:
    """Two clients write-share one file under the given protocol."""
    bed = build_bed(protocol, 2, update_daemons=False)
    window = Window(bed)
    writer_proc, reader_proc, result = run_sharing_experiment(
        bed.sim,
        bed.kernels[0],
        bed.kernels[1],
        "/data/shared",
        n_updates=n_updates,
        write_period=write_period,
        read_period=read_period,
    )

    def both_finish():
        yield bed.sim.all_of([writer_proc, reader_proc])

    bed.run(both_finish(), limit=1e6)
    return ConsistencyOutcome(
        protocol=protocol, result=result, rpc_calls=window.wire_calls()
    )


def consistency_table(protocols=("nfs", "rfs", "snfs", "kent", "lease")) -> Tuple[str, List[ConsistencyOutcome]]:
    outcomes = [run_consistency(p) for p in protocols]
    headers = ["Protocol", "Reads", "Stale reads", "Stale %"]
    rows = [
        [
            o.protocol.upper(),
            str(o.total),
            str(o.stale),
            "%.1f%%" % (100.0 * o.result.stale_fraction),
        ]
        for o in outcomes
    ]
    table = format_table(
        headers,
        rows,
        title="Consistency under concurrent write-sharing (§2.3): stale reads",
    )
    return table, outcomes
