"""Fine-grained write-sharing: whole-file vs. block consistency (§2.5).

Two clients concurrently update *disjoint block ranges* of one shared
file (the database-page pattern).  Under SNFS the file is write-shared,
caching is disabled, and every access is a synchronous server RPC;
under Kent's block scheme each client owns its blocks and keeps its
delayed-write cache.  This quantifies the §2.5 trade-off the paper
mentions but could not measure (Kent's system needed special hardware).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..fs.types import OpenMode
from ..metrics import format_table
from .bed import build_bed
from .window import Window

__all__ = ["BlockSharingResult", "run_block_sharing", "block_sharing_table"]


@dataclass
class BlockSharingResult:
    protocol: str
    elapsed: float
    total_rpcs: int
    data_rpcs: int


def run_block_sharing(
    protocol: str, rounds: int = 30, think_time: float = 0.1
) -> BlockSharingResult:
    """Two clients ping their own disjoint 4 KB pages of one file."""
    bed = build_bed(protocol, 2, update_daemons=False)
    sim, kernels = bed.sim, bed.kernels

    def actor(idx, offset):
        k = kernels[idx]
        stamp = bytes([48 + idx])
        fd = yield from k.open("/data/pages", OpenMode.WRITE, create=True)
        for _ in range(rounds):
            k.lseek(fd, offset)
            yield from k.write(fd, stamp * 4096)
            k.lseek(fd, offset)
            data = yield from k.read(fd, 4096)
            assert bytes(data) == stamp * 4096
            yield sim.timeout(think_time)
        yield from k.close(fd)

    window = Window(bed)
    bed.run_all(actor(0, 0), actor(1, 8192), limit=1e6)
    rows = window.rpc_rows()
    return BlockSharingResult(
        protocol=protocol,
        elapsed=window.elapsed,
        total_rpcs=rows["total"],
        data_rpcs=rows["read"] + rows["write"],
    )


def block_sharing_table(rounds: int = 30) -> Tuple[str, Dict[str, BlockSharingResult]]:
    results = {p: run_block_sharing(p, rounds=rounds) for p in ("snfs", "kent")}
    rows = [
        [
            p.upper(),
            "%.1f" % r.elapsed,
            str(r.total_rpcs),
            str(r.data_rpcs),
        ]
        for p, r in results.items()
    ]
    table = format_table(
        ["Protocol", "Elapsed (s)", "Total RPCs", "Data RPCs"],
        rows,
        title=(
            "Disjoint-block write-sharing, %d rounds x 2 clients: "
            "whole-file (SNFS) vs block (Kent) consistency" % rounds
        ),
    )
    return table, results
