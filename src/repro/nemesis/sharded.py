"""Sharded failover rows: one shard crashes during grace, the rest
must not notice.

The matrix (:mod:`repro.nemesis.matrix`) judges each protocol against
one server.  These rows judge the *sharded* deployment story with the
same cell body (:func:`~repro.nemesis.matrix.run_cell`); what differs
is row data, held here.  The bed is one namespace split by subtree
across three shard servers; the matrix's crash-during-grace schedule
(two power cycles, the second inside the first reboot's grace window)
is aimed at shard 0 alone; and writer/reader pairs keep committing
records on every shard.

A sharded cell passes only when

* the oracle reports **zero** violations (the recovery protocols under
  test, SNFS and lease, document full crash recovery — nothing is
  "expected"),
* every *healthy* shard's boot epoch is untouched (shard isolation:
  another shard's recovery must not power-cycle or perturb them), and
* the crashed shard actually power-cycled (the plan fired).

The rows are not part of the default matrix (``ALL_PROTOCOLS`` x
``NEMESIS_WORKLOADS`` x ``NEMESIS_PLANS``); ``python -m repro nemesis
--sharded`` sweeps them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..experiments.bed import Bed
from ..experiments.cluster import build_sharded_cluster
from .workloads import drive_sharing_pairs

__all__ = ["SHARDED_PROTOCOLS", "SHARDED_ROWS", "ShardedRow", "run_shard_spread"]

#: the protocols with a documented crash-recovery story — the only
#: ones whose sharded failover can be required to be violation-free
SHARDED_PROTOCOLS: Tuple[str, ...] = ("snfs", "lease")


def run_shard_spread(bed: Bed) -> Dict[str, int]:
    """Writer/reader pairs spread across every shard.

    Client ``i`` commits records to ``/data/user{i}/shared.dat`` (a
    subtree owned by shard ``i % n_shards``) while client ``i+1`` polls
    it — so the crashed shard carries real write-sharing through its
    recovery window and every healthy shard carries traffic that must
    stay undisturbed."""
    kernels = bed.kernels
    pairs = [
        (kernel, kernels[(i + 1) % len(kernels)], "/data/user%d/shared.dat" % i)
        for i, kernel in enumerate(kernels)
    ]
    return drive_sharing_pairs(bed, pairs)


@dataclass(frozen=True)
class ShardedRow:
    """The topology of one sharded ``(workload, plan)`` row."""

    n_shards: int
    n_clients: int
    #: the workload body the row's workload name stands for
    workload: Callable[[Bed], Dict[str, int]]
    #: the :data:`NEMESIS_PLANS` schedule the row's plan name stands for ...
    schedule: str
    #: ... and the one shard whose server it is aimed at
    crashed_shard: int

    def build(self, protocol: str, seed: int) -> Bed:
        """``/data/user{i}`` is owned by shard ``i % n_shards``."""
        return build_sharded_cluster(
            protocol, self.n_shards, self.n_clients, strategy="subtree",
            assignments={
                "user%d" % i: i % self.n_shards for i in range(self.n_clients)
            },
            seed=seed, with_oracle=True,
        )

    def judge_epochs(
        self, stats: Dict[str, int], before: List[int], after: List[int]
    ) -> Optional[str]:
        """The two pass conditions beyond the oracle's, recorded in
        ``stats``; returns why the cell fails them, or None."""
        k = self.crashed_shard
        healthy_stable = before[:k] + before[k + 1:] == after[:k] + after[k + 1:]
        stats["healthy_epochs_stable"] = int(healthy_stable)
        stats["shard%d_reboots" % k] = after[k] - before[k]
        if not healthy_stable:
            return "healthy shard boot epoch moved: %r -> %r" % (before, after)
        if after[k] <= before[k]:
            return "shard %d never power-cycled (plan did not fire)" % k
        return None


#: (workload, plan) -> row, swept over :data:`SHARDED_PROTOCOLS`
SHARDED_ROWS: Dict[Tuple[str, str], ShardedRow] = {
    ("shard-spread", "shard0-crash-during-grace"): ShardedRow(
        n_shards=3, n_clients=3, workload=run_shard_spread,
        schedule="crash-during-grace", crashed_shard=0,
    ),
}
