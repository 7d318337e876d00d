"""The one measured window: what a run cost between two instants.

The paper's evaluation is one instrument applied repeatedly — "elapsed
times, RPC operation counts, and server CPU utilization" over a
benchmark window (§5).  A :class:`Window` is that instrument: opened on
a built and staged bed (:class:`~.bed.Bed` or
:class:`~.cluster.Testbed`), it remembers every host's cumulative
counters and the clock, and each view reports what was added since.
Nothing is zeroed, so windows nest and a traced or figure-mode run
measures the same numbers.

This is also the only module that knows which procedure names are
workload traffic: a mount (``.mnt``) is setup, a ``.retransmit`` is a
transport artifact, and a server's ``.callback``/``.invalidate``/
``.revoke``/``.vacate`` is a push the experiment is charged for.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..metrics import format_table
from ..nfs import classify_ops

__all__ = ["Window", "rpc_rows_table"]

_NOT_WORKLOAD = (".mnt", ".retransmit")
_PUSHES = (".callback", ".invalidate", ".revoke", ".vacate")


class Window:
    """Counter deltas over ``bed``'s hosts from construction to now."""

    def __init__(self, bed):
        self.sim = bed.sim
        self.client_hosts = list(bed.client_hosts)
        self.server_hosts = list(bed.server_hosts)
        self.t0 = bed.sim.now
        hosts = self.client_hosts + self.server_hosts
        self._counts = {id(t): dict(t) for host in hosts for t in _tallies(host)}
        self._busy = {
            id(r): r.busy_time()
            for host in hosts
            for r in [host.cpu, *host.disks.values()]
        }
        self._logged = {
            id(host): len(host.rpc.call_log or ()) for host in self.server_hosts
        }

    def _added(self, tallies, skip=()) -> Dict[str, int]:
        """Per-name growth summed over ``tallies``, names ending in ``skip`` left out."""
        totals: Dict[str, int] = {}
        for tally in tallies:
            base = self._counts[id(tally)]
            for name, count in tally.items():
                if count != base.get(name, 0) and not name.endswith(skip):
                    totals[name] = totals.get(name, 0) + count - base.get(name, 0)
        return totals

    @property
    def elapsed(self) -> float:
        return self.sim.now - self.t0

    # -- RPC traffic -----------------------------------------------------------

    def calls(self) -> Dict[str, int]:
        """Per-procedure calls the clients issued: no mounts, no retransmits."""
        return self._added(
            (host.rpc.client_stats for host in self.client_hosts), _NOT_WORKLOAD
        )

    def pushes(self) -> int:
        """Server->client calls: callbacks, invalidations, revokes, vacates."""
        issued = self._added(host.rpc.client_stats for host in self.server_hosts)
        return sum(n for proc, n in issued.items() if proc.endswith(_PUSHES))

    def rpc_rows(self) -> Dict[str, int]:
        """Table 5-2's rows: the clients' calls by operation, the
        servers' pushes as ``callback``.  A serverless bed has none."""
        if not self.server_hosts:
            return {}
        rows = classify_ops(self.calls())
        pushes = self.pushes()
        rows["callback"] += pushes
        rows["total"] += pushes
        return rows

    def wire_calls(self) -> int:
        """Every client call plus every server push — ``rpc_rows()['total']``."""
        return sum(self.calls().values()) + self.pushes()

    def call_log(self) -> List[Tuple[float, str]]:
        """``(seconds into the window, procedure)`` per call the servers
        executed (hosts built with ``keep_call_times``; figures 5-1/5-2)."""
        return [
            (t - self.t0, proc)
            for host in self.server_hosts
            for t, proc in (host.rpc.call_log or ())[self._logged[id(host)]:]
        ]

    # -- disks and CPUs --------------------------------------------------------

    def disk_stats(self, hosts) -> Dict[str, int]:
        """Disk transfer counts summed over ``hosts``' disks."""
        return self._added(disk.stats for host in hosts for disk in host.disks.values())

    def utilization(self, resource) -> float:
        """Fraction of the window a host's ``cpu`` or one of its disks was busy."""
        return (resource.busy_time() - self._busy[id(resource)]) / self.elapsed


def _tallies(host):
    yield host.rpc.client_stats
    for disk in host.disks.values():
        yield disk.stats


def rpc_rows_table(runs, title: str) -> str:
    """One column of :meth:`Window.rpc_rows` per run (Tables 5-2, 5-4)."""
    headers = ["Operation"] + [run.label for run in runs]
    rows = [
        [op] + [str(run.rpc_rows.get(op, 0)) for run in runs]
        for op in classify_ops({})
    ]
    return format_table(headers, rows, title=title)
