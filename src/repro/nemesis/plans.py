"""The nemesis schedule generator: named fault plans over the
:mod:`repro.faults` primitives.

Each plan is a declarative, deterministic schedule sized for the
nemesis workloads (whose calm runs last ~45 simulated seconds, so
every window lands mid-workload).  Beyond the single-fault plans the
generator composes the two compound schedules the recovery seam is
most likely to get wrong:

* **crash-during-grace** — the server crashes *again* while clients
  are reasserting state from the first crash, so recovery must restart
  under a fresh boot epoch with reopen RPCs from the dead epoch still
  in flight;
* **partition-heal-crash** — a client is partitioned away, heals, and
  then the server crashes: the healed client's retransmissions and the
  recovery window interleave.

``plan_events(name, server=...)`` binds a plan to concrete
host/disk names; ``NEMESIS_PLANS`` lists every plan with the metadata
the conformance table needs (does it crash the server?).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["NemesisPlanSpec", "NEMESIS_PLANS", "QUICK_PLANS", "plan_events"]


@dataclass(frozen=True)
class NemesisPlanSpec:
    """One named fault schedule and its conformance-relevant traits."""

    name: str
    #: does the schedule power-cycle the server?  Crash plans widen the
    #: set of *expected* violations for the protocols that document
    #: weak crash semantics (RFS, Kent) instead of recovering.
    crashes_server: bool
    description: str


def plan_events(
    name: str,
    server: str = "server",
    client_a: str = "client0",
    client_b: str = "client1",
    server_disk: str = "server:disk0",
) -> Tuple:
    """The event tuple for one named plan, bound to concrete targets."""
    from ..faults import (
        CrashReboot,
        DiskFault,
        LatencyBurst,
        LossBurst,
        Partition,
        SlowDisk,
    )

    if name == "calm":
        return ()
    if name == "flaky-net":
        return (
            LossBurst(start=6.0, duration=18.0, rate=0.15),
            LatencyBurst(start=10.0, duration=12.0, extra=0.03),
        )
    if name == "partition-heal":
        return (
            Partition(start=8.0, duration=6.0, a=client_b, b=server),
            Partition(start=22.0, duration=5.0, a=client_a, b=server),
        )
    if name == "disk-stress":
        return (
            DiskFault(start=8.0, duration=10.0, disk=server_disk, error_rate=0.3),
            SlowDisk(start=20.0, duration=8.0, disk=server_disk, factor=6.0),
        )
    if name == "server-crash":
        return (CrashReboot(at=18.0, target=server, down_for=5.0),)
    if name == "crash-during-grace":
        # reboot at t=17 opens the (20 s) grace window; the second
        # crash at t=22 lands squarely inside it, while clients are
        # mid-reassertion
        return (
            CrashReboot(at=14.0, target=server, down_for=3.0),
            CrashReboot(at=22.0, target=server, down_for=3.0),
        )
    if name == "partition-heal-crash":
        return (
            Partition(start=6.0, duration=8.0, a=client_b, b=server),
            CrashReboot(at=20.0, target=server, down_for=4.0),
        )
    raise ValueError("unknown nemesis plan %r" % name)


#: every plan, in table order
NEMESIS_PLANS: Dict[str, NemesisPlanSpec] = {
    spec.name: spec
    for spec in (
        NemesisPlanSpec("calm", False, "no faults: the control column"),
        NemesisPlanSpec("flaky-net", False, "packet loss + latency bursts"),
        NemesisPlanSpec("partition-heal", False, "each client cut off once, then healed"),
        NemesisPlanSpec("disk-stress", False, "server disk errors, then a slow window"),
        NemesisPlanSpec("server-crash", True, "server power-cycled mid-workload"),
        NemesisPlanSpec("crash-during-grace", True, "second crash inside the recovery window"),
        NemesisPlanSpec("partition-heal-crash", True, "partition, heal, then server crash"),
    )
}

#: the CI subset: one network plan, the basic crash, and the compound
#: crash that stresses the recovery seam hardest
QUICK_PLANS = ("flaky-net", "server-crash", "crash-during-grace")
