"""Deterministic fault schedules and the injector that runs them.

A :class:`FaultPlan` is a declarative list of timed fault events —
network partitions (full or one-directional), packet-loss and latency
bursts, transient disk-error and slow-disk windows, and crash/reboot
schedules for hosts or servers.  A :class:`FaultInjector` installs the
plan on a running simulation: each event becomes one timed process that
applies the fault at its start time and reverts it when its window
closes, driving the first-class hooks on :class:`~repro.net.Network`,
:class:`~repro.storage.Disk`, and the crash/reboot methods of hosts and
servers.  Nothing is monkeypatched.

Determinism: the plan's timings are explicit; all randomness inside a
fault window (which packets drop, which disk accesses fail) comes from
RNGs reseeded from ``plan.seed`` at install time, so one (plan, seed)
pair replays the same faulted run bit-for-bit.  Loss/latency adjustments
are additive and slow-disk factors multiplicative, so overlapping
windows compose and revert cleanly.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Partition",
    "LossBurst",
    "LatencyBurst",
    "DiskFault",
    "SlowDisk",
    "CrashReboot",
    "FaultPlan",
    "FaultInjector",
]


@dataclass(frozen=True)
class Partition:
    """Cut the link between hosts ``a`` and ``b``.

    ``symmetric=False`` blocks only the a→b direction (an asymmetric
    partition: b's replies still arrive, a's requests do not).
    ``duration=None`` never heals.
    """

    start: float
    duration: Optional[float]
    a: str
    b: str
    symmetric: bool = True


@dataclass(frozen=True)
class LossBurst:
    """Add ``rate`` to the network's drop probability for a window."""

    start: float
    duration: float
    rate: float


@dataclass(frozen=True)
class LatencyBurst:
    """Add ``extra`` seconds of one-way latency for a window."""

    start: float
    duration: float
    extra: float


@dataclass(frozen=True)
class DiskFault:
    """Transient I/O errors: each access on ``disk`` fails (and is
    retried by the driver) with probability ``error_rate``."""

    start: float
    duration: float
    disk: str  # Disk.name, e.g. "server:disk0"
    error_rate: float


@dataclass(frozen=True)
class SlowDisk:
    """Multiply ``disk``'s access times by ``factor`` for a window."""

    start: float
    duration: float
    disk: str
    factor: float


@dataclass(frozen=True)
class CrashReboot:
    """Crash ``target`` at ``at``; reboot after ``down_for`` seconds.

    ``down_for=None`` means the target never comes back — the case the
    SNFS dead-client keepalive sweep exists for.  ``target`` is a key
    into the injector's target map; anything with ``crash()``/
    ``reboot()`` methods qualifies (a Host, an SnfsServer, ...).
    """

    at: float
    target: str
    down_for: Optional[float] = None


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, ordered schedule of fault events plus a seed."""

    events: tuple = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))


class FaultInjector:
    """Installs a :class:`FaultPlan` on a simulation.

    ``disks`` maps disk names to :class:`~repro.storage.Disk` objects
    and ``targets`` maps crash-target names to objects with ``crash()``
    and ``reboot()``.  ``log`` records every applied/reverted fault as
    ``(time, description)``, in simulation order.
    """

    def __init__(self, sim, network=None, disks=None, targets=None, trace=False):
        self.sim = sim
        self.network = network
        self.disks: Dict[str, object] = dict(disks or {})
        self.targets: Dict[str, object] = dict(targets or {})
        self.log: List[Tuple[float, str]] = []
        #: also emit each event as a tracer instant, so faulted runs
        #: show the nemesis activity on the trace timeline next to its
        #: victims.  Opt-in: the pinned golden traces of historical
        #: faulted scenarios predate fault instants and must stay
        #: byte-identical; harnesses built for observability (the
        #: nemesis matrix) turn it on.
        self.trace = trace

    def install(self, plan: FaultPlan) -> None:
        """Reseed the fault RNGs and spawn one process per event."""
        if self.network is not None:
            self.network.reseed(plan.seed)
        for name in sorted(self.disks):
            self.disks[name].reseed(zlib.crc32(name.encode()) ^ plan.seed)
        for i, event in enumerate(plan.events):
            runner = self._RUNNERS.get(type(event).__name__)
            if runner is None:
                raise TypeError("unknown fault event %r" % (event,))
            self.sim.spawn(
                runner(self, event), name="fault-%d:%s" % (i, type(event).__name__)
            )

    def _note(self, what: str, kind: str = "fault") -> None:
        self.log.append((self.sim.now, what))
        probe = self.sim.probe
        if probe is not None:
            probe.count("faults.events", kind=kind)
            if self.trace:
                probe.mark("fault.%s" % kind, "faults", "faults", what=what)

    # -- one timed process per event kind ---------------------------------

    def _run_partition(self, ev: Partition):
        if ev.start > 0:
            yield self.sim.timeout(ev.start)
        arrow = "<->" if ev.symmetric else "->"
        self.network.partition(ev.a, ev.b, symmetric=ev.symmetric)
        self._note("partition %s %s %s" % (ev.a, arrow, ev.b), kind="partition")
        if ev.duration is None:
            return
        yield self.sim.timeout(ev.duration)
        self.network.heal(ev.a, ev.b, symmetric=ev.symmetric)
        self._note("heal %s %s %s" % (ev.a, arrow, ev.b), kind="heal")

    def _run_loss(self, ev: LossBurst):
        if ev.start > 0:
            yield self.sim.timeout(ev.start)
        self.network.extra_drop += ev.rate
        self._note("loss burst +%g" % ev.rate, kind="loss")
        yield self.sim.timeout(ev.duration)
        self.network.extra_drop -= ev.rate  # lint: ok=ATOM001 — += / -= are single-step and commutative; overlapping bursts compose
        self._note("loss burst -%g" % ev.rate, kind="loss_end")

    def _run_latency(self, ev: LatencyBurst):
        if ev.start > 0:
            yield self.sim.timeout(ev.start)
        self.network.extra_latency += ev.extra
        self._note("latency burst +%gs" % ev.extra, kind="latency")
        yield self.sim.timeout(ev.duration)
        self.network.extra_latency -= ev.extra  # lint: ok=ATOM001 — += / -= are single-step and commutative; overlapping bursts compose
        self._note("latency burst -%gs" % ev.extra, kind="latency_end")

    def _run_disk_fault(self, ev: DiskFault):
        disk = self.disks[ev.disk]
        if ev.start > 0:
            yield self.sim.timeout(ev.start)
        disk.error_rate += ev.error_rate
        self._note("disk errors %s +%g" % (ev.disk, ev.error_rate), kind="disk_error")
        yield self.sim.timeout(ev.duration)
        disk.error_rate -= ev.error_rate  # lint: ok=ATOM001 — += / -= are single-step and commutative; overlapping faults compose
        self._note("disk errors %s -%g" % (ev.disk, ev.error_rate), kind="disk_error_end")

    def _run_slow_disk(self, ev: SlowDisk):
        disk = self.disks[ev.disk]
        if ev.start > 0:
            yield self.sim.timeout(ev.start)
        disk.slow_factor *= ev.factor
        self._note("slow disk %s x%g" % (ev.disk, ev.factor), kind="slow_disk")
        yield self.sim.timeout(ev.duration)
        disk.slow_factor /= ev.factor  # lint: ok=ATOM001 — *= / /= are single-step and commutative; overlapping faults compose
        self._note("slow disk %s /%g" % (ev.disk, ev.factor), kind="slow_disk_end")

    def _run_crash(self, ev: CrashReboot):
        target = self.targets[ev.target]
        if ev.at > 0:
            yield self.sim.timeout(ev.at)
        target.crash()
        self._note("crash %s" % ev.target, kind="crash")
        if ev.down_for is None:
            return  # never reboots
        yield self.sim.timeout(ev.down_for)
        target.reboot()
        self._note("reboot %s" % ev.target, kind="reboot")

    _RUNNERS = {
        "Partition": _run_partition,
        "LossBurst": _run_loss,
        "LatencyBurst": _run_latency,
        "DiskFault": _run_disk_fault,
        "SlowDisk": _run_slow_disk,
        "CrashReboot": _run_crash,
    }
