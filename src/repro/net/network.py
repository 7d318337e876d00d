"""Simulated network: addressed interfaces with latency and bandwidth.

The model is a broadcast-era LAN (the paper's machines sat on one
Ethernet): every host attaches one :class:`Interface`; a message
serializes on the sender's NIC for ``size / bandwidth`` seconds, then
arrives at the destination after the propagation ``latency``.  Optional
random packet loss exercises the RPC retransmission path.

Ports multiplex services on an interface: each bound port names one
callable that a delivered packet is handed to as it arrives; ``listen``
binds the ``put`` of a FIFO :class:`~repro.sim.Store` to read from.

Fault injection (``repro.faults``) drives the network through first-class
hooks rather than test-only monkeypatching: :meth:`Network.partition` /
:meth:`Network.heal` cut the link between two hosts (fully or in one
direction only), and the additive ``extra_drop`` / ``extra_latency``
attributes model loss and latency bursts.  All randomness comes from the
seeded RNG so a faulted run replays exactly from one seed.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..metrics import Tally
from ..sim import Simulator, Store, Resource

__all__ = ["NetworkConfig", "Network", "Interface", "Packet", "NetworkError"]


class NetworkError(Exception):
    """Raised for misuse of the network API (bad address, port clash)."""


@dataclass
class NetworkConfig:
    """Link parameters.

    Defaults approximate a 10 Mbit/s Ethernet of the paper's era:
    1.25 MB/s of bandwidth and 0.2 ms of propagation + switch delay.
    """

    bandwidth: float = 1.25e6  # bytes per second
    latency: float = 0.0002  # seconds, one way
    drop_rate: float = 0.0  # probability a packet is silently lost
    seed: int = 0
    #: keep the last N transmissions for inspection (0 disables); see
    #: Network.packet_trace — a tcpdump for the simulated LAN
    trace_packets: int = 0


@dataclass
class Packet:
    src: str
    dst: str
    port: int
    payload: Any
    size: int

    @property
    def kind(self) -> str:
        """Short label for the payload ("call:nfs.read", "raw")."""
        proc = getattr(self.payload, "proc", None)
        if proc is not None:
            return ("reply:" if getattr(self.payload, "is_reply", False) else "call:") + proc
        return "raw"


class Interface:
    """A host's attachment to the network.

    ``send`` is a simulation coroutine: it serializes the packet onto
    the wire (holding the NIC) and schedules delivery.  ``bind`` claims
    a port for a callable; ``listen`` binds a new Store and returns it.
    """

    def __init__(self, network: "Network", address: str):
        self.network = network
        self.address = address
        self.sim = network.sim
        self._nic = Resource(self.sim, capacity=1, name="nic:%s" % address)
        self._ports: Dict[int, Callable[[Packet], None]] = {}
        self._stores: Dict[int, Store] = {}  # the ports listen() bound
        self.up = True  # goes False while the host is crashed

    def bind(self, port: int, receive: Callable[[Packet], None]) -> None:
        """Hand every packet delivered to ``port`` to ``receive``, inside
        the delivery: it may trigger events and spawn processes, not wait."""
        if port in self._ports:
            raise NetworkError("port %d already bound on %s" % (port, self.address))
        self._ports[port] = receive

    def listen(self, port: int) -> Store:
        store = Store(self.sim, name="%s:%d" % (self.address, port))
        self.bind(port, store.put)
        self._stores[port] = store
        return store

    def send(self, dst: str, port: int, payload: Any, size: int):
        """Coroutine: transmit a packet (returns after serialization)."""
        if size < 0:
            raise NetworkError("negative packet size")
        if not self._nic.try_acquire():
            yield self._nic.acquire()
        try:
            yield size / self.network.config.bandwidth
        finally:
            self._nic.release()
        self.network._transmit(Packet(self.address, dst, port, payload, size))

    def _deliver(self, packet: Packet) -> None:
        if not self.up:
            self.network._drop_event(packet, "host-down")
            return  # host is down: packet lost
        if self.sim.probe is not None:
            self.sim.probe.packet("recv", packet, size=packet.size)
        receive = self._ports.get(packet.port)
        if receive is not None:
            receive(packet)
        # unbound port: silently dropped, like UDP to a closed port

    def flush_ports(self) -> None:
        """Drop all queued, undelivered packets (used on host crash)."""
        for store in self._stores.values():
            while True:
                ok, _item = store.try_get()
                if not ok:
                    break


class Network:
    """The LAN connecting all simulated hosts."""

    def __init__(self, sim: Simulator, config: Optional[NetworkConfig] = None):
        self.sim = sim
        self.config = config or NetworkConfig()
        self.interfaces: Dict[str, Interface] = {}
        self.stats = Tally()
        self._rng = random.Random(self.config.seed)
        self._trace: "deque" = deque(maxlen=self.config.trace_packets or None)
        # fault-injection state (see repro.faults): refcounted directed
        # blocks plus additive loss/latency adjustments, so overlapping
        # fault windows compose and revert cleanly
        self._blocked: Dict[Tuple[str, str], int] = {}
        self.extra_drop = 0.0
        self.extra_latency = 0.0

    def reseed(self, seed: int) -> None:
        """Reset the loss RNG (thread an experiment seed through)."""
        self._rng = random.Random(seed)

    # -- fault hooks -------------------------------------------------------

    def partition(self, a: str, b: str, symmetric: bool = True) -> None:
        """Cut delivery from ``a`` to ``b`` (and back, if symmetric)."""
        self._block(a, b)
        if symmetric:
            self._block(b, a)

    def heal(self, a: str, b: str, symmetric: bool = True) -> None:
        """Undo one matching :meth:`partition`."""
        self._unblock(a, b)
        if symmetric:
            self._unblock(b, a)

    def _block(self, src: str, dst: str) -> None:
        pair = (src, dst)
        self._blocked[pair] = self._blocked.get(pair, 0) + 1

    def _unblock(self, src: str, dst: str) -> None:
        pair = (src, dst)
        count = self._blocked.get(pair, 0) - 1
        if count <= 0:
            self._blocked.pop(pair, None)
        else:
            self._blocked[pair] = count

    def link_blocked(self, src: str, dst: str) -> bool:
        return (src, dst) in self._blocked

    def packet_trace(self):
        """The last N transmissions as (time, src, dst, kind, size).

        ``kind`` is derived from the payload when it is an RPC message
        ("call:nfs.read", "reply:nfs.read") and "raw" otherwise.
        Enabled by ``NetworkConfig(trace_packets=N)``.
        """
        return list(self._trace)

    def _record_trace(self, packet: Packet) -> None:
        self._trace.append(
            (self.sim.now, packet.src, packet.dst, packet.kind, packet.size)
        )

    def attach(self, address: str) -> Interface:
        if address in self.interfaces:
            raise NetworkError("address %r already attached" % address)
        iface = Interface(self, address)
        self.interfaces[address] = iface
        return iface

    def _drop_event(self, packet: Packet, reason: str) -> None:
        if self.sim.probe is not None:
            self.sim.probe.packet("drop", packet, reason=reason)

    def _transmit(self, packet: Packet) -> None:
        self.stats["packets"] += 1
        self.stats["bytes"] += packet.size
        if self.config.trace_packets:
            self._record_trace(packet)
        if self._blocked and (packet.src, packet.dst) in self._blocked:
            self.stats["partitioned"] += 1
            self._drop_event(packet, "partitioned")
            return
        # the RNG is drawn iff the combined rate is positive — the same
        # condition as before the fast path, so seeded runs replay
        # identically whether or not loss is configured
        raw_rate = self.config.drop_rate + self.extra_drop
        if raw_rate > 0 and self._rng.random() < min(1.0, raw_rate):
            self.stats["dropped"] += 1
            self._drop_event(packet, "loss")
            return
        dst = self.interfaces.get(packet.dst)
        if dst is None:
            self.stats["unroutable"] += 1
            self._drop_event(packet, "unroutable")
            return
        if self.sim.probe is not None:
            self.sim.probe.packet("xmit", packet, size=packet.size)
        self.sim._schedule_at(
            self.sim.now + self.config.latency + self.extra_latency,
            dst._deliver,
            packet,
        )
