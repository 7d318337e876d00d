"""The one testbed builder: a protocol registry, a driver, and a ``Bed``.

The paper's §5.2 testbed is one idea — "identical machines were used for
client and server", a server exporting one filesystem, N clients
mounting it — so there is one builder for it.  :func:`build_bed` takes
the protocol, the number of clients and (optionally) a
:class:`~repro.proto.shard.ShardMap`: without a map there is one server
named ``server`` mounted directly at ``/data``; with one, shard ``k`` is
``server{k}`` and every client sees the tree through a
:class:`~repro.vfs.ShardedMount`.  "Unsharded" is the one-server case,
not a separate bed.

:data:`PROTOCOL_REGISTRY` is the only place a protocol name is turned
into server and client classes, and :func:`drive` the only
drive-to-completion helper; the paper-shaped single-client
:class:`~repro.experiments.cluster.Testbed` uses both as well.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..faults import ConsistencyOracle, FaultInjector
from ..host import Host, HostConfig
from ..kent import KentClient, KentServer
from ..lease import LeaseClient, LeaseServer
from ..net import Network, NetworkConfig
from ..nfs import NfsClient, NfsServer
from ..proto.shard import ShardMap
from ..rfs import RfsClient, RfsServer
from ..sim import AllOf, Simulator
from ..snfs import SnfsClient, SnfsServer
from ..vfs import MountTable, ShardedMount

__all__ = [
    "PROTOCOL_REGISTRY",
    "ProtocolSpec",
    "protocol_spec",
    "drive",
    "Bed",
    "build_bed",
]


@dataclass(frozen=True)
class ProtocolSpec:
    """One remote protocol: its server and client classes.  A client
    given no config uses its class's ``default_config()``."""

    server: type
    client: type
    #: the server keeps a bounded per-file state table: sized by
    #: ``max_open_files``, and compared with the clients' view of it by
    #: the oracle's state-agreement check
    state_table: bool = False

    def make_server(self, host: Host, export, max_open_files: int):
        if self.state_table:
            return self.server(host, export, max_open_files=max_open_files)
        return self.server(host, export)


#: every remote protocol, in the order tables and sweeps list them
PROTOCOL_REGISTRY: Dict[str, ProtocolSpec] = {
    "nfs": ProtocolSpec(NfsServer, NfsClient),
    "snfs": ProtocolSpec(SnfsServer, SnfsClient, state_table=True),
    "rfs": ProtocolSpec(RfsServer, RfsClient),
    "kent": ProtocolSpec(KentServer, KentClient),
    "lease": ProtocolSpec(LeaseServer, LeaseClient),
}


def protocol_spec(protocol: str) -> ProtocolSpec:
    try:
        return PROTOCOL_REGISTRY[protocol]
    except KeyError:
        raise ValueError(
            "protocol must be one of %s, got %r"
            % (", ".join(PROTOCOL_REGISTRY), protocol)
        ) from None


def drive(sim: Simulator, coros, limit: float = 1e7):
    """Run coroutines concurrently to completion; return their values.

    Daemons reschedule themselves forever, so the simulator runs until
    the workload's own completion rather than until idle.  A coroutine
    that raises has its exception re-raised here (the others keep
    their progress); reaching ``limit`` first is a :class:`TimeoutError`.
    Traces label the processes' row ``workload``.
    """
    procs = [sim.spawn(coro, name="workload") for coro in coros]
    gate = procs[0] if len(procs) == 1 else AllOf(sim, procs)
    gate.defuse()
    sim.run_until(gate, limit=limit)
    for proc in procs:
        if proc.exception is not None:
            proc.defuse()
            raise proc.exception
    if not gate.triggered:
        raise TimeoutError("workload did not finish before %g" % limit)
    return [proc.value for proc in procs]


@dataclass
class Bed:
    """Servers and clients on one LAN, every client seeing one tree at
    ``/data``.  Lists are index-aligned: ``servers[k]`` runs on
    ``server_hosts[k]``, ``mounts[i]`` is ``client_hosts[i]``'s
    ``/data`` mount."""

    sim: Simulator
    network: Network
    protocol: str
    #: None: one server mounted directly; else the map every client's
    #: ShardedMount routes by
    shard_map: Optional[ShardMap]
    server_hosts: List[Host]
    servers: List[Any]
    client_hosts: List[Host] = field(default_factory=list)
    mounts: List[Any] = field(default_factory=list)
    oracle: Optional[ConsistencyOracle] = None
    injector: Optional[FaultInjector] = None

    @property
    def kernels(self):
        return [host.kernel for host in self.client_hosts]

    @property
    def clients(self) -> List[Host]:
        """The client hosts, under the name the fault-injection callers use."""
        return self.client_hosts

    @property
    def server_host(self) -> Host:
        """The first (in the one-server case, the only) server host."""
        return self.server_hosts[0]

    def shard_mounts(self, shard: int) -> List[Any]:
        """Every client's protocol mount for one shard."""
        if self.shard_map is None:
            return self.mounts
        return [mount.table.mounts()[shard] for mount in self.mounts]

    def run(self, coro, limit: float = 1e7):
        """Drive one coroutine to completion (daemons keep running)."""
        return drive(self.sim, [coro], limit)[0]

    def run_all(self, *coros, limit: float = 1e7):
        """Drive several coroutines concurrently to completion."""
        return drive(self.sim, coros, limit)

    # -- failover helpers ---------------------------------------------------

    def crash_shard(self, shard: int) -> None:
        """Power-fail one server; the others keep serving."""
        self.server_hosts[shard].crash()

    def reboot_shard(self, shard: int) -> None:
        self.server_hosts[shard].reboot()

    def boot_epochs(self) -> List[int]:
        """Per-server boot epochs — a healthy shard's is stable across
        another shard's crash/recovery."""
        return [host.rpc.boot_epoch for host in self.server_hosts]

    # -- measurement ---------------------------------------------------------

    def total_rpcs(self) -> int:
        """RPCs the servers served plus callbacks they issued."""
        return sum(
            host.rpc.server_stats.total() + host.rpc.client_stats.total()
            for host in self.server_hosts
        )

    def final_checks(self) -> None:
        """Flush live clients, then the oracle's end-of-run checks —
        state agreement runs per server against that server's mounts."""
        if self.oracle is None:
            return
        for host in self.client_hosts:
            if not host.crashed:
                self.run(host.kernel.sync())
        if PROTOCOL_REGISTRY[self.protocol].state_table:
            for shard, server in enumerate(self.servers):
                self.oracle.check_state_agreement(server, self.shard_mounts(shard))
        self.oracle.check_lost_acked_writes()


def build_bed(
    protocol: str,
    n_clients: int,
    shard_map: Optional[ShardMap] = None,
    *,
    seed: Optional[int] = None,
    client_config=None,
    host_config: Optional[HostConfig] = None,
    server_config: Optional[HostConfig] = None,
    network_config: Optional[NetworkConfig] = None,
    max_open_files: Optional[int] = None,
    update_daemons: bool = True,
    local_tmp: bool = False,
    with_oracle: bool = False,
    sim: Optional[Simulator] = None,
) -> Bed:
    """Build the servers and ``n_clients`` hosts that mount them at ``/data``.

    ``seed`` threads one experiment seed into the network loss RNG and
    every host's per-disk fault RNGs.  ``local_tmp`` gives each client a
    local-disk ``/tmp`` (the Andrew-shaped runs).  ``with_oracle`` wires
    a :class:`ConsistencyOracle` over every kernel and server plus a
    :class:`FaultInjector` over the network and every host and disk;
    such a bed leaves each server's update daemon to start when the
    host (re)boots.  ``sim`` is a simulator the caller has already
    instrumented (traced runs enable the tracer before any host
    exists).  ``max_open_files`` sizes a state-table server; by default
    it grows with the cluster.
    """
    spec = protocol_spec(protocol)
    if sim is None:
        sim = Simulator()
    net_cfg = network_config or NetworkConfig()
    if seed is not None:
        net_cfg = dataclasses.replace(net_cfg, seed=seed)
    network = Network(sim, net_cfg)
    if max_open_files is None:
        max_open_files = max(4000, 64 * n_clients)

    if shard_map is None:
        exports = [("server", "exportfs")]
    else:
        exports = [
            ("server%d" % k, "exportfs%d" % k) for k in range(shard_map.n_shards)
        ]
    bed = Bed(
        sim=sim,
        network=network,
        protocol=protocol,
        shard_map=shard_map,
        server_hosts=[],
        servers=[],
    )
    for name, fsid in exports:
        shost = Host(
            sim, network, name, server_config or HostConfig.titan_server(), seed=seed
        )
        export = shost.add_local_fs("/export", fsid=fsid)
        bed.servers.append(spec.make_server(shost, export, max_open_files))
        if update_daemons and not with_oracle:
            shost.update_daemon.start()
        bed.server_hosts.append(shost)

    for i in range(n_clients):
        host = Host(
            sim, network, "client%d" % i,
            host_config or HostConfig.titan_client(), seed=seed,
        )
        if local_tmp:
            host.add_local_fs("/tmp", fsid="tmpfs%d" % i, disk_name="tmpdisk")
        tag = "%s:m%d" % (protocol, i)
        parts: List[Any] = []  # one protocol mount per server, sharing a DNLC
        for k, shost in enumerate(bed.server_hosts):
            part = spec.client(
                tag if shard_map is None else "%ss%d" % (tag, k),
                host, shost.name,
                config=client_config, dnlc=parts[0].dnlc if parts else None,
            )
            bed.run(part.attach())
            parts.append(part)
        if shard_map is None:
            mount = parts[0]
        else:
            mount = ShardedMount(
                "%s:shardns%d" % (protocol, i), MountTable(shard_map, parts)
            )
        host.kernel.mount("/data", mount)
        if update_daemons:
            host.update_daemon.start()
        bed.client_hosts.append(host)
        bed.mounts.append(mount)

    if with_oracle:
        bed.oracle = ConsistencyOracle()
        for host in bed.client_hosts:
            bed.oracle.watch_kernel(host.kernel)
        for server in bed.servers:
            bed.oracle.watch_server(server)
        hosts = bed.server_hosts + bed.client_hosts
        bed.injector = FaultInjector(
            sim,
            network=network,
            disks={d.name: d for host in hosts for d in host.disks.values()},
            targets={host.name: host for host in hosts},
        )
    return bed
