"""Testbed construction: the paper's machine configurations (§5.2).

"Identical machines were used for client and server, and the RA81 and
RA82 disks used are moderately high performance drives... Both machines
had large file buffer caches (about 16M bytes on the client and 3.5M
bytes on the server)."

A :class:`Testbed` is one client + (optionally) one server, with the
benchmark's three directory roles mounted per configuration:

* ``/data``  — the benchmark tree / sort files (local | nfs | snfs | rfs)
* ``/tmp``   — compiler & sort temporaries (local disk, or a second
  export from the same server over the same protocol)
* ``/input`` — always a client-local disk (sort input staging)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..host import Host, HostConfig
from ..net import Network, NetworkConfig
from ..proto.shard import ShardMap
from ..sim import Simulator
from .bed import PROTOCOL_REGISTRY, Bed, build_bed, drive

__all__ = [
    "Testbed",
    "build_testbed",
    "PROTOCOLS",
    "CLUSTER_PROTOCOLS",
    "build_cluster",
    "build_sharded_cluster",
]

#: protocols that can serve an N-client cluster (everything remote)
CLUSTER_PROTOCOLS = tuple(PROTOCOL_REGISTRY)

PROTOCOLS = ("local",) + CLUSTER_PROTOCOLS


@dataclass
class Testbed:
    sim: Simulator
    network: Network
    client: Host
    server_host: Optional[Host]
    server: Optional[Any]  # NfsServer/SnfsServer/RfsServer
    protocol: str
    remote_tmp: bool
    mounts: Dict[str, Any] = field(default_factory=dict)

    def run(self, coro, limit: float = 1e7):
        """Drive one coroutine to completion (daemons keep running)."""
        return drive(self.sim, [coro], limit)[0]

    def run_all(self, *coros, limit: float = 1e7):
        """Drive several coroutines concurrently to completion."""
        return drive(self.sim, coros, limit)

    # -- the two host lists a Bed has, so one Window measures either ------

    @property
    def client_hosts(self) -> List[Host]:
        return [self.client]

    @property
    def server_hosts(self) -> List[Host]:
        return [] if self.server_host is None else [self.server_host]


def build_testbed(
    protocol: str = "nfs",
    remote_tmp: bool = False,
    client_config: Optional[Any] = None,
    host_config: Optional[HostConfig] = None,
    server_config: Optional[HostConfig] = None,
    network_config: Optional[NetworkConfig] = None,
    keep_call_times: bool = False,
    update_daemons: bool = True,
    max_open_files: int = 1000,
    seed: Optional[int] = None,
) -> Testbed:
    """Build one of the paper's benchmark configurations.

    ``protocol='local'`` puts /data and /tmp on the client's own disk
    (the paper's first column).  Otherwise /data is remote-mounted via
    ``protocol``; /tmp is a local disk unless ``remote_tmp``, in which
    case it is a second export from the same server ("effectively
    simulating the load of a diskless workstation").

    ``seed`` threads one experiment seed into every RNG in the testbed
    (network loss, per-disk fault injection) so fault-injected runs are
    reproducible from a single number.
    """
    if protocol not in PROTOCOLS:
        raise ValueError("unknown protocol %r" % protocol)
    spec = PROTOCOL_REGISTRY.get(protocol)  # None: the local column
    sim = Simulator()
    net_cfg = network_config or NetworkConfig()
    if seed is not None:
        net_cfg = dataclasses.replace(net_cfg, seed=seed)
    network = Network(sim, net_cfg)
    client = Host(
        sim,
        network,
        "client",
        host_config or HostConfig.titan_client(),
        keep_call_times=keep_call_times,
        seed=seed,
    )
    # /input always lives on a client-local disk
    client.add_local_fs("/input", fsid="inputfs", disk_name="inputdisk")
    testbed = Testbed(
        sim=sim,
        network=network,
        client=client,
        server_host=None,
        server=None,
        protocol=protocol,
        remote_tmp=remote_tmp and spec is not None,
    )

    if spec is None:
        testbed.mounts["/data"] = client.add_local_fs(
            "/data", fsid="datafs", disk_name="datadisk"
        )
        testbed.mounts["/tmp"] = client.add_local_fs(
            "/tmp", fsid="tmpfs", disk_name="datadisk"
        )
    else:
        server_host = testbed.server_host = Host(
            sim,
            network,
            "server",
            server_config or HostConfig.titan_server(),
            keep_call_times=keep_call_times,
            seed=seed,
        )
        # both exports live in one filesystem on the server's one disk:
        # /export/data and /export/tmp, served by a single server object
        export = server_host.add_local_fs("/export", fsid="exportfs")
        testbed.server = spec.make_server(server_host, export, max_open_files)

        def setup():
            yield from server_host.kernel.mkdir("/export/data")
            yield from server_host.kernel.mkdir("/export/tmp")

        testbed.run(setup())

        root_client = spec.client(
            "%s:root" % protocol, client, "server", config=client_config
        )
        testbed.run(root_client.attach())
        # mount subdirectories of the export at /data and /tmp
        data_root = testbed.run(
            root_client.lookup(root_client.root(), "data")
        )
        client.kernel.mount("/data", _SubtreeMount(root_client, data_root))
        testbed.mounts["/data"] = root_client
        if remote_tmp:
            tmp_root = testbed.run(root_client.lookup(root_client.root(), "tmp"))
            client.kernel.mount("/tmp", _SubtreeMount(root_client, tmp_root))
            testbed.mounts["/tmp"] = root_client
        else:
            testbed.mounts["/tmp"] = client.add_local_fs(
                "/tmp", fsid="tmpfs", disk_name="tmpdisk"
            )

    if update_daemons:
        client.update_daemon.start()
        if testbed.server_host is not None:
            testbed.server_host.update_daemon.start()
    return testbed


def build_cluster(
    protocol: str,
    n_clients: int,
    host_config: Optional[HostConfig] = None,
    server_config: Optional[HostConfig] = None,
    network_config: Optional[NetworkConfig] = None,
    max_open_files: Optional[int] = None,
    seed: Optional[int] = None,
) -> Bed:
    """An N-client single-server cluster: :func:`build_bed` with no
    shard map (the scaling experiment and the cluster benchmark sweep)."""
    return build_bed(
        protocol,
        n_clients,
        host_config=host_config,
        server_config=server_config,
        network_config=network_config,
        max_open_files=max_open_files,
        seed=seed,
    )


def build_sharded_cluster(
    protocol: str,
    n_shards: int,
    n_clients: int,
    strategy: str = "hash",
    assignments: Optional[Dict[str, int]] = None,
    client_config=None,
    host_config: Optional[HostConfig] = None,
    server_config: Optional[HostConfig] = None,
    network_config: Optional[NetworkConfig] = None,
    seed: Optional[int] = None,
    with_oracle: bool = False,
    max_open_files: Optional[int] = None,
) -> Bed:
    """``n_shards`` servers behind one tree: :func:`build_bed` with a
    :class:`ShardMap` built from ``strategy`` and ``assignments``."""
    return build_bed(
        protocol,
        n_clients,
        ShardMap(n_shards, strategy=strategy, assignments=assignments),
        client_config=client_config,
        host_config=host_config,
        server_config=server_config,
        network_config=network_config,
        seed=seed,
        with_oracle=with_oracle,
        max_open_files=max_open_files,
    )


class _SubtreeMount:
    """A view of an attached protocol client rooted at a subdirectory.

    Lets /data and /tmp be two mount points backed by one RPC client
    (one server, one export), exactly like mounting server:/export/data
    and server:/export/tmp separately.
    """

    def __init__(self, client, root_gnode):
        self._client = client
        self._root = root_gnode

    @property
    def mount_id(self):
        return self._client.mount_id

    def root(self):
        return self._root

    def __getattr__(self, name):
        return getattr(self._client, name)
