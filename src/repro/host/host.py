"""A simulated machine: CPU + NIC + buffer cache + kernel + daemons.

A :class:`Host` bundles the per-machine substrate; protocol modules
attach servers and mounts to it.  Hosts can crash (losing all volatile
state: caches, fd tables, RPC state, server state tables) and reboot,
which the SNFS crash-recovery machinery builds on.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional

from ..fs import LocalFileSystem
from ..net import Network, RpcEndpoint
from ..sim import Simulator
from ..storage import BufferCache, Disk
from ..vfs import LocalMount
from .config import HostConfig
from .cpu import Cpu
from .daemons import AsyncPool, UpdateDaemon
from .kernel import Kernel

__all__ = ["Host"]


class Host:
    """One machine on the simulated LAN."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        config: Optional[HostConfig] = None,
        keep_call_times: bool = False,
        seed: Optional[int] = None,
    ):
        self.sim = sim
        self.network = network
        self.name = name
        self.config = config or HostConfig()
        #: base seed for per-disk fault RNGs (None -> unseeded/zero)
        self.seed = seed
        self.cpu = Cpu(sim, speed=self.config.cpu_speed, name="cpu:%s" % name)
        self.rpc = RpcEndpoint(
            sim,
            network,
            name,
            config=self.config.rpc_config(),
            cpu=self.cpu,
            keep_call_times=keep_call_times,
        )
        self.cache = BufferCache(
            sim,
            capacity_blocks=self.config.cache_blocks,
            flush_fn=self._flush_block,
            name="cache:%s" % name,
        )
        self.kernel = Kernel(self)
        self.update_daemon = UpdateDaemon(
            sim,
            self.kernel,
            interval=self.config.update_interval,
            policy=self.config.update_policy,
        )
        self.async_writers = AsyncPool(
            sim, n_workers=self.config.n_async_writers, name="biod:%s" % name
        )
        self.disks: Dict[str, Disk] = {}
        #: objects (e.g. protocol servers) notified on crash/reboot via
        #: their on_host_crash()/on_host_reboot() methods
        self.services: List[object] = []
        self.crashed = False

    def register_service(self, service: object) -> None:
        if service not in self.services:
            self.services.append(service)

    # -- local storage ------------------------------------------------------

    def add_disk(self, name: str = "disk0") -> Disk:
        if name in self.disks:
            raise ValueError("disk %r already exists on %s" % (name, self.name))
        full_name = "%s:%s" % (self.name, name)
        # derive a stable per-disk fault seed (crc32, not hash(): the
        # latter is salted per process and would break reproducibility)
        disk_seed = 0 if self.seed is None else zlib.crc32(full_name.encode()) ^ self.seed
        disk = Disk(self.sim, self.config.disk, name=full_name, seed=disk_seed)
        self.disks[name] = disk
        return disk

    def add_local_fs(
        self, mount_point: str, fsid: Optional[str] = None, disk_name: str = "disk0"
    ) -> LocalMount:
        """Create a disk + local filesystem and mount it."""
        disk = self.disks.get(disk_name) or self.add_disk(disk_name)
        fsid = fsid or "%s:%s" % (self.name, mount_point)
        lfs = LocalFileSystem(
            self.sim, disk, fsid=fsid, block_size=self.config.block_size
        )
        mount = LocalMount(
            mount_id=fsid,
            sim=self.sim,
            cache=self.cache,
            localfs=lfs,
            readahead=self.config.readahead,
        )
        self.kernel.mount(mount_point, mount)
        return mount

    def _flush_block(self, buf):
        mount = self.kernel.mount_by_id(buf.file_key[0])
        yield from mount.flush_block(buf)

    # -- processes ------------------------------------------------------------

    def spawn(self, generator, name: str = ""):
        """Run an application process on this host."""
        return self.sim.spawn(generator, name="%s:%s" % (self.name, name or "proc"))

    # -- crash / reboot -----------------------------------------------------

    def crash(self) -> None:
        """Power-fail: lose caches, fd table, and RPC state."""
        self.crashed = True
        self.update_daemon.stop()
        self.rpc.crash()
        # volatile memory gone:
        self.cache.clear()
        self.kernel.clear_volatile_state()
        for _prefix, fs in self.kernel.mounts():
            on_crash = getattr(fs, "on_host_crash", None)
            if on_crash is not None:
                on_crash()
        for svc in self.services:
            on_crash = getattr(svc, "on_host_crash", None)
            if on_crash is not None:
                on_crash()

    def reboot(self, restart_update: bool = True) -> None:
        self.crashed = False
        self.rpc.reboot()
        if restart_update:
            self.update_daemon.start()
        for _prefix, fs in self.kernel.mounts():
            on_reboot = getattr(fs, "on_host_reboot", None)
            if on_reboot is not None:
                on_reboot()
        for svc in self.services:
            on_reboot = getattr(svc, "on_host_reboot", None)
            if on_reboot is not None:
                on_reboot()
