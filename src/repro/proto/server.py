"""The protocol-agnostic remote-filesystem server core.

Per §2.1 and §4.1: the baseline server keeps *no* per-client state
between RPC requests; every ``write`` reaches stable storage (the
simulated disk) before the reply goes out; reads are served through
the server host's buffer cache, so they often avoid the disk
entirely.  The service code "simply translates RPC requests into GFS
operations on the appropriate file system, normally the standard Unix
local file system".

Protocol servers (NFS, SNFS, Kent, RFS, lease) layer on this core:

* **dispatch registration** — :meth:`RemoteFsServer._register` wires
  the twelve standard procedures through the RPC endpoint's service
  table; subclasses extend it with their stateful procedures;
* **per-file serialization** — :meth:`RemoteFsServer._lock_for`
  hands out one lock per file key, the serialization the stateful
  protocols need around open/grant processing (§4.3.2's "the server
  serializes opens and closes for each file");
* **attribute versioning** — a monotone version counter
  (:meth:`RemoteFsServer.next_version`) for the protocols that stamp
  file versions (SNFS epoch-prefixed versions live in its state
  table; RFS and the lease server draw from this counter).
"""

from __future__ import annotations

import itertools
from typing import Dict, Hashable, Tuple

from ..fs import NoSuchFile, StaleHandle
from ..fs.types import FileAttr, FileHandle
from ..sim import Lock
from ..vfs import Gnode, LocalMount
from .recovery import ServerRecovering

__all__ = ["RemoteFsServer"]


class RemoteFsServer:
    """Service for one exported local filesystem on a host."""

    #: procedure-name namespace; each protocol overrides this
    PROC = None

    def __init__(self, host, export: LocalMount):
        self.host = host
        self.sim = host.sim
        self.export = export
        self.lfs = export.lfs
        #: per-file serialization for stateful subclasses
        self._file_locks: Dict[Hashable, Lock] = {}
        #: attribute-version counter for version-stamping subclasses
        self._versions = itertools.count(1)
        #: requests refused while recovering; always on (nemesis reads it)
        self.recovery_rejections = 0
        self._register()
        # crash/reboot notifications (stateful servers clear and
        # rebuild their tables; the stateless core has nothing to do)
        host.register_service(self)

    def _register(self) -> None:
        p = self.PROC
        self.host.rpc.register_service(
            self,
            {
                p.MNT: "proc_mnt",
                p.LOOKUP: "proc_lookup",
                p.GETATTR: "proc_getattr",
                p.SETATTR: "proc_setattr",
                p.READ: "proc_read",
                p.WRITE: "proc_write",
                p.CREATE: "proc_create",
                p.REMOVE: "proc_remove",
                p.RENAME: "proc_rename",
                p.LINK: "proc_link",
                p.MKDIR: "proc_mkdir",
                p.RMDIR: "proc_rmdir",
                p.READDIR: "proc_readdir",
            },
        )

    def _check_available(self, src: str) -> None:
        """Hook: reject calls while unavailable (recovering servers
        raise :meth:`_recovering` here)."""

    def _recovering(self, retry_after: float) -> ServerRecovering:
        """Count one refused request; returns the rejection to raise."""
        self.recovery_rejections += 1
        if self.sim.probe is not None:
            proto = self.PROC.PREFIX.rstrip(".")
            self.sim.probe.count("recovery.rejections", server=self.host.name, proto=proto)
        return ServerRecovering(self.boot_epoch, retry_after=retry_after)

    # -- host lifecycle: server-crash semantics ----------------------------

    def on_host_crash(self) -> None:
        """Power failure: everything volatile is gone.  The core loses
        its per-file locks (any in-flight open dies with its RPC); the
        protocol's :meth:`on_server_crash` drops its tables."""
        self._file_locks.clear()
        self.on_server_crash()

    def on_host_reboot(self) -> None:
        self.on_server_reboot()

    def on_server_crash(self) -> None:
        """Hook: drop volatile protocol state.  What each protocol
        keeps here *is* its crash semantics — SNFS loses the state
        table (and recovers it from client reopens), the lease server
        loses its lease table (and recovers by expiry), RFS and Kent
        lose their open/token tables *with no recovery protocol*, and
        the stateless NFS server has nothing to lose.  See
        docs/PROTOCOLS.md's crash-semantics table."""

    def on_server_reboot(self) -> None:
        """Hook: start recovery.  Stateful protocols bump their boot
        epoch and open a window in which :meth:`_check_available`
        rejects normal traffic with ``ServerRecovering``."""

    # -- per-file serialization --------------------------------------------

    def _lock_for(self, key: Hashable) -> Lock:
        lock = self._file_locks.get(key)
        if lock is None:
            lock = Lock(self.sim, name="file:%r" % (key,))
            self._file_locks[key] = lock
        return lock

    # -- attribute versioning ----------------------------------------------

    def next_version(self) -> int:
        return next(self._versions)

    # -- handle helpers ----------------------------------------------------

    def _gnode(self, fh: FileHandle) -> Gnode:
        inum = self.lfs.resolve(fh)
        inode = self.lfs._inode(inum)
        return self.export.gnode_for(inum, inode.ftype)

    def _handle_and_attr(self, inum: int) -> Tuple[FileHandle, FileAttr]:
        return self.lfs.handle(inum), self.lfs._attr(inum)

    def _hot_key(self, fh: FileHandle) -> str:
        """Hot-file key labelled with the serving server so sharded
        runs attribute traffic to the right machine."""
        return "%s:%s:%d" % (self.host.name, fh.fsid, fh.inum)

    # -- procedures (all coroutines taking the caller's address first) ----

    def proc_mnt(self, src):
        """Export the root: returns (root handle, attributes)."""
        return self._handle_and_attr(self.lfs.root_inum)
        yield  # pragma: no cover

    def proc_lookup(self, src, dirfh: FileHandle, name: str):
        self._check_available(src)
        dirg = self._gnode(dirfh)
        inum = yield from self.lfs.lookup(dirg.fid, name)
        return self._handle_and_attr(inum)

    def proc_getattr(self, src, fh: FileHandle):
        self._check_available(src)
        g = self._gnode(fh)
        attr = yield from self.export.getattr(g)
        return attr

    def proc_setattr(self, src, fh: FileHandle, size=None, mode=None):
        self._check_available(src)
        g = self._gnode(fh)
        attr = yield from self.export.setattr(g, size=size, mode=mode)
        return attr

    def proc_read(self, src, fh: FileHandle, offset: int, count: int):
        """Read through the server cache; returns (data, attrs)."""
        self._check_available(src)
        g = self._gnode(fh)
        data = yield from self.export.read(g, offset, count)
        if self.sim.probe is not None:
            # hot-file accounting (Fletch's traffic-skew lens): which
            # files carry the read/write byte volume
            self.sim.probe.tag_file(self._hot_key(fh), read_bytes=len(data))
        return data, self.lfs._attr(g.fid)

    def proc_write(self, src, fh: FileHandle, offset: int, data: bytes):
        """Write to stable storage before replying (the NFS rule)."""
        self._check_available(src)
        g = self._gnode(fh)
        try:
            yield from self.export.write(g, offset, data)
            yield from self.export.fsync(g)  # stable storage, synchronously
            if self.sim.probe is not None:
                self.sim.probe.tag_file(self._hot_key(fh), write_bytes=len(data))
            return self.lfs._attr(g.fid)
        except NoSuchFile:
            # the file was removed while this write was in flight
            raise StaleHandle("file deleted during write")

    def proc_create(self, src, dirfh: FileHandle, name: str, mode: int = 0o644):
        self._check_available(src)
        dirg = self._gnode(dirfh)
        try:
            inum = yield from self.lfs.lookup(dirg.fid, name)
        except NoSuchFile:
            g = yield from self.export.create(dirg, name, mode)
            inum = g.fid
        return self._handle_and_attr(inum)

    def proc_remove(self, src, dirfh: FileHandle, name: str):
        self._check_available(src)
        dirg = self._gnode(dirfh)
        yield from self.export.remove(dirg, name)
        return None

    def proc_rename(self, src, sdirfh: FileHandle, sname: str, ddirfh: FileHandle, dname: str):
        self._check_available(src)
        sdirg = self._gnode(sdirfh)
        ddirg = self._gnode(ddirfh)
        yield from self.export.rename(sdirg, sname, ddirg, dname)
        return None

    def proc_link(self, src, fh: FileHandle, dirfh: FileHandle, name: str):
        self._check_available(src)
        g = self._gnode(fh)
        dirg = self._gnode(dirfh)
        yield from self.export.link(g, dirg, name)
        return self.lfs._attr(g.fid)

    def proc_mkdir(self, src, dirfh: FileHandle, name: str, mode: int = 0o755):
        self._check_available(src)
        dirg = self._gnode(dirfh)
        g = yield from self.export.mkdir(dirg, name, mode)
        return self._handle_and_attr(g.fid)

    def proc_rmdir(self, src, dirfh: FileHandle, name: str):
        self._check_available(src)
        dirg = self._gnode(dirfh)
        yield from self.export.rmdir(dirg, name)
        return None

    def proc_readdir(self, src, dirfh: FileHandle):
        self._check_available(src)
        dirg = self._gnode(dirfh)
        names = yield from self.export.readdir(dirg)
        return names
