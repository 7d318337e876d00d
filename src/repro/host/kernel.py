"""The syscall layer: mounts, path resolution, file descriptors.

This is the filesystem-independent half of the kernel.  Applications
(workload processes) call these methods; everything below the mount
table goes through the :class:`~repro.vfs.FileSystemType` switch, so an
application cannot tell whether a path is local, NFS, or SNFS — exactly
the transparency both protocols aim for.

Path resolution is deliberately component-at-a-time (``namei``):
NFS/SNFS translate pathnames one component per ``lookup`` RPC, which is
why roughly half of all RPC calls in Table 5-2 are lookups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..fs import (
    CrossShardError,
    InvalidArgument,
    NoSuchFile,
    NotADirectory,
    NotOpen,
    ReadOnly,
)
from ..fs.types import FileAttr, OpenMode
from ..vfs import FileSystemType, Gnode

__all__ = ["Kernel", "FileDescriptor"]


@dataclass
class FileDescriptor:
    fd: int
    gnode: Gnode
    mode: OpenMode
    offset: int = 0


class Kernel:
    """Mount table + fd table + syscalls for one host."""

    def __init__(self, host):
        self.host = host
        self.sim = host.sim
        self._mounts: List[Tuple[str, FileSystemType]] = []
        self._mounts_by_id: Dict[str, FileSystemType] = {}
        self._fds: Dict[int, FileDescriptor] = {}
        self._next_fd = itertools.count(3)
        #: syscall observer (e.g. the repro.faults consistency oracle):
        #: an object with on_open/on_read/on_write/on_close/on_unlink/
        #: on_truncate/on_rename/on_host_crash methods; None disables
        self.tracer = None

    @staticmethod
    def _norm(path: str) -> str:
        return "/" + "/".join(c for c in path.split("/") if c)

    # -- mounts -----------------------------------------------------------

    def mount(self, prefix: str, fs: FileSystemType) -> None:
        if not prefix.startswith("/"):
            raise InvalidArgument("mount prefix must be absolute: %r" % prefix)
        prefix = prefix.rstrip("/") or "/"
        if any(p == prefix for p, _ in self._mounts):
            raise InvalidArgument("mount point %r already in use" % prefix)
        self._mounts.append((prefix, fs))
        self._mounts.sort(key=lambda pair: -len(pair[0]))
        self._mounts_by_id[fs.mount_id] = fs
        # compound mounts (referral facades) bring member filesystems
        # that own buffers under their own mount ids; register them so
        # cache write-back can resolve those ids without a path mount
        for sub in fs.submounts():
            self._mounts_by_id[sub.mount_id] = sub

    def unmount_all(self):
        """Coroutine: flush and detach every mount."""
        for _prefix, fs in self._mounts:
            yield from fs.unmount()
        self._mounts.clear()
        self._mounts_by_id.clear()

    def mount_by_id(self, mount_id: str) -> FileSystemType:
        return self._mounts_by_id[mount_id]

    def mounts(self) -> List[Tuple[str, FileSystemType]]:
        return list(self._mounts)

    def resolve_mount(self, path: str) -> Tuple[FileSystemType, List[str]]:
        """Longest-prefix mount match; returns (fs, remaining components)."""
        if not path.startswith("/"):
            raise InvalidArgument("path must be absolute: %r" % path)
        norm = "/" + "/".join(c for c in path.split("/") if c)
        for prefix, fs in self._mounts:
            if norm == prefix or norm.startswith(prefix + "/") or prefix == "/":
                rest = norm[len(prefix):] if prefix != "/" else norm
                components = [c for c in rest.split("/") if c]
                return fs, components
        raise NoSuchFile("no filesystem mounted for %r" % path)

    # -- path walking ------------------------------------------------------

    def namei(self, path: str):
        """Coroutine: full path -> Gnode (component-at-a-time walk)."""
        fs, components = self.resolve_mount(path)
        g = fs.root()
        for name in components:
            if not g.is_dir:
                raise NotADirectory(path)
            g = yield from fs.lookup(g, name)
        return g

    def namei_parent(self, path: str):
        """Coroutine: path -> (parent dir Gnode, final component name)."""
        fs, components = self.resolve_mount(path)
        if not components:
            raise InvalidArgument("path %r has no final component" % path)
        g = fs.root()
        for name in components[:-1]:
            if not g.is_dir:
                raise NotADirectory(path)
            g = yield from fs.lookup(g, name)
        if not g.is_dir:
            raise NotADirectory(path)
        return g, components[-1]

    # -- syscalls (all coroutines) ---------------------------------------

    def _charge(self):
        yield from self.host.cpu.consume(self.host.config.syscall_cpu)

    def open(
        self,
        path: str,
        mode: OpenMode = OpenMode.READ,
        create: bool = False,
        truncate: bool = False,
    ):
        """Coroutine: open a file; returns an fd number.

        ``create`` gives O_CREAT semantics; ``truncate`` gives O_TRUNC
        (requires a write open).
        """
        yield from self._charge()
        dirg, name = yield from self.namei_parent(path)
        fs = dirg.fs
        try:
            g = yield from fs.lookup(dirg, name)
            created = False
        except NoSuchFile:
            if not create:
                raise
            g = yield from fs.create(dirg, name)
            created = True
        if truncate and not mode.is_write:
            raise InvalidArgument("O_TRUNC requires a write open")
        if truncate and not created:
            yield from fs.setattr(g, size=0)
        yield from fs.open(g, mode)
        fd = next(self._next_fd)
        self._fds[fd] = FileDescriptor(fd=fd, gnode=g, mode=mode)
        if self.tracer is not None:
            self.tracer.on_open(
                self.host.name, fd, self._norm(path), mode.is_write,
                truncate or created, self.sim.now,
            )
        return fd

    def _fd_region(self, fd: int, label: str):
        """Each read/write/close is a multi-interval read-modify-write of
        the descriptor (offset, fd table); two processes driving one fd
        with no lock between them interleave those updates, which the
        sanitizer reports as a write/write race.
        """
        if self.sim.probe is None:
            return None
        return self.sim.probe.region_begin("fd", (self.host.name, fd), label, wrote=True)

    def close(self, fd: int):
        """Coroutine: close a descriptor (protocol close actions run here)."""
        yield from self._charge()
        desc = self._fd(fd)
        region = self._fd_region(fd, "close")
        try:
            del self._fds[fd]
            yield from desc.gnode.fs.close(desc.gnode, desc.mode)
        finally:
            if region is not None:
                self.sim.probe.region_end(region)
        if self.tracer is not None:
            self.tracer.on_close(self.host.name, fd, self.sim.now)

    def read(self, fd: int, count: int):
        """Coroutine: read up to count bytes at the fd offset."""
        yield from self._charge()
        desc = self._fd(fd)
        region = self._fd_region(fd, "read")
        try:
            offset = desc.offset
            data = yield from desc.gnode.fs.read(desc.gnode, offset, count)
            desc.offset += len(data)
        finally:
            if region is not None:
                self.sim.probe.region_end(region)
        if self.tracer is not None:
            self.tracer.on_read(
                self.host.name, fd, offset, count, bytes(data), self.sim.now
            )
        return data

    def write(self, fd: int, data: bytes):
        """Coroutine: write bytes at the fd offset."""
        yield from self._charge()
        desc = self._fd(fd)
        if not desc.mode.is_write:
            raise ReadOnly("fd %d is read-only" % fd)
        region = self._fd_region(fd, "write")
        try:
            offset = desc.offset
            yield from desc.gnode.fs.write(desc.gnode, offset, data)
            desc.offset += len(data)
        finally:
            if region is not None:
                self.sim.probe.region_end(region)
        if self.tracer is not None:
            self.tracer.on_write(
                self.host.name, fd, offset, bytes(data), self.sim.now
            )
        return len(data)

    def lseek(self, fd: int, offset: int) -> int:
        desc = self._fd(fd)
        if offset < 0:
            raise InvalidArgument("negative seek offset")
        desc.offset = offset
        return offset

    def stat(self, path: str):
        """Coroutine: path -> FileAttr."""
        yield from self._charge()
        g = yield from self.namei(path)
        attr = yield from g.fs.getattr(g)
        return attr

    def fstat(self, fd: int):
        yield from self._charge()
        desc = self._fd(fd)
        attr = yield from desc.gnode.fs.getattr(desc.gnode)
        return attr

    def unlink(self, path: str):
        yield from self._charge()
        dirg, name = yield from self.namei_parent(path)
        yield from dirg.fs.remove(dirg, name)
        if self.tracer is not None:
            self.tracer.on_unlink(self.host.name, self._norm(path), self.sim.now)

    def mkdir(self, path: str):
        yield from self._charge()
        dirg, name = yield from self.namei_parent(path)
        g = yield from dirg.fs.mkdir(dirg, name)
        return g

    def rmdir(self, path: str):
        yield from self._charge()
        dirg, name = yield from self.namei_parent(path)
        yield from dirg.fs.rmdir(dirg, name)

    def readdir(self, path: str):
        yield from self._charge()
        g = yield from self.namei(path)
        names = yield from g.fs.readdir(g)
        return names

    def rename(self, src: str, dst: str):
        yield from self._charge()
        src_dirg, src_name = yield from self.namei_parent(src)
        dst_dirg, dst_name = yield from self.namei_parent(dst)
        if src_dirg.fs is not dst_dirg.fs:
            ns = getattr(src_dirg.fs, "shard_ns", None)
            if ns is not None and ns is getattr(dst_dirg.fs, "shard_ns", None):
                # two shards of one sharded namespace: a typed EXDEV,
                # since no distributed transaction moves the name
                raise CrossShardError(
                    "rename %r -> %r spans shards" % (src, dst)
                )
            raise InvalidArgument("cross-filesystem rename")
        yield from src_dirg.fs.rename(src_dirg, src_name, dst_dirg, dst_name)
        if self.tracer is not None:
            self.tracer.on_rename(
                self.host.name, self._norm(src), self._norm(dst), self.sim.now
            )

    def link(self, src: str, dst: str):
        """Coroutine: hard-link ``src`` as ``dst`` (same filesystem)."""
        yield from self._charge()
        g = yield from self.namei(src)
        dirg, name = yield from self.namei_parent(dst)
        fs = dirg.fs
        if g.fs is not fs:
            ns = getattr(fs, "shard_ns", None)
            if ns is None or ns is not getattr(g.fs, "shard_ns", None):
                raise InvalidArgument("cross-filesystem link")
            if fs is not ns:
                # destination parent sits inside a shard that does not
                # own the source file: its server cannot resolve a
                # foreign handle, so the boundary is EXDEV
                raise CrossShardError("link %r -> %r spans shards" % (src, dst))
            # destination parent is the referral root itself: the
            # facade routes the name and enforces shard ownership
        linked = yield from fs.link(g, dirg, name)
        return linked

    def truncate(self, path: str, size: int):
        yield from self._charge()
        g = yield from self.namei(path)
        attr = yield from g.fs.setattr(g, size=size)
        if self.tracer is not None:
            self.tracer.on_truncate(self.host.name, self._norm(path), size, self.sim.now)
        return attr

    def fsync(self, fd: int):
        yield from self._charge()
        desc = self._fd(fd)
        yield from desc.gnode.fs.fsync(desc.gnode)

    def sync(self, min_age=None):
        """Coroutine: flush delayed writes on every mount (/etc/update).

        ``min_age`` selects the Sprite-style policy: only blocks dirty
        for at least that many seconds are written back.
        """
        for _prefix, fs in list(self._mounts):
            yield from fs.sync(min_age=min_age)

    # -- helpers ------------------------------------------------------------

    def _fd(self, fd: int) -> FileDescriptor:
        desc = self._fds.get(fd)
        if desc is None:
            raise NotOpen("fd %d" % fd)
        return desc

    def open_fd_count(self) -> int:
        return len(self._fds)

    def clear_volatile_state(self) -> None:
        """Crash support: lose fd table (gnode tables live in mounts)."""
        self._fds.clear()
        if self.tracer is not None:
            self.tracer.on_host_crash(self.host.name, self.sim.now)
