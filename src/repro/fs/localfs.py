"""A Unix-like local filesystem over the simulated disk.

This plays the role Ultrix's local filesystem plays under the NFS/SNFS
server (§4.1: "the NFS service code simply translates RPC requests into
GFS operations on the appropriate file system, normally the standard
Unix local file system"), and also backs local-disk benchmark runs.

Fidelity points that matter to the paper's measurements:

* **Synchronous metadata writes** — namespace operations (create,
  remove, mkdir, rename, ...) write the affected inode and directory
  synchronously, UFS-style.  This is why, in Table 5-5, the local-disk
  sort still pays disk writes even when all data writes are avoided:
  "the local-disk file system still writes out structural information".
* **Block-level data path** — data is read and written one block at a
  time through ``read_block``/``write_block``; the *caller* (the GFS
  buffer cache) decides when writes reach the disk, so delayed-write
  data that is never flushed genuinely never costs disk time.
* **Generation numbers** — file handles embed an inode generation;
  handles that outlive a delete-and-reuse raise ``StaleHandle``,
  matching NFS ESTALE semantics.

Layout model: inode/directory metadata lives at low block addresses
(the inode's own number), data blocks are allocated from a high region,
so metadata and data I/O get distinct seek behaviour.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from ..sim import Simulator
from ..storage import Disk
from .errors import (
    DirectoryNotEmpty,
    FileExists,
    FsError,
    InvalidArgument,
    IsADirectory,
    NoSpace,
    NoSuchFile,
    NotADirectory,
    StaleHandle,
)
from .types import FileAttr, FileHandle, FileType

__all__ = ["LocalFileSystem", "Inode"]

_DATA_REGION_BASE = 1 << 20  # data block addresses start here

ROOT_INUM = 2  # by Unix convention


@dataclass
class Inode:
    inum: int
    ftype: FileType
    generation: int
    size: int = 0
    nlink: int = 1
    mtime: float = 0.0
    ctime: float = 0.0
    atime: float = 0.0
    mode: int = 0o644
    # size as recorded on stable storage (survives a crash); ``size``
    # above is the in-core value updated at logical write time
    disk_size: int = 0
    # regular files: logical block number -> disk address
    blocks: Dict[int, int] = field(default_factory=dict)
    # directories: name -> inum
    entries: Dict[str, int] = field(default_factory=dict)

    @property
    def is_dir(self) -> bool:
        return self.ftype is FileType.DIRECTORY


class LocalFileSystem:
    """An in-simulation UFS-like filesystem on one disk."""

    def __init__(
        self,
        sim: Simulator,
        disk: Disk,
        fsid: str = "local0",
        capacity_blocks: int = 1 << 20,
        block_size: Optional[int] = None,
    ):
        self.sim = sim
        self.disk = disk
        self.fsid = fsid
        self.block_size = block_size or disk.config.block_size
        self.capacity_blocks = capacity_blocks
        self._inodes: Dict[int, Inode] = {}
        self._data: Dict[int, bytes] = {}  # disk address -> block contents
        self._free_addrs: List[int] = []
        self._next_addr = itertools.count(_DATA_REGION_BASE)
        self._next_inum = itertools.count(ROOT_INUM + 1)
        self._next_generation = itertools.count(1)
        # which inodes have been read from disk this incarnation (in-core
        # inode/directory cache: first access costs a disk read)
        self._in_core: set = set()
        root = Inode(
            inum=ROOT_INUM,
            ftype=FileType.DIRECTORY,
            generation=next(self._next_generation),
            nlink=2,
            mode=0o755,
        )
        self._inodes[ROOT_INUM] = root
        self._in_core.add(ROOT_INUM)

    # -- handles ----------------------------------------------------------

    @property
    def root_inum(self) -> int:
        return ROOT_INUM

    def handle(self, inum: int) -> FileHandle:
        inode = self._inodes.get(inum)
        if inode is None:
            raise StaleHandle("inum %d is not allocated" % inum)
        return FileHandle(self.fsid, inum, inode.generation)

    def resolve(self, fh: FileHandle) -> int:
        """Validate a handle, returning the inum or raising StaleHandle."""
        if fh.fsid != self.fsid:
            raise StaleHandle("handle for foreign fs %r" % fh.fsid)
        inode = self._inodes.get(fh.inum)
        if inode is None or inode.generation != fh.generation:
            raise StaleHandle("stale handle for inum %d" % fh.inum)
        return fh.inum

    # -- internal helpers ----------------------------------------------------

    def _inode(self, inum: int) -> Inode:
        inode = self._inodes.get(inum)
        if inode is None:
            raise NoSuchFile("inum %d" % inum)
        return inode

    def _dir(self, inum: int) -> Inode:
        inode = self._inode(inum)
        if not inode.is_dir:
            raise NotADirectory("inum %d" % inum)
        return inode

    def _load(self, inum: int):
        """Coroutine: charge the one-time disk read of cold metadata."""
        if inum not in self._in_core:
            yield from self.disk.read(addr=inum, n_blocks=1)
            self._in_core.add(inum)  # lint: ok=ATOM001 — idempotent cold-load: a racing load double-charges the read but the add is a no-op

    def _write_meta(self, inum: int):
        """Coroutine: synchronous metadata write (inode + directory data
        share the inode's address in this model)."""
        yield from self.disk.write(addr=inum, n_blocks=1)
        self._in_core.add(inum)

    def _alloc_inum(self, ftype: FileType, now: float, mode: int) -> Inode:
        inum = next(self._next_inum)
        inode = Inode(
            inum=inum,
            ftype=ftype,
            generation=next(self._next_generation),
            nlink=2 if ftype is FileType.DIRECTORY else 1,
            mtime=now,
            ctime=now,
            atime=now,
            mode=mode,
        )
        self._inodes[inum] = inode
        self._in_core.add(inum)
        return inode

    def _alloc_addr(self) -> int:
        if self.blocks_in_use() >= self.capacity_blocks:
            raise NoSpace("filesystem %s is full" % self.fsid)
        if self._free_addrs:
            return self._free_addrs.pop()
        return next(self._next_addr)

    def blocks_in_use(self) -> int:
        return len(self._data)

    # -- namespace operations (synchronous metadata writes) -----------------

    def lookup(self, dir_inum: int, name: str):
        """Coroutine: name -> inum within a directory."""
        yield from self._load(dir_inum)
        directory = self._dir(dir_inum)
        inum = directory.entries.get(name)
        if inum is None:
            raise NoSuchFile("%s in dir %d" % (name, dir_inum))
        return inum

    def create(self, dir_inum: int, name: str, mode: int = 0o644):
        """Coroutine: create a regular file; returns its inum."""
        yield from self._load(dir_inum)
        directory = self._dir(dir_inum)
        if name in directory.entries:
            raise FileExists(name)
        self._check_name(name)
        now = self.sim.now
        inode = self._alloc_inum(FileType.REGULAR, now, mode)
        directory.entries[name] = inode.inum
        directory.mtime = now
        yield from self._write_meta(inode.inum)
        yield from self._write_meta(dir_inum)
        return inode.inum

    def mkdir(self, dir_inum: int, name: str, mode: int = 0o755):
        """Coroutine: create a directory; returns its inum."""
        yield from self._load(dir_inum)
        directory = self._dir(dir_inum)
        if name in directory.entries:
            raise FileExists(name)
        self._check_name(name)
        now = self.sim.now
        inode = self._alloc_inum(FileType.DIRECTORY, now, mode)
        directory.entries[name] = inode.inum
        directory.nlink += 1
        directory.mtime = now
        yield from self._write_meta(inode.inum)
        yield from self._write_meta(dir_inum)
        return inode.inum

    def remove(self, dir_inum: int, name: str):
        """Coroutine: unlink a regular file."""
        yield from self._load(dir_inum)
        directory = self._dir(dir_inum)
        inum = directory.entries.get(name)
        if inum is None:
            raise NoSuchFile(name)
        inode = self._inode(inum)
        if inode.is_dir:
            raise IsADirectory(name)
        del directory.entries[name]
        directory.mtime = self.sim.now
        inode.nlink -= 1
        if inode.nlink <= 0:
            self._free_inode(inode)
        yield from self._write_meta(dir_inum)

    def rmdir(self, dir_inum: int, name: str):
        """Coroutine: remove an empty directory."""
        yield from self._load(dir_inum)
        directory = self._dir(dir_inum)
        inum = directory.entries.get(name)
        if inum is None:
            raise NoSuchFile(name)
        victim = self._inode(inum)
        if not victim.is_dir:
            raise NotADirectory(name)
        if victim.entries:
            raise DirectoryNotEmpty(name)
        del directory.entries[name]
        directory.nlink -= 1
        directory.mtime = self.sim.now
        self._free_inode(victim)
        yield from self._write_meta(dir_inum)

    def rename(self, src_dir: int, src_name: str, dst_dir: int, dst_name: str):
        """Coroutine: atomically move a name, replacing any target file."""
        yield from self._load(src_dir)
        yield from self._load(dst_dir)
        source = self._dir(src_dir)
        target = self._dir(dst_dir)
        inum = source.entries.get(src_name)
        if inum is None:
            raise NoSuchFile(src_name)
        self._check_name(dst_name)
        existing = target.entries.get(dst_name)
        if existing is not None and existing != inum:
            old = self._inode(existing)
            if old.is_dir:
                if old.entries:
                    raise DirectoryNotEmpty(dst_name)
                target.nlink -= 1
            old.nlink -= 1 if not old.is_dir else 2
            if old.nlink <= 0:
                self._free_inode(old)
        moved = self._inode(inum)
        del source.entries[src_name]
        target.entries[dst_name] = inum
        if moved.is_dir and src_dir != dst_dir:
            source.nlink -= 1
            target.nlink += 1
        now = self.sim.now
        source.mtime = now
        target.mtime = now
        yield from self._write_meta(src_dir)
        if dst_dir != src_dir:
            yield from self._write_meta(dst_dir)

    def link(self, inum: int, dir_inum: int, name: str):
        """Coroutine: create a hard link to a regular file."""
        yield from self._load(dir_inum)
        directory = self._dir(dir_inum)
        inode = self._inode(inum)
        if inode.is_dir:
            raise IsADirectory("cannot hard-link directories")
        if name in directory.entries:
            raise FileExists(name)
        self._check_name(name)
        directory.entries[name] = inum
        inode.nlink += 1
        directory.mtime = self.sim.now
        yield from self._write_meta(dir_inum)
        yield from self._write_meta(inum)

    def readdir(self, dir_inum: int):
        """Coroutine: list names in a directory."""
        yield from self._load(dir_inum)
        directory = self._dir(dir_inum)
        directory.atime = self.sim.now
        return sorted(directory.entries)

    def _free_inode(self, inode: Inode) -> None:
        for addr in inode.blocks.values():
            self._data.pop(addr, None)
            self._free_addrs.append(addr)
        inode.blocks.clear()
        inode.entries.clear()
        self._inodes.pop(inode.inum, None)
        self._in_core.discard(inode.inum)

    @staticmethod
    def _check_name(name: str) -> None:
        if not name or "/" in name or name in (".", ".."):
            raise InvalidArgument("bad file name %r" % name)

    # -- attributes ----------------------------------------------------------

    def getattr(self, inum: int):
        """Coroutine: fetch attributes (may cost a cold-metadata read)."""
        yield from self._load(inum)
        return self._attr(inum)

    def inode(self, inum: int):
        """Coroutine: the live in-core inode, at the cost of ``getattr``
        but without copying it into a ``FileAttr``; read its fields at
        once, as they change across later yields."""
        yield from self._load(inum)
        return self._inode(inum)

    def _attr(self, inum: int) -> FileAttr:
        inode = self._inode(inum)
        return FileAttr(
            file_id=inum,
            ftype=inode.ftype,
            size=inode.size,
            nlink=inode.nlink,
            mtime=inode.mtime,
            ctime=inode.ctime,
            atime=inode.atime,
            mode=inode.mode,
        )

    def setattr(self, inum: int, size: Optional[int] = None, mode: Optional[int] = None):
        """Coroutine: change attributes; ``size`` truncates/extends."""
        yield from self._load(inum)
        inode = self._inode(inum)
        if inode.is_dir and size is not None:
            raise IsADirectory("cannot truncate a directory")
        if size is not None:
            if size < 0:
                raise InvalidArgument("negative size")
            self._truncate(inode, size)
            inode.disk_size = size  # the setattr metadata write is synchronous
        if mode is not None:
            inode.mode = mode
        inode.ctime = self.sim.now
        yield from self._write_meta(inum)
        return self._attr(inum)

    def _truncate(self, inode: Inode, size: int) -> None:
        last_block = (size + self.block_size - 1) // self.block_size
        for bno in [b for b in inode.blocks if b >= last_block]:
            addr = inode.blocks.pop(bno)
            self._data.pop(addr, None)
            self._free_addrs.append(addr)
        if size < inode.size:
            # zero the tail of the (possibly partial) last block
            bno = last_block - 1
            if bno >= 0 and bno in inode.blocks:
                keep = size - bno * self.block_size
                addr = inode.blocks[bno]
                self._data[addr] = self._data.get(addr, b"")[:keep]
        inode.size = size
        inode.disk_size = min(inode.disk_size, size)
        inode.mtime = self.sim.now

    def crash_volatile(self) -> None:
        """Simulate power loss: in-core inode state reverts to what is
        on stable storage (sizes noted at logical-write time are lost;
        block contents in ``_data`` were only ever updated at flush
        time, so they already are the on-disk truth)."""
        self._in_core.clear()
        self._in_core.add(ROOT_INUM)
        for inode in self._inodes.values():
            inode.size = inode.disk_size

    def note_logical_write(self, inum: int, end_offset: int) -> None:
        """Update size/mtime at *logical* write time (in-core inode).

        The data itself reaches the disk later, when the buffer cache
        flushes — or never, if the file is deleted first.
        """
        inode = self._inode(inum)
        inode.size = max(inode.size, end_offset)
        inode.mtime = self.sim.now

    # -- data path --------------------------------------------------------

    def read_block(self, inum: int, bno: int):
        """Coroutine: read one block (holes read as empty bytes)."""
        inode = self._inode(inum)
        if inode.is_dir:
            raise IsADirectory("read on directory inum %d" % inum)
        addr = inode.blocks.get(bno)
        if addr is None:
            return b""  # hole: no disk I/O needed
        yield from self.disk.read(addr=addr, n_blocks=1)
        return self._data.get(addr, b"")

    def write_block(self, inum: int, bno: int, data: bytes):
        """Coroutine: write one block to disk (synchronous)."""
        if len(data) > self.block_size:
            raise InvalidArgument(
                "block write of %d bytes > block size %d" % (len(data), self.block_size)
            )
        inode = self._inode(inum)
        if inode.is_dir:
            raise IsADirectory("write on directory inum %d" % inum)
        addr = inode.blocks.get(bno)
        if addr is None:
            addr = self._alloc_addr()
            inode.blocks[bno] = addr
        self._data[addr] = bytes(data)
        yield from self.disk.write(addr=addr, n_blocks=1)
        end = bno * self.block_size + len(data)
        inode.size = max(inode.size, end)
        inode.disk_size = max(inode.disk_size, end)
        inode.mtime = self.sim.now

    # -- integrity ------------------------------------------------------------

    def check(self) -> List[str]:
        """fsck-style invariant check; returns a list of problems."""
        problems: List[str] = []
        if ROOT_INUM not in self._inodes:
            problems.append("no root inode")
            return problems
        seen_addrs: Dict[int, int] = {}
        referenced: Dict[int, int] = {}
        for inode in self._inodes.values():
            for bno, addr in inode.blocks.items():
                if addr in seen_addrs:
                    problems.append(
                        "block %d shared by inums %d and %d"
                        % (addr, seen_addrs[addr], inode.inum)
                    )
                seen_addrs[addr] = inode.inum
                if addr not in self._data:
                    problems.append("inum %d block %d missing data" % (inode.inum, bno))
            if inode.is_dir:
                for name, child in inode.entries.items():
                    if child not in self._inodes:
                        problems.append(
                            "dangling entry %r -> %d in dir %d"
                            % (name, child, inode.inum)
                        )
                    else:
                        referenced[child] = referenced.get(child, 0) + 1
        for addr in self._data:
            if addr not in seen_addrs:
                problems.append("orphan data block %d" % addr)
        for inum, inode in self._inodes.items():
            if inum == ROOT_INUM:
                continue
            refs = referenced.get(inum, 0)
            if refs == 0:
                problems.append("unreachable inum %d" % inum)
            if not inode.is_dir and inode.nlink != refs:
                problems.append(
                    "inum %d nlink %d != %d references" % (inum, inode.nlink, refs)
                )
        return problems

    # -- iteration helper for tests ------------------------------------------

    def iter_inums(self) -> Iterator[int]:
        return iter(sorted(self._inodes))
