"""Local-disk mount: the Unix filesystem behind the GFS switch.

Implements the traditional Unix **delayed write** policy the paper
describes in §4.2.3: writes dirty buffers in the host cache; blocks
reach the disk when evicted, fsync'ed, or flushed by the periodic
``/etc/update`` sync.  Deleting a file cancels its pending delayed
writes (data blocks never touch the disk), but namespace operations
still write metadata synchronously — both halves of the Table 5-5
local-disk behaviour.
"""

from __future__ import annotations

from typing import Optional

from ..fs import LocalFileSystem, NoSuchFile, OpenMode
from ..fs.types import FileType
from ..storage import Buffer, BufferCache
from .blockio import cached_read, cached_write
from .gnode import Gnode
from .interface import FileSystemType

__all__ = ["LocalMount"]


class LocalMount(FileSystemType):
    """Mount adapter presenting a LocalFileSystem through GFS."""

    def __init__(
        self,
        mount_id: str,
        sim,
        cache: BufferCache,
        localfs: LocalFileSystem,
        readahead: bool = True,
    ):
        super().__init__(mount_id)
        self.sim = sim
        self.cache = cache
        self.lfs = localfs
        self.readahead = readahead

    # -- namespace --------------------------------------------------------

    def root(self) -> Gnode:
        return self.gnode_for(self.lfs.root_inum, FileType.DIRECTORY)

    def lookup(self, dirg: Gnode, name: str):
        inum = yield from self.lfs.lookup(dirg.fid, name)
        inode = yield from self.lfs.inode(inum)
        return self.gnode_for(inum, inode.ftype)

    def create(self, dirg: Gnode, name: str, mode: int = 0o644):
        inum = yield from self.lfs.create(dirg.fid, name, mode)
        return self.gnode_for(inum, FileType.REGULAR)

    def remove(self, dirg: Gnode, name: str):
        inum = yield from self.lfs.lookup(dirg.fid, name)
        g = self.gnode_for(inum, FileType.REGULAR)
        # cancel delayed writes: a deleted file's data never hits the disk
        self.cache.cancel_dirty_file(g.cache_key)
        yield from self.lfs.remove(dirg.fid, name)  # lint: ok=ATOM001 — remove is name-based, not inum-based; the lookup only locates cached state to drop
        self.drop_gnode(g)

    def mkdir(self, dirg: Gnode, name: str, mode: int = 0o755):
        inum = yield from self.lfs.mkdir(dirg.fid, name, mode)
        return self.gnode_for(inum, FileType.DIRECTORY)

    def rmdir(self, dirg: Gnode, name: str):
        yield from self.lfs.rmdir(dirg.fid, name)

    def rename(self, src_dirg: Gnode, src_name: str, dst_dirg: Gnode, dst_name: str):
        # if the rename replaces an existing file, cancel its writes
        try:
            victim = yield from self.lfs.lookup(dst_dirg.fid, dst_name)
        except NoSuchFile:
            victim = None
        if victim is not None:
            vg = self.gnode_for(victim, FileType.REGULAR)
            self.cache.cancel_dirty_file(vg.cache_key)
        yield from self.lfs.rename(src_dirg.fid, src_name, dst_dirg.fid, dst_name)

    def link(self, g: Gnode, dirg: Gnode, name: str):
        yield from self.lfs.link(g.fid, dirg.fid, name)
        return g

    def readdir(self, dirg: Gnode):
        names = yield from self.lfs.readdir(dirg.fid)
        return names

    # -- per-file state ------------------------------------------------------

    def open(self, g: Gnode, mode: OpenMode):
        # Local files need no protocol action on open.
        if mode.is_write:
            g.open_writes += 1
        else:
            g.open_reads += 1
        return
        yield  # pragma: no cover - makes this a generator

    def close(self, g: Gnode, mode: OpenMode):
        if mode.is_write:
            g.open_writes -= 1
        else:
            g.open_reads -= 1
        return
        yield  # pragma: no cover

    def getattr(self, g: Gnode):
        attr = yield from self.lfs.getattr(g.fid)
        return attr

    def setattr(self, g: Gnode, size: Optional[int] = None, mode: Optional[int] = None):
        if size is not None:
            # truncation invalidates cached data beyond the new size; we
            # conservatively drop the whole file's cached blocks
            self.cache.invalidate_file(g.cache_key)
        attr = yield from self.lfs.setattr(g.fid, size=size, mode=mode)
        return attr

    # -- data ---------------------------------------------------------------

    def read(self, g: Gnode, offset: int, count: int):
        inode = yield from self.lfs.inode(g.fid)
        data = yield from cached_read(
            self.cache,
            g,
            offset,
            count,
            file_size=inode.size,
            block_size=self.lfs.block_size,
            fill_fn=lambda bno: self.lfs.read_block(g.fid, bno),
            readahead=self.readahead,
            sim=self.sim,
        )
        return data

    def write(self, g: Gnode, offset: int, data: bytes):
        inode = yield from self.lfs.inode(g.fid)
        yield from cached_write(
            self.cache,
            g,
            offset,
            data,
            file_size=inode.size,
            block_size=self.lfs.block_size,
            fill_fn=lambda bno: self.lfs.read_block(g.fid, bno),
            mark_dirty=True,  # delayed write: the Unix policy
        )
        self.lfs.note_logical_write(g.fid, offset + len(data))

    def fsync(self, g: Gnode):
        yield from self.cache.flush_file(g.cache_key)

    def sync(self, min_age=None):
        """Write back this mount's dirty buffers (\"/etc/update\")."""
        for buf in list(self.cache.dirty_buffers(older_than=min_age)):
            if buf.file_key[0] != self.mount_id:
                continue
            if not buf.dirty or buf.busy:
                continue
            stamp = self.cache.flush_begin(buf)
            ok = False
            try:
                yield from self.flush_block(buf)
                ok = True
            finally:
                self.cache.flush_end(buf, stamp, clean=ok)

    def flush_block(self, buf: Buffer):
        inum = buf.file_key[1]
        try:
            yield from self.lfs.write_block(inum, buf.block_no, buf.data)
        except NoSuchFile:
            pass  # file deleted while the flush was queued: data is moot

    # -- crash support --------------------------------------------------------

    def on_host_crash(self) -> None:
        """The host lost its memory: in-core inode state reverts to disk."""
        self.lfs.crash_volatile()

    def on_host_reboot(self) -> None:
        pass
