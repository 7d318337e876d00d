"""Block buffer cache.

In the paper's layering (§4.1) the GFS layer owns one buffer cache per
host; file data blocks from every mounted filesystem live in it, keyed
by a per-filesystem file key plus block number.  This module provides
that cache: LRU replacement, dirty tracking with ages (for the 30-second
write-back policy), whole-file invalidation (NFS consistency, SNFS
callbacks), and **cancellation** of dirty blocks when a file is deleted
before write-back — the optimization behind tables 5-5/5-6.

Eviction of a dirty victim must write it out first; since that is a
simulated I/O, ``insert`` is a coroutine and the cache is constructed
with a ``flush_fn(buffer)`` coroutine supplied by the owner.

Beside the LRU ``OrderedDict`` the cache keeps two indexes, so that the
whole-file operations cost O(blocks of that file) and the update
daemon's ``dirty_buffers`` costs O(dirty blocks) rather than a walk of
the whole cache: ``_files`` maps a file key to its cached blocks and
``_dirty`` holds every cached buffer whose ``dirty`` flag is set.  LRU
order is observable (``sync`` flushes in it, which is disk-queue order,
which is simulated time), so every buffer carries the ``tick`` of its
last move to the LRU tail and index results are sorted by it.  Callers
hold ``Buffer`` references across yields; a buffer that was evicted or
invalidated meanwhile is *detached* and never enters either index.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from operator import attrgetter
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from ..metrics import Tally
from ..sim import Simulator

__all__ = ["BufferCache", "Buffer", "CacheError"]

BlockKey = Tuple[Hashable, int]  # (file_key, block_number)

_TICK = attrgetter("tick")


class CacheError(Exception):
    pass


class Buffer:
    """One cached block."""

    __slots__ = (
        "key", "data", "dirty", "dirty_since", "busy", "wstamp", "tag", "tick",
    )

    def __init__(self, key: BlockKey, data: bytes):
        self.key = key
        self.data = data
        self.dirty = False
        self.dirty_since: Optional[float] = None
        self.busy = False  # being flushed; not evictable or cancellable
        self.wstamp = 0  # write generation; bumped on every data change
        self.tag: Any = None  # filesystem-private (e.g. write credentials)
        self.tick = 0  # LRU position: the cache's clock at the last touch

    @property
    def file_key(self) -> Hashable:
        return self.key[0]

    @property
    def block_no(self) -> int:
        return self.key[1]

    def __repr__(self) -> str:
        return "<Buffer %r dirty=%s len=%d>" % (self.key, self.dirty, len(self.data))


class BufferCache:
    """LRU cache of file blocks with dirty-block management."""

    def __init__(
        self,
        sim: Simulator,
        capacity_blocks: int,
        flush_fn: Optional[Callable[[Buffer], Any]] = None,
        name: str = "cache",
    ):
        if capacity_blocks < 1:
            raise CacheError("cache capacity must be >= 1 block")
        self.sim = sim
        self.capacity = capacity_blocks
        self.name = name
        self.flush_fn = flush_fn  # coroutine(buffer); required before dirty eviction
        self._buffers: "OrderedDict[BlockKey, Buffer]" = OrderedDict()
        #: file_key -> {block_no: buffer}, exactly the buffers in _buffers
        self._files: Dict[Hashable, Dict[int, Buffer]] = {}
        #: the buffers in _buffers whose dirty flag is set (busy or not)
        self._dirty: Dict[BlockKey, Buffer] = {}
        self._ticks = itertools.count(1)
        self.stats = Tally()

    # -- basic operations ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._buffers)

    def _touch(self, buf: Buffer) -> None:
        """Make ``buf`` (which must be attached) the most recently used."""
        self._buffers.move_to_end(buf.key)
        buf.tick = next(self._ticks)

    def _attached(self, buf: Buffer) -> bool:
        # by identity: a newer buffer may have been installed under the
        # same key after this one was evicted or invalidated
        return self._buffers.get(buf.key) is buf

    def _detach(self, buf: Buffer) -> None:
        """Remove an attached buffer from the cache and both indexes."""
        key = buf.key
        del self._buffers[key]
        blocks = self._files[key[0]]
        del blocks[key[1]]
        if not blocks:
            del self._files[key[0]]
        if buf.dirty:
            del self._dirty[key]

    def lookup(self, file_key: Hashable, block_no: int) -> Optional[Buffer]:
        buf = self._buffers.get((file_key, block_no))
        if buf is not None:
            self._touch(buf)
            self.stats["hits"] += 1
        else:
            self.stats["misses"] += 1
        if self.sim.probe is not None:
            self.sim.probe.cache(
                "miss" if buf is None else "hit", self.name, file_key, block=block_no
            )
        return buf

    def contains(self, file_key: Hashable, block_no: int) -> bool:
        return (file_key, block_no) in self._buffers

    def insert(self, file_key: Hashable, block_no: int, data: bytes, dirty: bool = False):
        """Coroutine: add (or replace) a block, evicting if needed.

        Evicting a dirty victim yields, and another process may install
        this very block meanwhile.  The later data then wins — except
        that a clean fill (``dirty=False``: bytes read before the yield)
        never replaces a buffer that turned up dirty or busy; that
        buffer is returned untouched, or its delayed write would be
        lost.
        """
        key = (file_key, block_no)
        buf = self._buffers.get(key)
        if buf is None and len(self._buffers) >= self.capacity:
            yield from self._make_room()
            buf = self._buffers.get(key)
            if buf is not None and not dirty and (buf.dirty or buf.busy):
                return buf
        if buf is None:
            buf = Buffer(key, data)
            buf.tick = next(self._ticks)
            self._buffers[key] = buf  # lint: ok=ATOM001 — the key was looked up again after the yield and is still absent
            self._files.setdefault(file_key, {})[block_no] = buf
            self.stats["inserts"] += 1
        else:
            buf.data = data
            buf.wstamp += 1
            self._touch(buf)
        if dirty:
            self.mark_dirty(buf)
        return buf

    def overwrite(self, buf: Buffer, data: bytes, dirty: bool = False) -> None:
        """Replace a cached buffer's data in place (the delayed-write
        merge path).  Routing the mutation through the cache keeps the
        write-generation stamp honest, which is what protects a block
        written *during* its own flush from being marked clean."""
        buf.data = data
        buf.wstamp += 1
        if dirty:
            self.mark_dirty(buf)

    def mark_dirty(self, buf: Buffer) -> None:
        buf.wstamp += 1
        if not buf.dirty:
            buf.dirty = True
            buf.dirty_since = self.sim.now
            if self._attached(buf):
                self._dirty[buf.key] = buf

    def mark_clean(self, buf: Buffer) -> None:
        if buf.dirty and self._attached(buf):
            del self._dirty[buf.key]
        buf.dirty = False
        buf.dirty_since = None

    def discard(self, file_key: Hashable, block_no: int) -> None:
        """Drop one block, if cached, whatever its state and without
        writing it back."""
        buf = self._buffers.get((file_key, block_no))
        if buf is not None:
            self._detach(buf)

    def clear(self) -> None:
        """Forget every block without writing any back (volatile memory
        lost in a crash, or a cold-cache measurement)."""
        self._buffers.clear()
        self._files.clear()
        self._dirty.clear()

    # -- the flush protocol ------------------------------------------------

    def flush_begin(self, buf: Buffer) -> int:
        """Start writing a dirty buffer back.  Marks the buffer busy
        (not evictable, not cancellable, skipped by other flushers) and
        returns its current write stamp; pass it to :meth:`flush_end`.
        """
        if buf.busy:
            raise CacheError("buffer %r is already being flushed" % (buf.key,))
        buf.busy = True
        if self.sim.probe is not None:
            self.sim.probe.cache(
                "flush_begin", self.name, buf.file_key, block=buf.block_no,
                stamp=buf.wstamp,
            )
        return buf.wstamp

    def flush_end(self, buf: Buffer, stamp: int, clean: bool = True) -> bool:
        """Finish a flush started by :meth:`flush_begin`.

        ``clean=False`` means the write-back failed (or was abandoned):
        the buffer just becomes un-busy and stays dirty.  When the
        buffer's data changed while the flush was in flight, the image
        that reached the server/disk is stale, so the buffer likewise
        stays dirty to be written again — marking it clean here would
        silently lose the overlapping write.  Returns True if the
        buffer was marked clean.
        """
        buf.busy = False
        if not clean:
            outcome = "abandoned"
        elif buf.wstamp != stamp:
            self.stats["overlapped_flushes"] += 1
            outcome = "overlapped"
        else:
            self.mark_clean(buf)
            outcome = "clean"
        if self.sim.probe is not None:
            self.sim.probe.cache(
                "flush_end", self.name, buf.file_key, block=buf.block_no,
                stamp=stamp, outcome=outcome,
            )
        return outcome == "clean"

    def _make_room(self):
        while len(self._buffers) >= self.capacity:
            victim = self._pick_victim()
            if victim is None:
                raise CacheError(
                    "cache %s wedged: all %d buffers busy" % (self.name, self.capacity)
                )
            if victim.dirty:
                if self.flush_fn is None:
                    raise CacheError(
                        "cache %s: dirty eviction with no flush_fn" % self.name
                    )
                stamp = self.flush_begin(victim)
                ok = False
                try:
                    yield from self.flush_fn(victim)
                    ok = True
                finally:
                    self.flush_end(victim, stamp, clean=ok)
                self.stats["dirty_evictions"] += 1
                if victim.dirty:
                    continue  # written to during the flush; not evictable yet
            # victim may have been invalidated during the flush
            if self._attached(victim):
                self._detach(victim)
                self.stats["evictions"] += 1
                if self.sim.probe is not None:
                    self.sim.probe.cache("evict", self.name, victim.file_key, block=victim.block_no)

    def _pick_victim(self) -> Optional[Buffer]:
        # Prefer the LRU clean buffer; fall back to the LRU dirty one.
        first_dirty = None
        for buf in self._buffers.values():
            if buf.busy:
                continue
            if not buf.dirty:
                return buf
            if first_dirty is None:
                first_dirty = buf
        return first_dirty

    # -- whole-file operations -------------------------------------------

    def _blocks_of(self, file_key: Hashable) -> List[Buffer]:
        """A file's cached buffers (a snapshot, in no particular order)."""
        blocks = self._files.get(file_key)
        return list(blocks.values()) if blocks else []

    def file_blocks(self, file_key: Hashable) -> List[Buffer]:
        """Every cached block of a file, least recently used first."""
        return sorted(self._blocks_of(file_key), key=_TICK)

    def invalidate_file(self, file_key: Hashable) -> int:
        """Drop every block of a file (clean or dirty, except busy ones)."""
        dropped = 0
        for buf in self._blocks_of(file_key):
            if buf.busy:
                continue
            self._detach(buf)
            dropped += 1
        if dropped:
            self.stats["invalidated"] += dropped
            if self.sim.probe is not None:
                self.sim.probe.cache("invalidate", self.name, file_key, blocks=dropped)
        return dropped

    def cancel_dirty_file(self, file_key: Hashable) -> int:
        """Delete-before-writeback: discard dirty blocks without flushing.

        Used when a file is removed while delayed writes are pending —
        the write to the server (or disk) never needs to happen.
        """
        cancelled = 0
        for buf in self._blocks_of(file_key):
            if buf.busy:
                continue
            if buf.dirty:
                cancelled += 1
            self._detach(buf)
        if cancelled:
            self.stats["cancelled_writes"] += cancelled
            if self.sim.probe is not None:
                self.sim.probe.cache("cancel_dirty", self.name, file_key, blocks=cancelled)
        return cancelled

    def dirty_buffers(
        self,
        file_key: Optional[Hashable] = None,
        older_than: Optional[float] = None,
    ) -> List[Buffer]:
        """Dirty, non-busy buffers, least recently used first;
        optionally filtered by file and age."""
        if file_key is None:
            candidates = self._dirty.values()
        else:
            candidates = self._blocks_of(file_key)
        now = self.sim.now
        out = []
        for buf in candidates:
            if not buf.dirty or buf.busy:
                continue
            if older_than is not None:
                born = now if buf.dirty_since is None else buf.dirty_since
                if (now - born) < older_than:
                    continue
            out.append(buf)
        out.sort(key=_TICK)
        return out

    def dirty_count(self) -> int:
        return len(self._dirty)

    def flush_file(self, file_key: Hashable):
        """Coroutine: write back every dirty block of a file, in order."""
        bufs = sorted(self.dirty_buffers(file_key=file_key), key=lambda b: b.block_no)
        for buf in bufs:
            if not buf.dirty or buf.busy:
                continue
            stamp = self.flush_begin(buf)
            ok = False
            try:
                yield from self.flush_fn(buf)
                ok = True
            finally:
                self.flush_end(buf, stamp, clean=ok)
        return len(bufs)

    def hit_rate(self) -> float:
        hits = self.stats.get("hits")
        misses = self.stats.get("misses")
        total = hits + misses
        return hits / total if total else 0.0
