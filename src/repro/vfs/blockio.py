"""Cached block I/O helpers shared by every filesystem client.

The local-disk adapter, the NFS client, and the SNFS client all move
file data through the host's GFS buffer cache in block-sized units; they
differ only in where a missing block comes from (disk read vs. ``read``
RPC) and in the write policy (delayed write vs. write-through).  These
helpers implement the common mechanics:

* assembling byte ranges from cached blocks, filling misses;
* read-ahead: one-block prefetch on sequential access (the "standard
  Unix read-ahead" that SNFS disables for non-cachable files, §4.2.1);
* read-modify-write of partial blocks on the write path.

``fill_fn(bno)`` is a coroutine returning the block's bytes from the
backing store; it is the only thing the caller needs to supply.
"""

from __future__ import annotations

from typing import Callable

from ..storage import BufferCache
from .gnode import Gnode

__all__ = ["cached_read", "cached_write", "block_range", "merge_block"]


def block_range(offset: int, count: int, block_size: int):
    """Block numbers overlapping [offset, offset+count)."""
    if count <= 0:
        return range(0, 0)
    first = offset // block_size
    last = (offset + count - 1) // block_size
    return range(first, last + 1)


def merge_block(old: bytes, block_offset: int, data: bytes) -> bytes:
    """Overlay ``data`` at ``block_offset`` within a block's bytes."""
    if len(old) < block_offset:
        old = old + b"\x00" * (block_offset - len(old))
    return old[:block_offset] + data + old[block_offset + len(data):]


def cached_read(
    cache: BufferCache,
    g: Gnode,
    offset: int,
    count: int,
    file_size: int,
    block_size: int,
    fill_fn: Callable,
    readahead: bool = True,
    sim=None,
):
    """Coroutine: read up to ``count`` bytes at ``offset`` through the cache.

    Returns bytes (short at EOF).  With ``readahead`` enabled, a
    sequential access pattern triggers an asynchronous prefetch of the
    next block (requires ``sim``).
    """
    if offset >= file_size:
        return b""
    count = min(count, file_size - offset)
    file_key = g.cache_key
    chunks = []
    blocks = block_range(offset, count, block_size)
    for bno in blocks:
        buf = cache.lookup(file_key, bno)
        if buf is None:
            data = yield from fill_fn(bno)
            buf = yield from cache.insert(file_key, bno, data)
        data = buf.data
        # a block shorter than the file's extent there is a hole (or an
        # extension past written data): it reads as zeros
        needed = min(block_size, file_size - bno * block_size)
        if len(data) < needed:
            data = data + b"\x00" * (needed - len(data))
        chunks.append(data)
    last_bno = blocks[-1]
    if readahead and sim is not None:
        _maybe_readahead(cache, g, last_bno, file_size, block_size, fill_fn, sim)
    g.private["last_read_bno"] = last_bno
    whole = b"".join(chunks)
    skip = offset - blocks[0] * block_size
    return whole[skip:skip + count]


def _maybe_readahead(cache, g, last_bno, file_size, block_size, fill_fn, sim) -> None:
    prev = g.private.get("last_read_bno")
    next_bno = last_bno + 1
    if prev is None or last_bno not in (prev, prev + 1):
        return  # not sequential
    if next_bno * block_size >= file_size:
        return  # past EOF
    if cache.contains(g.cache_key, next_bno):
        return
    file_key = g.cache_key

    def prefetch():
        data = yield from fill_fn(next_bno)
        if not cache.contains(file_key, next_bno):
            yield from cache.insert(file_key, next_bno, data)

    sim.spawn(prefetch(), name="readahead")


def cached_write(
    cache: BufferCache,
    g: Gnode,
    offset: int,
    data: bytes,
    file_size: int,
    block_size: int,
    fill_fn: Callable,
    mark_dirty: bool = True,
):
    """Coroutine: write ``data`` at ``offset`` into the cache.

    Partial blocks overlapping existing file data are read-modify-
    written (filling from the backing store when not cached).  Returns
    the list of affected Buffer objects, in block order, each marked
    dirty when ``mark_dirty`` (delayed-write policy) — callers doing
    write-through instead flush the returned buffers themselves.
    """
    file_key = g.cache_key
    buffers = []
    pos = 0
    probe = cache.sim.probe
    for bno in block_range(offset, len(data), block_size):
        block_start = bno * block_size
        start_in_block = max(offset - block_start, 0)
        end_in_block = min(offset + len(data) - block_start, block_size)
        piece = data[pos:pos + (end_in_block - start_in_block)]
        pos += len(piece)
        covers_whole = start_in_block == 0 and (
            end_in_block == block_size or block_start + end_in_block >= file_size
        )
        # SimTSan: a partial-block write is a read-modify-write that can
        # yield (the fill); a second writer touching the same block in
        # that window would have its bytes clobbered by the merge.
        region = None
        if probe is not None:
            region = probe.region_begin("buffer", (cache.name, file_key, bno), "write", wrote=True)
        try:
            buf = cache.lookup(file_key, bno)
            if buf is None:
                if covers_whole:
                    old = b""
                else:
                    old = yield from fill_fn(bno)
                merged = merge_block(old, start_in_block, piece)
                buf = yield from cache.insert(file_key, bno, merged, dirty=mark_dirty)
            else:
                cache.overwrite(
                    buf, merge_block(buf.data, start_in_block, piece), dirty=mark_dirty
                )
        finally:
            if region is not None:
                probe.region_end(region)
        buffers.append(buf)
    return buffers
