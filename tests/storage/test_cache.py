"""Tests for the block buffer cache."""

import ast
from collections import OrderedDict
from pathlib import Path

import pytest

import repro
from repro.sim import Simulator
from repro.storage import BufferCache, CacheError


def make_cache(capacity=8, flush_log=None):
    sim = Simulator()
    flushed = flush_log if flush_log is not None else []

    def flush(buf):
        yield sim.timeout(0.01)
        flushed.append(buf.key)

    cache = BufferCache(sim, capacity_blocks=capacity, flush_fn=flush)
    return sim, cache, flushed


def run(sim, gen):
    result = {}

    def wrapper(sim):
        result["value"] = yield from gen

    sim.spawn(wrapper(sim))
    sim.run()
    return result.get("value")


def test_insert_and_lookup():
    sim, cache, _ = make_cache()
    run(sim, cache.insert("f", 0, b"data"))
    buf = cache.lookup("f", 0)
    assert buf is not None
    assert buf.data == b"data"
    assert cache.stats.get("hits") == 1


def test_lookup_miss_counted():
    sim, cache, _ = make_cache()
    assert cache.lookup("f", 0) is None
    assert cache.stats.get("misses") == 1


def test_insert_existing_replaces_data():
    sim, cache, _ = make_cache()

    def scenario():
        yield from cache.insert("f", 0, b"old")
        yield from cache.insert("f", 0, b"new")

    run(sim, scenario())
    assert cache.lookup("f", 0).data == b"new"
    assert len(cache) == 1


def test_lru_eviction_of_clean_blocks():
    sim, cache, _ = make_cache(capacity=2)

    def scenario():
        yield from cache.insert("f", 0, b"a")
        yield from cache.insert("f", 1, b"b")
        cache.lookup("f", 0)  # touch 0, making 1 the LRU
        yield from cache.insert("f", 2, b"c")

    run(sim, scenario())
    assert cache.contains("f", 0)
    assert not cache.contains("f", 1)
    assert cache.contains("f", 2)


def test_dirty_eviction_flushes_first():
    sim, cache, flushed = make_cache(capacity=1)

    def scenario():
        buf = yield from cache.insert("f", 0, b"a", dirty=True)
        assert buf.dirty
        yield from cache.insert("f", 1, b"b")

    run(sim, scenario())
    assert flushed == [("f", 0)]
    assert cache.stats.get("dirty_evictions") == 1


def test_dirty_eviction_without_flush_fn_raises():
    sim = Simulator()
    cache = BufferCache(sim, capacity_blocks=1, flush_fn=None)

    def scenario():
        yield from cache.insert("f", 0, b"a", dirty=True)
        with pytest.raises(CacheError):
            yield from cache.insert("f", 1, b"b")

    run(sim, scenario())


def test_invalidate_file_drops_all_blocks():
    sim, cache, _ = make_cache()

    def scenario():
        yield from cache.insert("f", 0, b"a")
        yield from cache.insert("f", 1, b"b")
        yield from cache.insert("g", 0, b"c")

    run(sim, scenario())
    assert cache.invalidate_file("f") == 2
    assert not cache.contains("f", 0)
    assert cache.contains("g", 0)


def test_cancel_dirty_file_counts_cancelled_writes():
    sim, cache, flushed = make_cache()

    def scenario():
        yield from cache.insert("f", 0, b"a", dirty=True)
        yield from cache.insert("f", 1, b"b", dirty=True)
        yield from cache.insert("f", 2, b"c")  # clean

    run(sim, scenario())
    cancelled = cache.cancel_dirty_file("f")
    assert cancelled == 2
    assert cache.stats.get("cancelled_writes") == 2
    assert len(cache) == 0
    assert flushed == []  # nothing was ever written back


def test_dirty_buffers_age_filter():
    sim, cache, _ = make_cache()

    def scenario():
        yield from cache.insert("f", 0, b"a", dirty=True)
        yield sim.timeout(40)
        yield from cache.insert("f", 1, b"b", dirty=True)
        old = cache.dirty_buffers(older_than=30)
        assert [b.block_no for b in old] == [0]
        every = cache.dirty_buffers()
        assert sorted(b.block_no for b in every) == [0, 1]

    run(sim, scenario())


def test_flush_file_writes_all_dirty_in_order():
    sim, cache, flushed = make_cache()

    def scenario():
        yield from cache.insert("f", 3, b"d", dirty=True)
        yield from cache.insert("f", 1, b"b", dirty=True)
        yield from cache.insert("f", 2, b"c")
        yield from cache.flush_file("f")

    run(sim, scenario())
    assert flushed == [("f", 1), ("f", 3)]
    assert cache.dirty_count() == 0


def test_mark_clean_resets_age():
    sim, cache, _ = make_cache()

    def scenario():
        buf = yield from cache.insert("f", 0, b"a", dirty=True)
        cache.mark_clean(buf)
        assert not buf.dirty
        assert buf.dirty_since is None

    run(sim, scenario())


def test_hit_rate():
    sim, cache, _ = make_cache()
    run(sim, cache.insert("f", 0, b"a"))
    cache.lookup("f", 0)
    cache.lookup("f", 1)
    assert cache.hit_rate() == pytest.approx(0.5)


def test_capacity_must_be_positive():
    sim = Simulator()
    with pytest.raises(CacheError):
        BufferCache(sim, capacity_blocks=0)


def test_file_blocks_listing():
    sim, cache, _ = make_cache()

    def scenario():
        yield from cache.insert("f", 0, b"a")
        yield from cache.insert("f", 5, b"b")
        yield from cache.insert("g", 0, b"c")

    run(sim, scenario())
    blocks = sorted(b.block_no for b in cache.file_blocks("f"))
    assert blocks == [0, 5]


def test_clean_fill_never_replaces_a_dirty_block_installed_during_eviction():
    """A reader's ``insert`` yields while a dirty victim is flushed; a
    writer installs the same block dirty in that window.  The reader's
    stale clean fill must not replace it, or the delayed write is lost."""
    sim = Simulator()
    flushed = []

    def slow_flush(buf):
        yield sim.timeout(1.0)
        flushed.append((buf.key, bytes(buf.data)))

    cache = BufferCache(sim, capacity_blocks=2, flush_fn=slow_flush)

    def fill():
        yield from cache.insert("v", 0, b"v0", dirty=True)
        yield from cache.insert("v", 1, b"v1", dirty=True)

    run(sim, fill())
    got = {}

    def reader():
        got["reader"] = yield from cache.insert("f", 0, b"OLD")

    def writer():
        yield sim.timeout(0.010)
        got["writer"] = yield from cache.insert("f", 0, b"NEW", dirty=True)

    sim.spawn(reader())
    sim.spawn(writer())
    sim.run()
    buf = cache.lookup("f", 0)
    assert buf.data == b"NEW" and buf.dirty
    assert got["reader"] is buf and got["writer"] is buf
    assert buf in cache.dirty_buffers()
    assert cache.dirty_buffers(file_key="f") == [buf]


def test_racing_clean_fills_keep_one_buffer():
    """Two clean fills of one block racing through an eviction end with
    a single attached buffer holding the later data."""
    sim = Simulator()

    def slow_flush(buf):
        yield sim.timeout(1.0)

    cache = BufferCache(sim, capacity_blocks=2, flush_fn=slow_flush)

    def fill():
        yield from cache.insert("v", 0, b"v0", dirty=True)
        yield from cache.insert("v", 1, b"v1", dirty=True)

    run(sim, fill())
    got = []

    def reader(data):
        got.append((yield from cache.insert("f", 0, data)))

    sim.spawn(reader(b"one"))
    sim.spawn(reader(b"two"))
    sim.run()
    assert got[0] is got[1] is cache.lookup("f", 0)
    assert got[0].data == b"two"
    assert cache.file_blocks("f") == [got[0]]


def test_discard_and_clear():
    sim, cache, flushed = make_cache()

    def scenario():
        yield from cache.insert("f", 0, b"a", dirty=True)
        yield from cache.insert("f", 1, b"b")
        yield from cache.insert("g", 0, b"c", dirty=True)

    run(sim, scenario())
    cache.discard("f", 0)
    cache.discard("f", 0)  # not cached any more: a no-op
    assert not cache.contains("f", 0)
    assert [b.key for b in cache.file_blocks("f")] == [("f", 1)]
    assert [b.key for b in cache.dirty_buffers()] == [("g", 0)]
    cache.clear()
    assert len(cache) == 0
    assert cache.file_blocks("g") == [] and cache.dirty_buffers() == []
    assert cache.dirty_count() == 0
    assert flushed == []  # neither writes anything back


def test_detached_buffer_does_not_disturb_its_successor():
    """A caller still holding an invalidated buffer may mark it; the
    buffer now cached under the same key keeps its own dirty state."""
    sim, cache, _ = make_cache()

    def scenario():
        old = yield from cache.insert("f", 0, b"a", dirty=True)
        cache.invalidate_file("f")
        new = yield from cache.insert("f", 0, b"b", dirty=True)
        cache.mark_clean(old)
        assert cache.dirty_buffers() == [new] and cache.dirty_count() == 1
        cache.mark_clean(new)
        cache.mark_dirty(old)
        cache.overwrite(old, b"z", dirty=True)
        assert cache.dirty_buffers() == [] and cache.dirty_count() == 0
        assert cache.file_blocks("f") == [new]

    run(sim, scenario())


class _NoScan(OrderedDict):
    """An LRU dict that refuses to be walked."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("full-cache scan")

    values = items = keys = __iter__ = __reversed__ = _refuse


def test_whole_file_operations_do_not_scan_the_cache():
    """The complexity claim as a test: with iteration over the LRU dict
    forbidden, the whole-file and dirty-set operations still work."""
    sim, cache, _ = make_cache(capacity=64)

    def scenario():
        for f in ("f", "g", "h"):
            for bno in range(8):
                yield from cache.insert(f, bno, b"x", dirty=(bno % 2 == 0))
        yield sim.timeout(40)
        yield from cache.insert("young", 0, b"y", dirty=True)

    run(sim, scenario())
    guarded = _NoScan(cache._buffers)
    assert list(OrderedDict.keys(guarded)) == list(cache._buffers)
    cache._buffers = guarded
    with pytest.raises(AssertionError):
        list(cache._buffers.values())

    assert [b.block_no for b in cache.file_blocks("g")] == list(range(8))
    assert cache.dirty_count() == 13
    assert len(cache.dirty_buffers()) == 13
    assert [b.block_no for b in cache.dirty_buffers(file_key="h")] == [0, 2, 4, 6]
    assert len(cache.dirty_buffers(older_than=30)) == 12
    assert cache.cancel_dirty_file("f") == 4
    assert cache.invalidate_file("g") == 8
    assert len(cache) == 9 and cache.dirty_count() == 5
    assert cache.file_blocks("f") == [] and cache.file_blocks("g") == []


def test_only_the_cache_module_touches_its_indexes():
    """``_buffers``, ``_files`` and ``_dirty`` must change together, so
    no other module may reach for any of them (``clear()`` and
    ``discard()`` exist for the callers that used to)."""
    root = Path(repro.__file__).parent
    private = {"_buffers", "_files", "_dirty"}
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path.relative_to(root).as_posix() == "storage/cache.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                offenders.append("%s:%d .%s" % (path.relative_to(root), node.lineno, node.attr))
    assert offenders == []
