"""The buffer cache's per-file and dirty indexes against full scans.

``BufferCache`` answers its whole-file and dirty-set queries from two
indexes kept beside the LRU dict.  The reference functions below are the
full-cache scans those indexes replaced; after every step of a random
operation sequence — including operations on buffers that were evicted
or invalidated while the caller still held them — index and scan must
name the same buffers in the same (LRU) order.
"""

from hypothesis import example, given, settings, strategies as st

from repro.sim import Simulator
from repro.storage import BufferCache, CacheError

from .test_cache_props import drive

FILES = ["f0", "f1", "f2", "f3"]
BLOCKS = 8
CAPACITY = 6


# -- the reference: scans of the LRU dict -------------------------------------------


def scan_file_blocks(cache, file_key):
    return [b for b in cache._buffers.values() if b.file_key == file_key]


def scan_dirty_buffers(cache, file_key=None, older_than=None):
    now = cache.sim.now
    out = []
    for buf in cache._buffers.values():
        if not buf.dirty or buf.busy:
            continue
        if file_key is not None and buf.file_key != file_key:
            continue
        if older_than is not None:
            born = now if buf.dirty_since is None else buf.dirty_since
            if (now - born) < older_than:
                continue
        out.append(buf)
    return out


def scan_dirty_count(cache):
    return sum(1 for b in cache._buffers.values() if b.dirty)


def scan_pick_victim(cache):
    first_dirty = None
    for buf in cache._buffers.values():
        if buf.busy:
            continue
        if not buf.dirty:
            return buf
        if first_dirty is None:
            first_dirty = buf
    return first_dirty


def ids(bufs):
    return [id(b) for b in bufs]


def assert_index_matches_scan(cache):
    for f in FILES:
        assert ids(cache.file_blocks(f)) == ids(scan_file_blocks(cache, f))
        assert ids(cache.dirty_buffers(file_key=f)) == ids(
            scan_dirty_buffers(cache, file_key=f)
        )
        assert ids(cache.dirty_buffers(file_key=f, older_than=5.0)) == ids(
            scan_dirty_buffers(cache, file_key=f, older_than=5.0)
        )
    assert ids(cache.dirty_buffers()) == ids(scan_dirty_buffers(cache))
    for age in (0.0, 5.0, 30.0):
        assert ids(cache.dirty_buffers(older_than=age)) == ids(
            scan_dirty_buffers(cache, older_than=age)
        )
    assert cache.dirty_count() == scan_dirty_count(cache)
    assert cache._pick_victim() is scan_pick_victim(cache)
    # the indexes hold exactly the attached buffers, and ticks are the LRU order
    attached = list(cache._buffers.values())
    indexed = [b for blocks in cache._files.values() for b in blocks.values()]
    assert sorted(ids(indexed)) == sorted(ids(attached))
    assert all(cache._files.values()), "an emptied file keeps no entry"
    assert sorted(ids(cache._dirty.values())) == sorted(
        ids(b for b in attached if b.dirty)
    )
    ticks = [b.tick for b in attached]
    assert ticks == sorted(set(ticks))
    assert len(cache) <= CAPACITY


# -- random operation sequences ---------------------------------------------------

file_st = st.sampled_from(FILES)
block_st = st.integers(min_value=0, max_value=BLOCKS - 1)
held_st = st.integers(min_value=0, max_value=1000)  # index into buffers held so far
#: a block named outright, or the block of a buffer handed out earlier
#: (so that hits, replacements and successors of detached buffers occur)
key_st = st.one_of(st.tuples(file_st, block_st), held_st)

insert_st = st.tuples(st.just("insert"), key_st, st.booleans())
lookup_st = st.tuples(st.just("lookup"), key_st)

op_st = st.one_of(
    # listed three times: most steps should fill, hit and evict
    insert_st, insert_st, insert_st,
    lookup_st, lookup_st, lookup_st,
    st.tuples(st.just("overwrite"), held_st, st.booleans()),
    st.tuples(st.just("mark_dirty"), held_st),
    st.tuples(st.just("mark_clean"), held_st),
    st.tuples(st.just("flush_begin"), held_st),
    st.tuples(st.just("flush_end"), st.booleans()),
    st.tuples(st.just("invalidate_file"), file_st),
    st.tuples(st.just("cancel_dirty_file"), file_st),
    st.tuples(st.just("discard"), key_st),
    st.tuples(st.just("clear")),
    st.tuples(st.just("advance"), st.sampled_from([0.5, 4.0, 31.0])),
)


@given(ops=st.lists(op_st, min_size=10, max_size=120))
@example(  # marking a detached buffer must not touch the successor under its key
    ops=[
        ("insert", ("f0", 0), True), ("discard", ("f0", 0)),
        ("insert", ("f0", 0), True), ("mark_clean", 0), ("mark_dirty", 0),
        ("mark_clean", 1), ("overwrite", 0, True),
    ]
)
@settings(max_examples=150, deadline=None)
def test_indexes_agree_with_full_scans(ops):
    sim = Simulator()

    def flush(buf):
        yield sim.timeout(0.25)  # a dirty eviction yields and moves the clock

    cache = BufferCache(sim, capacity_blocks=CAPACITY, flush_fn=flush)
    held = []  # every buffer ever handed out, attached or not
    flushing = []  # (buffer, stamp) of flushes begun and not yet ended
    serial = iter(range(10**6))

    def pick(i):
        return held[i % len(held)] if held else None

    def key_of(spec):
        if isinstance(spec, tuple):
            return spec
        return pick(spec).key if held else (FILES[0], 0)

    def scenario():
        for op in ops:
            kind = op[0]
            if kind == "insert":
                data = b"%d" % next(serial)
                try:
                    held.append((yield from cache.insert(*key_of(op[1]), data, dirty=op[2])))
                except CacheError:
                    pass  # wedged: every buffer is busy
            elif kind == "lookup":
                buf = cache.lookup(*key_of(op[1]))
                if buf is not None:
                    held.append(buf)
            elif kind == "overwrite":
                if held:
                    cache.overwrite(pick(op[1]), b"%d" % next(serial), dirty=op[2])
            elif kind == "mark_dirty":
                if held:
                    cache.mark_dirty(pick(op[1]))
            elif kind == "mark_clean":
                if held:
                    cache.mark_clean(pick(op[1]))
            elif kind == "flush_begin":
                buf = pick(op[1])
                if buf is not None and not buf.busy:
                    flushing.append((buf, cache.flush_begin(buf)))
            elif kind == "flush_end":
                if flushing:
                    buf, stamp = flushing.pop(0)
                    cache.flush_end(buf, stamp, clean=op[1])
            elif kind == "invalidate_file":
                cache.invalidate_file(op[1])
            elif kind == "cancel_dirty_file":
                cache.cancel_dirty_file(op[1])
            elif kind == "discard":
                cache.discard(*key_of(op[1]))
            elif kind == "clear":
                cache.clear()
            elif kind == "advance":
                yield sim.timeout(op[1])
            assert_index_matches_scan(cache)

    drive(sim, scenario())
