"""Tests for the sharded testbed, referral routing, and failover."""

import pytest

from repro.fs import CrossShardError, FileType, OpenMode
from repro.experiments import build_sharded_cluster
from repro.snfs import SnfsClientConfig


def _write(bed, kernel, path, data):
    def scenario():
        fd = yield from kernel.open(path, OpenMode.WRITE, create=True, truncate=True)
        yield from kernel.write(fd, data)
        yield from kernel.close(fd)

    bed.run(scenario())


def _read(bed, kernel, path):
    def scenario():
        fd = yield from kernel.open(path, OpenMode.READ)
        got = yield from kernel.read(fd, 1 << 20)
        yield from kernel.close(fd)
        return got

    return bed.run(scenario())


def _wait(bed, dt):
    def scenario():
        yield bed.sim.timeout(dt)

    bed.run(scenario())


@pytest.mark.parametrize("protocol", ("nfs", "snfs", "rfs", "kent", "lease"))
def test_every_protocol_builds_a_sharded_namespace(protocol):
    bed = build_sharded_cluster(protocol, n_shards=2, n_clients=1, seed=7)
    k = bed.kernels[0]
    bed.run(k.mkdir("/data/alpha"))
    _write(bed, k, "/data/alpha/f", b"hello")
    assert _read(bed, k, "/data/alpha/f") == b"hello"


def test_root_readdir_merges_all_shards():
    bed = build_sharded_cluster(
        "snfs", n_shards=2, n_clients=1, strategy="subtree",
        assignments={"a": 0, "b": 1}, seed=7,
    )
    k = bed.kernels[0]
    bed.run(k.mkdir("/data/a"))
    bed.run(k.mkdir("/data/b"))
    names = bed.run(k.readdir("/data"))
    assert "a" in names and "b" in names
    # the two directories really live on different servers
    ns = bed.mounts[0]
    assert ns.table.resolve("a") is not ns.table.resolve("b")


def test_lookup_spans_parent_and_child_shards():
    # the parent directory resolves through the referral root on one
    # shard; the child is a plain per-shard lookup below it
    bed = build_sharded_cluster(
        "snfs", n_shards=2, n_clients=2, strategy="subtree",
        assignments={"a": 0, "b": 1}, seed=7,
    )
    k0, k1 = bed.kernels
    bed.run(k0.mkdir("/data/a"))
    bed.run(k0.mkdir("/data/b"))
    _write(bed, k0, "/data/a/one", b"1")
    _write(bed, k0, "/data/b/two", b"22")
    # a *different* client walks both shards through one tree
    assert _read(bed, k1, "/data/a/one") == b"1"
    assert _read(bed, k1, "/data/b/two") == b"22"
    attr = bed.run(k1.stat("/data/b/two"))
    assert attr.ftype == FileType.REGULAR
    assert attr.size == 2


def test_cross_shard_rename_is_exdev():
    bed = build_sharded_cluster(
        "snfs", n_shards=2, n_clients=1, strategy="subtree",
        assignments={"a": 0, "b": 1}, seed=7,
    )
    k = bed.kernels[0]
    bed.run(k.mkdir("/data/a"))
    bed.run(k.mkdir("/data/b"))
    _write(bed, k, "/data/a/f", b"x")
    with pytest.raises(CrossShardError):
        bed.run(k.rename("/data/a/f", "/data/b/f"))
    # the top-level entries themselves are shard boundaries too: "a"
    # is pinned to shard 0, "b" to shard 1 (an unassigned destination
    # would fall to the default shard and stay legal)
    with pytest.raises(CrossShardError):
        bed.run(k.rename("/data/a", "/data/b"))
    # same-shard rename still works, deep and at the root
    bed.run(k.rename("/data/a/f", "/data/a/g"))
    assert _read(bed, k, "/data/a/g") == b"x"


def test_cross_shard_link_is_exdev():
    bed = build_sharded_cluster(
        "snfs", n_shards=2, n_clients=1, strategy="subtree",
        assignments={"a": 0, "b": 1}, seed=7,
    )
    k = bed.kernels[0]
    bed.run(k.mkdir("/data/a"))
    bed.run(k.mkdir("/data/b"))
    _write(bed, k, "/data/a/f", b"x")
    with pytest.raises(CrossShardError):
        bed.run(k.link("/data/a/f", "/data/b/f-link"))
    bed.run(k.link("/data/a/f", "/data/a/f-link"))
    assert _read(bed, k, "/data/a/f-link") == b"x"


def test_shard_map_change_purges_shared_dnlc():
    bed = build_sharded_cluster(
        "snfs", n_shards=2, n_clients=1, strategy="subtree",
        assignments={"a": 0}, seed=7,
        client_config=SnfsClientConfig(name_cache_ttl=30.0),
    )
    k = bed.kernels[0]
    ns = bed.mounts[0]
    bed.run(k.mkdir("/data/a"))
    _write(bed, k, "/data/a/f", b"x")
    # plant a sentinel translation that no later lookup will repopulate
    ns.dnlc.put("sentinel-dir", "name", "fid", FileType.REGULAR)
    assert ns.dnlc.get("sentinel-dir", "name") is not None
    # moving a (fresh) name bumps the map version; the next routed
    # lookup must purge every cached translation
    ns.table.shard_map.assign("moved", 1)
    assert _read(bed, k, "/data/a/f") == b"x"
    assert ns.dnlc.get("sentinel-dir", "name") is None


def test_shard_mounts_share_one_dnlc():
    bed = build_sharded_cluster("snfs", n_shards=3, n_clients=1, seed=7)
    ns = bed.mounts[0]
    caches = {id(m.dnlc) for m in ns.table.mounts()}
    assert len(caches) == 1
    assert ns.dnlc is ns.table.mounts()[0].dnlc


def test_single_shard_crash_failover():
    bed = build_sharded_cluster(
        "snfs", n_shards=2, n_clients=2, strategy="subtree",
        assignments={"a": 0, "b": 1}, seed=7, with_oracle=True,
    )
    k0, k1 = bed.kernels
    bed.run(k0.mkdir("/data/a"))
    bed.run(k0.mkdir("/data/b"))
    _write(bed, k0, "/data/a/crashed-shard", b"survives")
    _write(bed, k1, "/data/b/healthy-shard", b"steady")
    # flush the delayed writes: the crash must test failover routing,
    # not the (documented) durability window of unflushed dirty blocks
    bed.run(k0.sync())
    bed.run(k1.sync())
    assert bed.boot_epochs() == [0, 0]

    bed.crash_shard(0)
    _wait(bed, 1.0)
    bed.reboot_shard(0)
    _wait(bed, 1.0)

    # the crashed shard's clients reclaim and carry on ...
    assert _read(bed, k1, "/data/a/crashed-shard") == b"survives"
    # ... while the healthy shard never power-cycled or stalled
    assert _read(bed, k0, "/data/b/healthy-shard") == b"steady"
    assert bed.boot_epochs() == [1, 0]
    bed.final_checks()
    assert bed.oracle.summary() == {}


def test_sharded_scaling_shrinks_sim_time():
    # identical work (same clients, same iterations) across more shard
    # servers must finish in less simulated time — the server CPU is
    # the bottleneck the shards split
    from repro.experiments.scaling import sharded_point

    _, sim_1 = sharded_point("snfs", 1, 12, iterations=2, seed=5)
    _, sim_4 = sharded_point("snfs", 4, 12, iterations=2, seed=5)
    assert sim_1 > 1.8 * sim_4


def test_mount_table_validates_width():
    from repro.proto import ShardMap
    from repro.vfs import MountTable

    with pytest.raises(ValueError):
        MountTable(ShardMap(3), mounts=[object(), object()])
