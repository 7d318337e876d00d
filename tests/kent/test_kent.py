"""Tests for the block-granularity consistency scheme (§2.5)."""

import pytest

from repro.experiments.sort import SORT_SIZES, run_sort
from repro.fs import OpenMode
from repro.host import Host, HostConfig
from repro.kent import KPROC, KentClient, KentServer
from repro.net import Network


class KentWorld:
    def __init__(self, runner, n_clients=2):
        sim = runner.sim
        self.runner = runner
        self.network = Network(sim)
        self.server_host = Host(sim, self.network, "server", HostConfig.titan_server())
        self.export = self.server_host.add_local_fs("/export", fsid="exportfs")
        self.server = KentServer(self.server_host, self.export)
        self.clients = []
        self.mounts = []
        for i in range(n_clients):
            host = Host(sim, self.network, "client%d" % i, HostConfig.titan_client())
            client = KentClient("k%d" % i, host, "server")
            runner.run(client.attach())
            host.kernel.mount("/data", client)
            self.clients.append(host)
            self.mounts.append(client)

    def rpc(self, proc, i=0):
        return self.clients[i].rpc.client_stats.get(proc)


@pytest.fixture
def world(runner):
    return KentWorld(runner)


def write_file(k, path, data, offset=0):
    fd = yield from k.open(path, OpenMode.WRITE, create=True)
    k.lseek(fd, offset)
    yield from k.write(fd, data)
    yield from k.close(fd)


def read_file(k, path, n=1 << 20, offset=0):
    fd = yield from k.open(path, OpenMode.READ)
    k.lseek(fd, offset)
    data = yield from k.read(fd, n)
    yield from k.close(fd)
    return data


def test_roundtrip(runner, world):
    k = world.clients[0].kernel

    def scenario():
        yield from write_file(k, "/data/f", b"block tokens!")
        data = yield from read_file(k, "/data/f")
        return data

    assert runner.run(scenario()) == b"block tokens!"


def test_writes_are_delayed_under_exclusive_tokens(runner, world):
    k = world.clients[0].kernel

    def scenario():
        yield from write_file(k, "/data/f", b"d" * 4096 * 3)

    runner.run(scenario())
    assert world.rpc(KPROC.WRITE) == 0  # delayed: nothing written through
    assert world.clients[0].cache.dirty_count() == 3
    assert world.rpc(KPROC.ACQUIRE) == 3  # one token per block


def test_token_reuse_needs_no_further_rpcs(runner, world):
    k = world.clients[0].kernel

    def scenario():
        yield from write_file(k, "/data/f", b"x" * 4096)
        first = world.rpc(KPROC.ACQUIRE)
        for _ in range(5):
            yield from write_file(k, "/data/f", b"y" * 4096)
            yield from read_file(k, "/data/f")
        return first

    first = runner.run(scenario())
    assert world.rpc(KPROC.ACQUIRE) == first  # token cached across opens


def test_reader_downgrades_writer_and_sees_data(runner, world):
    k0 = world.clients[0].kernel
    k1 = world.clients[1].kernel

    def scenario():
        yield from write_file(k0, "/data/f", b"OWNED" * 900)  # ~4.4 KB dirty
        data = yield from read_file(k1, "/data/f")
        return data

    data = runner.run(scenario())
    assert data == b"OWNED" * 900
    # the revoke forced client 0's write-back
    assert world.rpc(KPROC.WRITE, i=0) > 0
    assert world.server_host.rpc.client_stats.get(KPROC.REVOKE) >= 1


def test_writer_invalidates_reader(runner, world):
    k0 = world.clients[0].kernel
    k1 = world.clients[1].kernel

    def scenario():
        yield from write_file(k0, "/data/f", b"A" * 4096)
        d1 = yield from read_file(k1, "/data/f")
        yield from write_file(k0, "/data/f", b"B" * 4096)
        d2 = yield from read_file(k1, "/data/f")
        return d1, d2

    d1, d2 = runner.run(scenario())
    assert d1 == b"A" * 4096
    assert d2 == b"B" * 4096


def test_disjoint_block_write_sharing_stays_cached(runner, world):
    """The case SNFS surrenders: two clients write different blocks of
    one file concurrently.  Block tokens keep both caching (delayed
    writes!) with no revocation ping-pong."""
    k0 = world.clients[0].kernel
    k1 = world.clients[1].kernel

    def actor(k, offset, stamp):
        fd = yield from k.open("/data/shared", OpenMode.WRITE, create=True)
        for round_no in range(10):
            k.lseek(fd, offset)
            yield from k.write(fd, stamp * 4096)
            k.lseek(fd, offset)
            data = yield from k.read(fd, 4096)
            assert bytes(data) == stamp * 4096
            yield runner.sim.timeout(0.5)
        yield from k.close(fd)

    runner.run_all(
        actor(k0, 0, b"0"),
        actor(k1, 8192, b"1"),
    )
    # each client acquired its own block once; no revokes were needed
    # (block 0 for client0; block 2 for client1; plus read tokens)
    assert world.server_host.rpc.client_stats.get(KPROC.REVOKE) <= 2
    # and the delayed writes stayed delayed
    assert world.rpc(KPROC.WRITE, i=0) == 0
    assert world.rpc(KPROC.WRITE, i=1) == 0


def test_same_block_contention_serializes_correctly(runner, world):
    """Interleaved writes to one block: the token bounces, data stays
    coherent (last writer wins at every observation point)."""
    k0 = world.clients[0].kernel
    k1 = world.clients[1].kernel
    observed = []

    def writer(k, stamp, delay):
        yield runner.sim.timeout(delay)
        fd = yield from k.open("/data/hot", OpenMode.WRITE, create=True)
        for i in range(5):
            yield from runner_write(k, fd, stamp)
            yield runner.sim.timeout(1.0)
        yield from k.close(fd)

    def runner_write(k, fd, stamp):
        k.lseek(fd, 0)
        yield from k.write(fd, stamp * 64)

    def reader():
        yield runner.sim.timeout(4.0)
        for _ in range(4):
            data = yield from read_file(k0, "/data/hot", n=64)
            blob = bytes(data)
            if blob:
                observed.append(blob)
                assert blob in (b"X" * 64, b"Y" * 64), blob  # never torn
            yield runner.sim.timeout(1.0)

    runner.run_all(writer(k0, b"X", 0.0), writer(k1, b"Y", 0.4), reader())
    assert observed  # the reader genuinely sampled
    assert world.server_host.rpc.client_stats.get(KPROC.REVOKE) >= 2


def test_delete_cancels_and_releases(runner, world):
    k = world.clients[0].kernel

    def scenario():
        yield from write_file(k, "/data/tmp", b"t" * 8192)
        yield from k.unlink("/data/tmp")

    runner.run(scenario())
    assert world.rpc(KPROC.WRITE) == 0  # delete-before-writeback again
    assert world.clients[0].cache.dirty_count() == 0
    assert len(world.mounts[0]._tokens) == 0


@pytest.mark.parametrize("size", SORT_SIZES)
def test_sort_reads_back_what_it_wrote_under_cache_pressure(size):
    # the largest sort evicts dirty blocks mid-file: the write-back's
    # reply carries a server size short of the client's, which must not
    # shrink the local size while later dirty blocks remain
    assert run_sort("kent", size).output_ok
