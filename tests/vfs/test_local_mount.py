"""Tests for the local-disk mount: delayed writes, cancellation, sync."""

import pytest

from repro.fs import NoSuchFile, OpenMode
from repro.net import Network
from repro.host import Host, HostConfig


@pytest.fixture
def host(runner):
    net = Network(runner.sim)
    h = Host(runner.sim, net, "machine")
    h.add_local_fs("/", fsid="rootfs")
    return h


def lfs_of(host):
    return host.kernel.mount_by_id("rootfs").lfs


def test_write_is_delayed_until_sync(runner, host):
    k = host.kernel

    def scenario():
        fd = yield from k.open("/f", OpenMode.WRITE, create=True)
        yield from k.write(fd, b"hello world")
        yield from k.close(fd)

    runner.run(scenario())
    lfs = lfs_of(host)
    writes_after_close = lfs.disk.stats.get("writes")
    assert host.cache.dirty_count() == 1  # data still only in cache

    runner.run(host.kernel.sync())
    assert host.cache.dirty_count() == 0
    assert lfs.disk.stats.get("writes") > writes_after_close


def test_read_back_through_cache(runner, host):
    k = host.kernel

    def scenario():
        fd = yield from k.open("/f", OpenMode.WRITE, create=True)
        yield from k.write(fd, b"abcdef")
        yield from k.close(fd)
        fd = yield from k.open("/f", OpenMode.READ)
        data = yield from k.read(fd, 100)
        yield from k.close(fd)
        return data

    assert runner.run(scenario()) == b"abcdef"


def test_delete_cancels_delayed_writes(runner, host):
    k = host.kernel
    lfs = lfs_of(host)

    def scenario():
        fd = yield from k.open("/tmpfile", OpenMode.WRITE, create=True)
        yield from k.write(fd, b"x" * 8192)
        yield from k.close(fd)
        yield from k.unlink("/tmpfile")

    runner.run(scenario())
    assert host.cache.stats.get("cancelled_writes") == 2
    # data blocks never reached the disk
    assert lfs.disk.stats.get("write_blocks") <= 4  # only metadata writes
    assert host.cache.dirty_count() == 0


def test_metadata_still_written_for_deleted_file(runner, host):
    """Table 5-5: even with cancelled data writes, structural info costs."""
    k = host.kernel
    lfs = lfs_of(host)
    before = lfs.disk.stats.get("writes")

    def scenario():
        fd = yield from k.open("/t", OpenMode.WRITE, create=True)
        yield from k.write(fd, b"x")
        yield from k.close(fd)
        yield from k.unlink("/t")

    runner.run(scenario())
    assert lfs.disk.stats.get("writes") > before


def test_fsync_flushes_one_file(runner, host):
    k = host.kernel

    def scenario():
        fd1 = yield from k.open("/a", OpenMode.WRITE, create=True)
        fd2 = yield from k.open("/b", OpenMode.WRITE, create=True)
        yield from k.write(fd1, b"a-data")
        yield from k.write(fd2, b"b-data")
        yield from k.fsync(fd1)
        yield from k.close(fd1)
        yield from k.close(fd2)

    runner.run(scenario())
    assert host.cache.dirty_count() == 1  # only /b remains dirty


def test_truncate_invalidates_cache(runner, host):
    k = host.kernel

    def scenario():
        fd = yield from k.open("/f", OpenMode.WRITE, create=True)
        yield from k.write(fd, b"Z" * 5000)
        yield from k.close(fd)
        yield from k.truncate("/f", 0)
        fd = yield from k.open("/f", OpenMode.READ)
        data = yield from k.read(fd, 100)
        yield from k.close(fd)
        return data

    assert runner.run(scenario()) == b""


def test_open_truncate_flag(runner, host):
    k = host.kernel

    def scenario():
        fd = yield from k.open("/f", OpenMode.WRITE, create=True)
        yield from k.write(fd, b"old contents")
        yield from k.close(fd)
        fd = yield from k.open("/f", OpenMode.WRITE, truncate=True)
        yield from k.write(fd, b"new")
        yield from k.close(fd)
        attr = yield from k.stat("/f")
        return attr.size

    assert runner.run(scenario()) == 3


def test_rename_replacing_file_cancels_victim_writes(runner, host):
    k = host.kernel

    def scenario():
        fd = yield from k.open("/victim", OpenMode.WRITE, create=True)
        yield from k.write(fd, b"doomed data")
        yield from k.close(fd)
        fd = yield from k.open("/source", OpenMode.WRITE, create=True)
        yield from k.write(fd, b"winner")
        yield from k.close(fd)
        yield from k.rename("/source", "/victim")
        fd = yield from k.open("/victim", OpenMode.READ)
        data = yield from k.read(fd, 100)
        yield from k.close(fd)
        return data

    assert runner.run(scenario()) == b"winner"


def test_update_daemon_flushes_periodically(runner, host):
    k = host.kernel
    host.update_daemon.start()

    def scenario():
        fd = yield from k.open("/f", OpenMode.WRITE, create=True)
        yield from k.write(fd, b"data")
        yield from k.close(fd)
        assert host.cache.dirty_count() == 1
        yield runner.sim.timeout(35)
        assert host.cache.dirty_count() == 0

    runner.run(scenario())
    host.update_daemon.stop()


def test_directory_operations_via_kernel(runner, host):
    k = host.kernel

    def scenario():
        yield from k.mkdir("/src")
        yield from k.mkdir("/src/sub")
        fd = yield from k.open("/src/sub/f.c", OpenMode.WRITE, create=True)
        yield from k.write(fd, b"int main(){}")
        yield from k.close(fd)
        names = yield from k.readdir("/src/sub")
        yield from k.unlink("/src/sub/f.c")
        yield from k.rmdir("/src/sub")
        remaining = yield from k.readdir("/src")
        return names, remaining

    names, remaining = runner.run(scenario())
    assert names == ["f.c"]
    assert remaining == []


def test_stat_and_fstat_agree(runner, host):
    k = host.kernel

    def scenario():
        fd = yield from k.open("/f", OpenMode.WRITE, create=True)
        yield from k.write(fd, b"12345")
        st1 = yield from k.fstat(fd)
        yield from k.close(fd)
        st2 = yield from k.stat("/f")
        return st1, st2

    st1, st2 = runner.run(scenario())
    assert st1.size == st2.size == 5


def test_unlink_missing_raises(runner, host):
    with pytest.raises(NoSuchFile):
        runner.run(host.kernel.unlink("/ghost"))


def test_lseek_and_partial_reads(runner, host):
    k = host.kernel

    def scenario():
        fd = yield from k.open("/f", OpenMode.WRITE, create=True)
        yield from k.write(fd, b"0123456789")
        yield from k.close(fd)
        fd = yield from k.open("/f", OpenMode.READ)
        k.lseek(fd, 4)
        data = yield from k.read(fd, 3)
        yield from k.close(fd)
        return data

    assert runner.run(scenario()) == b"456"


@pytest.mark.parametrize("op", ["lookup", "read", "write"])
def test_a_cold_inode_costs_one_metadata_read(runner, host, op):
    """lookup, read and write pay getattr's cold-metadata charge: one
    disk read the first time the inode is touched, none after."""
    k = host.kernel
    mount = k.mount_by_id("rootfs")
    lfs = mount.lfs

    def stage():
        fd = yield from k.open("/f", OpenMode.WRITE, create=True)
        yield from k.write(fd, b"x" * 100)
        yield from k.close(fd)
        yield from k.sync()  # the data block stays cached, clean

    runner.run(stage())
    g = runner.run(mount.lookup(mount.root(), "f"))
    lfs.crash_volatile()  # every inode but the root is cold again
    call = {
        "lookup": lambda: mount.lookup(mount.root(), "f"),
        "read": lambda: mount.read(g, 0, 100),
        "write": lambda: mount.write(g, 0, b"y"),
    }[op]
    before = lfs.disk.stats.get("reads")
    runner.run(call())
    assert lfs.disk.stats.get("reads") == before + 1
    runner.run(call())
    assert lfs.disk.stats.get("reads") == before + 1
