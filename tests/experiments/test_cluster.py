"""Tests for the testbed builder and measurement plumbing."""

import pytest

from repro.fs import OpenMode
from repro.experiments import build_testbed
from repro.experiments.cluster import PROTOCOLS
from repro.experiments.window import Window


def write_read(bed, path, data):
    k = bed.client.kernel

    def scenario():
        fd = yield from k.open(path, OpenMode.WRITE, create=True)
        yield from k.write(fd, data)
        yield from k.close(fd)
        fd = yield from k.open(path, OpenMode.READ)
        got = yield from k.read(fd, 1 << 20)
        yield from k.close(fd)
        return got

    return bed.run(scenario())


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_protocol_builds_and_works(protocol):
    bed = build_testbed(protocol)
    assert write_read(bed, "/data/f", b"hello") == b"hello"
    assert write_read(bed, "/tmp/t", b"temp") == b"temp"
    assert write_read(bed, "/input/i", b"input") == b"input"


def test_remote_tmp_routes_to_server():
    bed = build_testbed("snfs", remote_tmp=True)
    before = bed.client.rpc.client_stats.total()
    write_read(bed, "/tmp/t", b"x")
    assert bed.client.rpc.client_stats.total() > before


def test_local_tmp_stays_off_the_network():
    bed = build_testbed("snfs", remote_tmp=False)
    before = bed.client.rpc.client_stats.total()
    write_read(bed, "/tmp/t", b"x")
    assert bed.client.rpc.client_stats.total() == before


def test_local_protocol_has_no_server():
    bed = build_testbed("local")
    assert bed.server_host is None
    assert bed.server is None
    window = Window(bed)
    assert window.disk_stats(window.server_hosts) == {}
    assert window.rpc_rows() == {}


def test_client_rpc_rows_exclude_mount_traffic():
    """A window opened on a fresh bed has seen nothing, although the
    client's counters already hold the mount and the mount-time lookups
    of ``data``/``tmp`` (which the old ``client_rpc_rows`` reported)."""
    for protocol in PROTOCOLS:
        for remote_tmp in (False, True):
            bed = build_testbed(protocol, remote_tmp=remote_tmp)
            window = Window(bed)
            assert window.wire_calls() == 0 and window.calls() == {}
            assert window.rpc_rows().get("total", 0) == 0
            if protocol != "local":
                setup = bed.client.rpc.client_stats
                assert setup[protocol + ".mnt"] == 1
                assert setup[protocol + ".lookup"] == (2 if remote_tmp else 1)


@pytest.mark.parametrize("protocol", [p for p in PROTOCOLS if p != "local"])
def test_window_counts_equal_the_hand_count(protocol):
    """After a known open/write/close + open/read/close the window holds
    exactly what the client's counters gained, by name."""
    bed = build_testbed(protocol)
    before = dict(bed.client.rpc.client_stats)
    window = Window(bed)
    write_read(bed, "/data/f", b"hello")
    after = bed.client.rpc.client_stats
    gained = {p: n - before.get(p, 0) for p, n in after.items() if n != before.get(p, 0)}
    assert gained and not any(p.endswith((".mnt", ".retransmit")) for p in gained)
    assert window.calls() == gained
    assert window.wire_calls() == sum(gained.values()) + window.pushes()
    rows = window.rpc_rows()
    assert rows["total"] == window.wire_calls()
    assert rows["write"] == gained.get(protocol + ".write", 0)
    assert sum(rows.values()) == 2 * rows["total"]  # every call is in one row


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        build_testbed("afs")


def test_run_propagates_workload_errors():
    bed = build_testbed("local")

    def bad():
        yield bed.sim.timeout(0.1)
        raise RuntimeError("workload broke")

    with pytest.raises(RuntimeError, match="workload broke"):
        bed.run(bad())


def test_run_all_concurrent_workloads():
    bed = build_testbed("snfs")
    k = bed.client.kernel

    def one(i):
        fd = yield from k.open("/data/f%d" % i, OpenMode.WRITE, create=True)
        yield from k.write(fd, b"x")
        yield from k.close(fd)
        return i

    results = bed.run_all(one(0), one(1), one(2))
    assert results == [0, 1, 2]


def test_update_daemons_can_be_disabled():
    bed = build_testbed("snfs", update_daemons=False)
    assert not bed.client.update_daemon.running
    bed2 = build_testbed("snfs", update_daemons=True)
    assert bed2.client.update_daemon.running
