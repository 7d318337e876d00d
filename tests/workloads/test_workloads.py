"""Integration tests for the workloads on a local-disk host."""

import pytest

from repro.fs import OpenMode
from repro.host import Host
from repro.net import Network
from repro.workloads import (
    AndrewBenchmark,
    AndrewConfig,
    ExternalSort,
    SortConfig,
    make_input_records,
    make_tree,
)
from repro.workloads.sort import RECORD_LEN


@pytest.fixture
def host(runner):
    h = Host(runner.sim, Network(runner.sim), "machine")
    h.add_local_fs("/", fsid="rootfs")
    return h


def test_andrew_runs_all_phases(runner, host):
    k = host.kernel
    tree = make_tree(n_dirs=2, files_per_dir=4)  # small for speed
    bench = AndrewBenchmark(k, "/src", "/dst", "/tmpdir", tree=tree)

    def scenario():
        yield from k.mkdir("/src")
        yield from k.mkdir("/tmpdir")
        yield from bench.populate_source()
        result = yield from bench.run()
        return result

    result = runner.run(scenario())
    assert set(result.phase_seconds) == {
        "MakeDir", "Copy", "ScanDir", "ReadAll", "Make",
    }
    assert all(t >= 0 for t in result.phase_seconds.values())
    assert result.total > 0
    assert len(result.row()) == 6


def test_andrew_copy_produces_identical_tree(runner, host):
    k = host.kernel
    tree = make_tree(n_dirs=1, files_per_dir=3)
    bench = AndrewBenchmark(k, "/src", "/dst", "/tmpdir", tree=tree)

    def scenario():
        yield from k.mkdir("/src")
        yield from k.mkdir("/tmpdir")
        yield from bench.populate_source()
        yield from bench.phase_makedir()
        yield from bench.phase_copy()
        # verify one copied file byte-for-byte
        f = tree.files[0]
        fd = yield from k.open("/dst/" + f.path, OpenMode.READ)
        data = yield from k.read(fd, 1 << 20)
        yield from k.close(fd)
        return bytes(data), f.content

    got, expected = runner.run(scenario())
    assert got == expected


def test_andrew_make_deletes_temporaries(runner, host):
    k = host.kernel
    tree = make_tree(n_dirs=1, files_per_dir=3)
    bench = AndrewBenchmark(k, "/src", "/dst", "/tmpdir", tree=tree)

    def scenario():
        yield from k.mkdir("/src")
        yield from k.mkdir("/tmpdir")
        yield from bench.populate_source()
        yield from bench.phase_makedir()
        yield from bench.phase_copy()
        yield from bench.phase_make()
        leftovers = yield from k.readdir("/tmpdir")
        dst = yield from k.readdir("/dst/sub0")
        return leftovers, dst

    leftovers, dst = runner.run(scenario())
    assert leftovers == []  # every cc intermediate was deleted
    assert any(name.endswith(".o") for name in dst)


def test_andrew_make_emits_linked_binary(runner, host):
    k = host.kernel
    tree = make_tree(n_dirs=1, files_per_dir=2)
    bench = AndrewBenchmark(k, "/src", "/dst", "/tmpdir", tree=tree)

    def scenario():
        yield from k.mkdir("/src")
        yield from k.mkdir("/tmpdir")
        yield from bench.populate_source()
        result = yield from bench.run()
        attr = yield from k.stat("/dst/a.out")
        return attr.size

    assert runner.run(scenario()) > 0


def test_external_sort_produces_sorted_output(runner, host):
    k = host.kernel
    data = make_input_records(40 * RECORD_LEN)

    def scenario():
        yield from k.mkdir("/tmpdir")
        fd = yield from k.open("/unsorted", OpenMode.WRITE, create=True)
        yield from k.write(fd, data)
        yield from k.close(fd)
        sorter = ExternalSort(
            k, "/unsorted", "/sorted", "/tmpdir",
            config=SortConfig(run_bytes=8 * RECORD_LEN, merge_width=2),
        )
        result = yield from sorter.run()
        fd = yield from k.open("/sorted", OpenMode.READ)
        out = yield from k.read(fd, 1 << 20)
        yield from k.close(fd)
        leftovers = yield from k.readdir("/tmpdir")
        return result, bytes(out), leftovers

    result, out, leftovers = runner.run(scenario())
    records = [out[i:i + RECORD_LEN] for i in range(0, len(out), RECORD_LEN)]
    expected = sorted(data[i:i + RECORD_LEN] for i in range(0, len(data), RECORD_LEN))
    assert records == expected
    assert leftovers == []  # all temp runs deleted
    assert result.runs > 1  # genuinely external
    assert result.merge_passes >= 1
    assert result.temp_bytes_written > len(data)  # super-linear temps


def test_external_sort_single_run_no_merge(runner, host):
    k = host.kernel
    data = make_input_records(4 * RECORD_LEN)

    def scenario():
        yield from k.mkdir("/tmpdir")
        fd = yield from k.open("/unsorted", OpenMode.WRITE, create=True)
        yield from k.write(fd, data)
        yield from k.close(fd)
        sorter = ExternalSort(
            k, "/unsorted", "/sorted", "/tmpdir",
            config=SortConfig(run_bytes=1024 * 1024),
        )
        result = yield from sorter.run()
        return result

    result = runner.run(scenario())
    assert result.runs == 1
    assert result.merge_passes == 0


def test_external_sort_of_an_empty_input_writes_an_empty_output(runner, host):
    k = host.kernel

    def scenario():
        yield from k.mkdir("/tmpdir")
        fd = yield from k.open("/unsorted", OpenMode.WRITE, create=True)
        yield from k.close(fd)
        result = yield from ExternalSort(k, "/unsorted", "/sorted", "/tmpdir").run()
        attr = yield from k.stat("/sorted")
        leftovers = yield from k.readdir("/tmpdir")
        return result, attr.size, leftovers

    result, size, leftovers = runner.run(scenario())
    assert (result.runs, result.merge_passes, result.temp_bytes_written) == (0, 0, 0)
    assert size == 0
    assert leftovers == []
