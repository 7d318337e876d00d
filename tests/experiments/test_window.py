"""The measured window, the run memo, and ablations-as-rows."""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.experiments import ablations, andrew, memo, sort
from repro.experiments import build_bed, build_testbed, run_block_sharing
from repro.experiments.andrew import AndrewRun
from repro.experiments.memo import shared_run
from repro.experiments.sort import SortRun
from repro.experiments.window import Window, rpc_rows_table
from repro.fs import OpenMode


def _write(kernel, path, data):
    fd = yield from kernel.open(path, OpenMode.WRITE, create=True)
    yield from kernel.write(fd, data)
    yield from kernel.close(fd)


def _read(kernel, path):
    fd = yield from kernel.open(path, OpenMode.READ)
    data = yield from kernel.read(fd, 1 << 16)
    yield from kernel.close(fd)
    return data


# -- the window ----------------------------------------------------------------


def test_setup_is_not_workload_and_a_push_counts_once():
    """The blocksharing bug: mounts were counted, the server's callback
    was not.  A fresh two-client bed's window reports nothing while the
    counters hold both mounts; one forced callback is reported once."""
    bed = build_bed("snfs", 2, update_daemons=False)
    assert [h.rpc.client_stats["snfs.mnt"] for h in bed.client_hosts] == [1, 1]
    window = Window(bed)
    assert window.wire_calls() == 0 and window.pushes() == 0

    # client0 leaves delayed writes behind; client1's open makes the
    # server call client0 back for them
    bed.run(_write(bed.kernels[0], "/data/f", b"x" * 4096))
    assert window.pushes() == 0
    assert bed.run(_read(bed.kernels[1], "/data/f")) == b"x" * 4096
    assert bed.server_host.rpc.client_stats["snfs.callback"] == 1
    assert window.pushes() == 1
    rows = window.rpc_rows()
    assert rows["callback"] == 1
    assert rows["total"] == window.wire_calls() == sum(window.calls().values()) + 1
    assert not any(proc.endswith(".mnt") for proc in window.calls())


def test_block_sharing_cells():
    snfs, kent = run_block_sharing("snfs"), run_block_sharing("kent")
    assert (snfs.total_rpcs, snfs.data_rpcs) == (126, 117)
    assert (kent.total_rpcs, kent.data_rpcs) == (6, 0)


def test_windows_nest_and_zero_nothing():
    bed = build_testbed("nfs")
    outer = Window(bed)
    bed.run(_write(bed.client.kernel, "/data/a", b"a"))
    first = outer.wire_calls()
    inner = Window(bed)
    bed.run(_write(bed.client.kernel, "/data/b", b"b"))
    assert first > 0 and inner.wire_calls() > 0
    assert outer.wire_calls() == first + inner.wire_calls()
    assert outer.elapsed > inner.elapsed > 0
    assert bed.client.rpc.client_stats["nfs.mnt"] == 1  # nothing was reset


def test_disk_and_cpu_views():
    bed = build_testbed("nfs")
    bed.run(_write(bed.client.kernel, "/data/early", b"e" * 8192))
    window = Window(bed)
    assert window.disk_stats(window.server_hosts) == {}
    bed.run(_write(bed.client.kernel, "/data/late", b"l" * 8192))
    server_disk = window.disk_stats(window.server_hosts)
    assert server_disk["writes"] > 0
    disk = next(iter(bed.server_host.disks.values()))
    assert server_disk["writes"] < disk.stats["writes"]  # the early ones are outside
    assert window.disk_stats(window.client_hosts) == {}  # /data is remote
    assert 0 < window.utilization(disk) < 1
    assert 0 < window.utilization(bed.server_host.cpu) < 1


def test_call_log_is_the_window_slice_rebased():
    bed = build_testbed("nfs", keep_call_times=True)
    bed.run(_write(bed.client.kernel, "/data/early", b"e"))
    window = Window(bed)
    assert window.call_log() == []
    bed.run(_write(bed.client.kernel, "/data/late", b"l"))
    log = window.call_log()
    full = bed.server_host.rpc.call_log
    assert log and len(log) < len(full)
    assert log == [(t - window.t0, proc) for t, proc in full[-len(log):]]
    assert all(0 <= t <= window.elapsed for t, _ in log)
    assert len(log) == window.wire_calls()
    assert Window(build_testbed("nfs")).call_log() == []  # no log kept


def test_rpc_rows_table_lists_table_5_2s_rows():
    runs = [SimpleNamespace(label="A", rpc_rows={"read": 3, "total": 3}),
            SimpleNamespace(label="B", rpc_rows={})]
    lines = rpc_rows_table(runs, "T").splitlines()
    assert lines[0] == "T"
    assert [line.split()[0] for line in lines[3:]] == [
        "lookup", "read", "write", "getattr", "open", "close", "callback",
        "other", "total",
    ]
    assert lines[4].split() == ["read", "3", "0"]


# -- the memo ------------------------------------------------------------------


@pytest.fixture
def fresh_memo(monkeypatch):
    monkeypatch.setattr(memo, "_runs", {})
    monkeypatch.delenv("REPRO_TRACE", raising=False)


def test_shared_run_runs_each_configuration_once(fresh_memo, monkeypatch):
    calls = []

    def runner(a, b, tree=None, client_config=None):
        calls.append((a, b, tree, client_config))
        return object()

    first = shared_run(runner, "nfs", True)
    assert shared_run(runner, "nfs", True) is first
    # a keyword left at None is the default: the same run
    assert shared_run(runner, "nfs", True, tree=None, client_config=None) is first
    assert shared_run(runner, "nfs", False) is not first
    assert len(calls) == 2
    # an unhashable configuration is run, not shared
    config = {"knob": 1}
    a = shared_run(runner, "nfs", True, client_config=config)
    b = shared_run(runner, "nfs", True, client_config=config)
    assert a is not b and len(calls) == 4 and calls[-1][3] is config
    # under REPRO_TRACE every run brings its own tracer
    monkeypatch.setenv("REPRO_TRACE", "1")
    assert shared_run(runner, "nfs", True) is not first
    monkeypatch.setenv("REPRO_TRACE", "0")
    assert shared_run(runner, "nfs", True) is first


def test_shared_run_does_not_mask_a_runners_type_error(fresh_memo):
    def runner():
        raise TypeError("from inside the run")

    with pytest.raises(TypeError, match="from inside the run"):
        shared_run(runner)


@pytest.fixture
def counted_runs(fresh_memo, monkeypatch):
    """Stand-ins for ``run_sort``/``run_andrew`` that cost nothing and
    count how many times each configuration is really run."""
    ran = []

    def fake_sort(protocol, input_bytes, update_enabled, client_config=None):
        ran.append(("sort", protocol, input_bytes, update_enabled, client_config))
        result = SimpleNamespace(elapsed=float(len(ran)), temp_bytes_written=1024)
        return SortRun(protocol, protocol, input_bytes, update_enabled, result,
                       rpc_rows={"read": 1, "write": 2, "total": 3})

    def fake_andrew(protocol, remote_tmp, tree=None, bench_config=None, **config):
        ran.append(("andrew", protocol, remote_tmp, tree, config))
        result = SimpleNamespace(
            total=float(len(ran)), phase_seconds=dict.fromkeys(andrew.PHASES, 1.0)
        )
        return AndrewRun("", protocol, remote_tmp, result, rpc_rows={"lookup": 5})

    for module in (sort, ablations):
        monkeypatch.setattr(module, "run_sort", fake_sort)
    for module in (andrew, ablations):
        monkeypatch.setattr(module, "run_andrew", fake_andrew)
    monkeypatch.setattr(
        ablations, "_ELAPSED", {fake_sort: "elapsed", fake_andrew: "total"}
    )
    monkeypatch.setattr(
        ablations, "ablation_lease", lambda: ("Ablation 9 (skipped)", {})
    )
    return ran


def test_all_ablations_runs_thirteen_configurations_not_seventeen(counted_runs):
    text = ablations.all_ablations()
    titles = [line for line in text.splitlines() if line.startswith("Ablation")]
    assert [title.split(":")[0] for title in titles[:8]] == [
        "Ablation %d" % n for n in range(1, 9)
    ]
    assert len(counted_runs) == 13
    baselines = [run[:4] for run in counted_runs if not run[-1]]
    assert len(baselines) == len(set(baselines)) == 5  # each baseline once


def test_tables_and_ablations_share_their_runs(counted_runs):
    _, runs_5_1 = andrew.andrew_table_5_1()
    assert len(counted_runs) == 5
    table, runs_5_2 = andrew.andrew_table_5_2()
    assert len(counted_runs) == 5  # Table 5-2 is Table 5-1's four remote runs
    assert [r.label for r in runs_5_2] == [c[0] for c in andrew.ANDREW_CONFIGS[1:]]
    assert [r.result for r in runs_5_2] == [r.result for r in runs_5_1[1:]]
    assert "NFS tmp-local" in table.splitlines()[1]
    for build in (sort.sort_table_5_3, sort.sort_table_5_4, sort.sort_table_5_5,
                  sort.sort_table_5_6):
        build()
    assert len(counted_runs) == 5 + 12
    ablations.all_ablations()
    assert len(counted_runs) == 5 + 12 + 9  # 4 of the 13 were table cells
    # a caller's own tree is a configured variant: run, never shared
    tree = [object()]
    andrew.andrew_table_5_1(tree=tree)
    andrew.andrew_table_5_1(tree=tree)
    assert len(counted_runs) == 5 + 12 + 9 + 10


def test_relabelling_a_shared_run_leaves_the_shared_one_alone(counted_runs):
    _, runs = andrew.andrew_table_5_1()
    again = shared_run(andrew.run_andrew, "nfs", True)
    assert again.label == "" and runs[3].label == "NFS tmp-remote"
    assert dataclasses.replace(again, label="NFS tmp-remote") == runs[3]
