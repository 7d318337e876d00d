"""Smoke tests for the benchmark bodies themselves: deterministic op
counts, stable golden schedule digests, the engine calibration cell and
the cluster load point."""

import json
import os
from types import SimpleNamespace

import pytest

from repro.bench import ENGINE_SCENARIOS, compute_trace_digests
from repro.experiments.scaling import cluster_point
from repro.sim import Simulator

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


@pytest.mark.parametrize("name", sorted(ENGINE_SCENARIOS))
def test_engine_scenario_ops_are_arithmetic(name):
    body, _full_n, _quick_n, digest_n = ENGINE_SCENARIOS[name]
    ops1 = body(Simulator(), digest_n, None)
    ops2 = body(Simulator(), digest_n, None)
    assert ops1 == ops2 > 0


def _engine_digest(name):
    (digest,) = compute_trace_digests(["engine-" + name])["engine-" + name]
    return digest


@pytest.mark.parametrize("name", sorted(ENGINE_SCENARIOS))
def test_engine_schedule_digest_is_stable(name):
    d1 = _engine_digest(name)
    d2 = _engine_digest(name)
    assert d1 == d2
    assert len(d1) == 64


def test_engine_scenario_digests_are_distinct():
    digests = {name: _engine_digest(name) for name in ENGINE_SCENARIOS}
    assert len(set(digests.values())) == len(digests)


def test_sleep_chain_observes_the_schedule_of_timeout_chain():
    # ``yield d`` must show a process what ``yield sim.timeout(d)`` shows
    # it; the two digests cannot say so themselves (the name salts them).
    # The entries differ on purpose: a sleep's heap entry is its resume.
    observed, entries = {}, {}
    for name in ("timeout-chain", "sleep-chain"):
        body, _full_n, _quick_n, digest_n = ENGINE_SCENARIOS[name]
        sim = Simulator()
        observed[name] = []
        body(sim, digest_n, observed[name])
        entries[name] = next(sim._counter)
    assert observed["sleep-chain"] == observed["timeout-chain"]
    assert len(observed["sleep-chain"]) == digest_n
    assert entries == {
        "timeout-chain": 1 + 2 * digest_n, "sleep-chain": 1 + digest_n,
    }


def test_hold_chain_is_one_entry_per_uncontended_hold():
    body, _full_n, _quick_n, digest_n = ENGINE_SCENARIOS["hold-chain"]
    sim = Simulator()
    body(sim, digest_n, None)
    assert next(sim._counter) == 1 + digest_n


def test_engine_cell_records_median_of_repeats(monkeypatch):
    from repro.bench import engine_bench, run_engine_cell

    # three repeats of 0.3, 0.1 and 0.2 s: the median, not the best or
    # the mean, is what a noisy neighbor cannot swing
    clock = iter([0.0, 0.3, 1.0, 1.1, 2.0, 2.2])
    monkeypatch.setattr(
        engine_bench, "time", SimpleNamespace(perf_counter=lambda: next(clock))
    )
    cell = run_engine_cell("event-pingpong", quick=True, repeats=3)
    assert cell == {
        "name": "event-pingpong",
        "params": {"n": 10_000, "repeats": 3},
        "ops": 40_000,
        "wall_seconds": 0.2,
    }


def test_cluster_point_runs_every_protocol_small():
    for protocol in ("nfs", "snfs", "rfs", "kent", "lease"):
        bed, sim_seconds = cluster_point(protocol, 2, iterations=1)
        assert sim_seconds > 0
        assert bed.total_rpcs() > 0
        assert len(bed.client_hosts) == 2


def test_cluster_point_is_deterministic():
    a = cluster_point("snfs", 3, iterations=1)
    b = cluster_point("snfs", 3, iterations=1)
    assert a[1] == b[1]
    assert a[0].total_rpcs() == b[0].total_rpcs()


def test_bench_history_is_one_parseable_row_per_perf_pr():
    path = os.path.join(ROOT, "BENCH_history.jsonl")
    with open(path) as fh:
        rows = [json.loads(line) for line in fh]
    assert [row["pr"] for row in rows] == sorted({row["pr"] for row in rows})
    assert all(row["harness"] and row["seeds"] for row in rows)
