"""Smoke tests for the benchmark suites themselves: deterministic op
counts, stable schedule digests, and the quick workload path."""

import json
import os

import pytest

from repro.bench import ENGINE_SCENARIOS
from repro.bench.engine_bench import _schedule_digest
from repro.bench.workloads import cluster_point
from repro.sim import Simulator

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


@pytest.mark.parametrize("name", sorted(ENGINE_SCENARIOS))
def test_engine_scenario_ops_are_arithmetic(name):
    body, _full_n, _quick_n, digest_n = ENGINE_SCENARIOS[name]
    ops1 = body(Simulator(), digest_n, None)
    ops2 = body(Simulator(), digest_n, None)
    assert ops1 == ops2 > 0


@pytest.mark.parametrize("name", sorted(ENGINE_SCENARIOS))
def test_engine_schedule_digest_is_stable(name):
    body, _full_n, _quick_n, digest_n = ENGINE_SCENARIOS[name]
    d1 = _schedule_digest(name, body, digest_n)
    d2 = _schedule_digest(name, body, digest_n)
    assert d1 == d2
    assert len(d1) == 64


def test_engine_scenario_digests_are_distinct():
    digests = {
        name: _schedule_digest(name, body, digest_n)
        for name, (body, _f, _q, digest_n) in ENGINE_SCENARIOS.items()
    }
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


def test_committed_engine_digests_are_current():
    # what CI's --check gate compares, held in Tier-1 as well: a reorder
    # of same-instant entries changes a digest
    with open(os.path.join(ROOT, "BENCH_engine.json")) as fh:
        committed = {
            s["name"]: s["trace_digest"] for s in json.load(fh)["scenarios"]
        }
    current = {
        name: _schedule_digest(name, body, digest_n)
        for name, (body, _f, _q, digest_n) in ENGINE_SCENARIOS.items()
    }
    assert current == committed


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
    path = os.path.join(os.path.dirname(__file__), "..", "..", "BENCH_history.jsonl")
    with open(path) as fh:
        rows = [json.loads(line) for line in fh]
    assert [row["pr"] for row in rows] == sorted({row["pr"] for row in rows})
    assert all(row["harness"] and row["seeds"] for row in rows)
