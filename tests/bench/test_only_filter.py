"""Tests for the ``--only SCENARIO`` bench filter."""

from repro.bench.engine_bench import run_engine_suite
from repro.bench.workloads import run_workload_suite


def test_engine_only_exact_name():
    results = run_engine_suite(quick=True, repeats=1, only="timeout-chain")
    assert [r["name"] for r in results] == ["timeout-chain"]


def test_engine_only_fnmatch_pattern():
    results = run_engine_suite(quick=True, repeats=1, only="timer-*")
    assert [r["name"] for r in results] == ["timer-fan"]


def test_engine_only_no_match_is_empty():
    assert run_engine_suite(quick=True, repeats=1, only="no-such-*") == []


def test_workloads_only_no_match_runs_nothing():
    # the filter decides before the scenario runs, so a progress probe
    # plus an impossible pattern proves nothing executed
    ran = []
    results = run_workload_suite(
        quick=True, pool_progress=lambda *row: ran.append(row),
        only="no-such-scenario",
    )
    assert results == []
    assert ran == []
