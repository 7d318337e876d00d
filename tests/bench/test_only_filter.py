"""Tests for the ``--only SCENARIO`` bench filter."""

from repro.bench.workloads import run_workload_suite


def test_workloads_only_fnmatch_pattern():
    results = run_workload_suite(only="andrew-2client-n*")
    assert [r["name"] for r in results] == ["andrew-2client-nfs"]


def test_workloads_only_no_match_runs_nothing():
    # the filter decides before the scenario runs, so a progress probe
    # plus an impossible pattern proves nothing executed
    ran = []
    results = run_workload_suite(
        progress=lambda *row: ran.append(row), only="no-such-scenario",
    )
    assert results == []
    assert ran == []
