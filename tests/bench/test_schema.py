"""Tests for the BENCH_*.json schema builder, validator, and the CI
regression gate."""

import json
import os

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    bench_document,
    compare_to_baseline,
    validate_bench_document,
)
from repro.document import write_json


def _scenario(name="s", rate=1000, digest=None):
    return {
        "name": name,
        "params": {"n": 10},
        "ops": 100,
        "sim_seconds": 1.0,
        "wall_seconds": 0.1,
        "events_per_sec": rate,
        "trace_digest": digest,
    }


def test_bench_document_shape():
    doc = bench_document("engine", [_scenario()], quick=True)
    assert doc["schema"] == BENCH_SCHEMA
    assert doc["suite"] == "engine"
    assert doc["quick"] is True
    assert "python" in doc["host"]
    assert validate_bench_document(doc) == []


def test_validator_catches_problems():
    doc = bench_document("engine", [_scenario()], quick=False)
    doc["schema"] = "bogus/9"
    assert any("schema" in p for p in validate_bench_document(doc))

    doc = bench_document("neither", [_scenario()], quick=False)
    assert any("suite" in p for p in validate_bench_document(doc))

    bad = _scenario()
    del bad["ops"]
    doc = bench_document("engine", [bad], quick=False)
    assert any("ops" in p for p in validate_bench_document(doc))

    doc = bench_document("engine", [_scenario("a"), _scenario("a")], quick=False)
    assert any("duplicate" in p for p in validate_bench_document(doc))

    doc = bench_document("engine", [_scenario(digest="tooshort")], quick=False)
    assert any("trace_digest" in p for p in validate_bench_document(doc))

    doc = bench_document("engine", [_scenario(digest="a" * 64)], quick=False)
    assert validate_bench_document(doc) == []

    doc = bench_document("engine", [], quick=False)
    assert any("scenarios" in p for p in validate_bench_document(doc))


def test_each_suite_names_its_rate_for_what_it_counts():
    # an engine scenario's ops are scheduler events; a workload
    # scenario's are RPCs and disk transfers, and its rate says so
    from repro.bench import RATE_KEY

    assert RATE_KEY == {"engine": "events_per_sec", "workloads": "ops_per_wall_s"}
    workload = _scenario()
    workload["ops_per_wall_s"] = workload.pop("events_per_sec")
    assert validate_bench_document(bench_document("workloads", [workload])) == []
    assert validate_bench_document(bench_document("engine", [_scenario()])) == []
    # under the other suite's name it is missing
    problems = validate_bench_document(bench_document("workloads", [_scenario()]))
    assert problems == ["scenarios[0] missing 'ops_per_wall_s'"]
    problems = validate_bench_document(bench_document("engine", [workload]))
    assert problems == ["scenarios[0] missing 'events_per_sec'"]
    # and the gate compares the suite's own rate
    slow = dict(workload, ops_per_wall_s=500)
    ok, lines = compare_to_baseline(
        bench_document("workloads", [slow]), bench_document("workloads", [workload])
    )
    assert not ok and "REGRESSION" in lines[0]


def test_parallel_block_is_optional_and_validated():
    block = {
        "jobs": 2,
        "cells": [{"name": "s", "kind": "bench-engine", "wall_seconds": 0.1}],
        "total_wall_seconds": 0.1,
        "serial_cell_seconds": 0.1,
        "speedup": 1.0,
    }
    doc = bench_document("engine", [_scenario()], quick=True, parallel=block)
    assert doc["parallel"] == block
    assert validate_bench_document(doc) == []
    # absent block stays absent (serial artifacts unchanged byte-for-byte)
    plain = bench_document("engine", [_scenario()], quick=True)
    assert "parallel" not in plain

    bad = json.loads(json.dumps(doc))
    bad["parallel"]["jobs"] = 0
    assert any("jobs" in p for p in validate_bench_document(bad))
    bad = json.loads(json.dumps(doc))
    bad["parallel"]["cells"] = [{"kind": "bench-engine"}]
    assert any("cells" in p for p in validate_bench_document(bad))
    bad = json.loads(json.dumps(doc))
    bad["parallel"]["speedup"] = "fast"
    assert any("speedup" in p for p in validate_bench_document(bad))


def test_wall_seconds_repeats_is_optional_but_typed():
    sc = _scenario()
    sc["wall_seconds_repeats"] = [0.1, 0.2, 0.3]
    doc = bench_document("engine", [sc], quick=False)
    assert validate_bench_document(doc) == []
    sc = _scenario()
    sc["wall_seconds_repeats"] = "not-a-list"
    doc = bench_document("engine", [sc], quick=False)
    assert any("wall_seconds_repeats" in p for p in validate_bench_document(doc))


def test_engine_cell_records_median_of_repeats():
    from repro.bench import run_engine_cell

    cell = run_engine_cell("event-pingpong", quick=True, repeats=3)
    import statistics

    repeats = cell["wall_seconds_repeats"]
    assert len(repeats) == 3
    # rounding is monotonic, so the median of the rounded repeats is the
    # rounded raw median the cell reports
    assert cell["wall_seconds"] == statistics.median(repeats)
    assert cell["events_per_sec"] == pytest.approx(
        cell["ops"] / cell["wall_seconds"], rel=1e-3
    )


def test_sweep_scenarios_present_in_full_suite_only():
    from repro.bench.workloads import SWEEP_NS, _scenarios

    full_names = [s["name"] for s in _scenarios(quick=False)]
    quick_names = [s["name"] for s in _scenarios(quick=True)]
    for n in SWEEP_NS:
        assert "sweep-n%d" % n in full_names
        assert "sweep-n%d" % n not in quick_names
    # --n 10000 style opt-ins ride as extra scenarios without digests
    extra = [s for s in _scenarios(quick=False, extra_ns=(10000,))
             if s["name"] == "sweep-n10000"]
    assert len(extra) == 1
    assert extra[0]["digest"] is None
    assert extra[0]["params"]["n_clients"] == 10000


def test_compare_to_baseline_gate():
    base = bench_document("engine", [_scenario("a", 1000), _scenario("b", 1000)])
    # within tolerance: ok
    fresh = bench_document("engine", [_scenario("a", 850), _scenario("b", 1200)])
    ok, lines = compare_to_baseline(fresh, base, tolerance=0.20)
    assert ok
    assert len(lines) == 2
    # beyond tolerance: regression
    fresh = bench_document("engine", [_scenario("a", 700), _scenario("b", 1000)])
    ok, lines = compare_to_baseline(fresh, base, tolerance=0.20)
    assert not ok
    assert any("REGRESSION" in line for line in lines)


def test_compare_reports_new_and_missing_scenarios_non_fatally():
    base = bench_document("engine", [_scenario("old", 1000)])
    fresh = bench_document("engine", [_scenario("new", 1000)])
    ok, lines = compare_to_baseline(fresh, base, tolerance=0.20)
    assert ok  # suites may grow/shrink without failing the gate
    assert any("new scenario" in line for line in lines)
    assert any("missing" in line for line in lines)


def test_compare_gates_the_schedule_digests():
    same, other = "a" * 64, "b" * 64
    base = bench_document(
        "engine", [_scenario("kept", digest=same), _scenario("undigested")]
    )
    # match, a digest on one side only, a scenario the baseline lacks: ok
    fresh = bench_document(
        "engine",
        [
            _scenario("kept", digest=same),
            _scenario("undigested", digest=other),
            _scenario("added", digest=other),
        ],
    )
    ok, lines = compare_to_baseline(fresh, base)
    assert ok and not any("SCHEDULE CHANGED" in line for line in lines)
    assert any("added" in line and "new scenario" in line for line in lines)
    # mismatch: fails on its own line even though the rate is fine
    fresh = bench_document("engine", [_scenario("kept", rate=2000, digest=other)])
    ok, lines = compare_to_baseline(fresh, base)
    assert not ok
    changed = [line for line in lines if "SCHEDULE CHANGED" in line]
    assert len(changed) == 1 and changed[0].startswith("kept")
    assert any("kept" in line and line.endswith(" ok") for line in lines)


def test_write_bench_document_is_deterministic(tmp_path):
    doc = bench_document("engine", [_scenario()], quick=True)
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    write_json(doc, p1)
    write_json(doc, p2)
    b1, b2 = open(p1).read(), open(p2).read()
    assert b1 == b2
    assert b1.endswith("\n")
    assert json.loads(b1) == doc


def test_committed_bench_documents_are_valid():
    root = os.path.join(os.path.dirname(__file__), "..", "..")
    for fname, suite in (
        ("BENCH_engine.json", "engine"),
        ("BENCH_workloads.json", "workloads"),
    ):
        path = os.path.join(root, fname)
        if not os.path.exists(path):
            pytest.fail("%s is not committed at the repo root" % fname)
        with open(path) as fh:
            doc = json.load(fh)
        assert validate_bench_document(doc) == [], fname
        assert doc["suite"] == suite
