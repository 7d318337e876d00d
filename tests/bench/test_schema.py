"""Tests for the BENCH_workloads.json schema builder, validator, and the
exact ``--check`` gate."""

import copy
import json
import os
from argparse import Namespace
from types import SimpleNamespace

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    bench_document,
    compare_to_baseline,
    validate_bench_document,
)
from repro.document import write_json

COMMITTED = os.path.join(os.path.dirname(__file__), "..", "..", "BENCH_workloads.json")


def _scenario(name="s", ops=100, sim_seconds=1.0):
    return {"name": name, "params": {"n": 10}, "ops": ops, "sim_seconds": sim_seconds}


def _committed():
    with open(COMMITTED) as fh:
        return json.load(fh)


def test_bench_document_shape():
    doc = bench_document([_scenario()])
    assert doc == {"schema": BENCH_SCHEMA, "scenarios": [_scenario()]}
    assert BENCH_SCHEMA == "repro-bench/2"
    assert validate_bench_document(doc) == []


def test_validator_catches_problems():
    doc = bench_document([_scenario()])
    doc["schema"] = "repro-bench/1"
    assert any("schema" in p for p in validate_bench_document(doc))

    for field in ("ops", "sim_seconds", "params"):
        bad = _scenario()
        del bad[field]
        assert any(field in p for p in validate_bench_document(bench_document([bad])))

    bad = _scenario()
    bad["ops"] = 1.5
    assert any("ops" in p for p in validate_bench_document(bench_document([bad])))

    doc = bench_document([_scenario("a"), _scenario("a")])
    assert any("duplicate" in p for p in validate_bench_document(doc))

    assert any("scenarios" in p for p in validate_bench_document(bench_document([])))


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


def test_sweep_scenarios_are_opt_in():
    from repro.bench.workloads import WORKLOAD_SCENARIOS, _scenarios

    assert len(WORKLOAD_SCENARIOS) == 22
    assert not any(name.startswith("sweep-") for name in WORKLOAD_SCENARIOS)
    # --n 10000 style opt-ins ride as extra scenarios
    extra = [s for s in _scenarios(extra_ns=(10000,)) if s["name"] == "sweep-n10000"]
    assert len(extra) == 1
    assert extra[0]["params"] == {"protocol": "snfs", "n_clients": 10000, "iterations": 1}


def test_compare_to_baseline_gate():
    base = bench_document([_scenario("a"), _scenario("b")])
    ok, lines = compare_to_baseline(copy.deepcopy(base), base)
    assert ok
    assert [line.split() for line in lines] == [["a", "ok"], ["b", "ok"]]
    fresh = bench_document([_scenario("a"), dict(_scenario("b"), params={"n": 11})])
    ok, lines = compare_to_baseline(fresh, base)
    assert not ok
    assert lines[1].startswith("b") and "params" in lines[1] and lines[1].endswith("CHANGED")


def test_check_fails_on_changed_ops_or_sim_seconds():
    # a model change shows as simulated work or time, whatever a wall
    # clock said: one op, or one microsecond, fails the gate
    fresh = _committed()
    assert compare_to_baseline(fresh, _committed()) == (
        True, ["%-24s ok" % s["name"] for s in fresh["scenarios"]],
    )
    for field, delta in (("ops", 1), ("sim_seconds", 1e-6)):
        baseline = _committed()
        row = baseline["scenarios"][-1]
        row[field] += delta
        ok, lines = compare_to_baseline(fresh, baseline)
        assert not ok
        (changed,) = [line for line in lines if line.endswith("CHANGED")]
        assert changed.startswith(row["name"]) and field in changed


def test_compare_reports_new_and_missing_scenarios_non_fatally():
    base = bench_document([_scenario("old")])
    fresh = bench_document([_scenario("new")])
    ok, lines = compare_to_baseline(fresh, base)
    assert ok  # --only runs a subset; suites may grow
    assert any("new scenario" in line for line in lines)
    assert any("missing" in line for line in lines)


def test_bench_cli_checks_what_it_wrote(tmp_path, capsys):
    from repro.bench.cli import run_bench

    baseline = _committed()
    path = str(tmp_path / "baseline.json")
    write_json(baseline, path)
    args = Namespace(
        out=str(tmp_path), check=path, only="andrew-2client-nfs", jobs=1, n=None
    )
    assert run_bench(args) == 0
    with open(tmp_path / "BENCH_workloads.json") as fh:
        assert json.load(fh)["scenarios"] == baseline["scenarios"][:1]
    baseline["scenarios"][0]["ops"] += 1
    write_json(baseline, path)
    assert run_bench(args) == 1
    assert "andrew-2client-nfs       ops 825 differs from baseline 826 CHANGED" in (
        capsys.readouterr().out
    )


def test_write_bench_document_is_deterministic(tmp_path):
    doc = bench_document([_scenario()])
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    write_json(doc, p1)
    write_json(doc, p2)
    b1, b2 = open(p1).read(), open(p2).read()
    assert b1 == b2
    assert b1.endswith("\n")
    assert json.loads(b1) == doc


def test_committed_bench_documents_are_valid():
    if not os.path.exists(COMMITTED):
        pytest.fail("BENCH_workloads.json is not committed at the repo root")
    doc = _committed()
    assert validate_bench_document(doc) == []
    # only simulated quantities: no wall clock, rate or host in the file
    assert "wall" not in json.dumps(doc) and "host" not in doc
    assert all(set(s) == {"name", "params", "ops", "sim_seconds"} for s in doc["scenarios"])
