"""The pooled golden regeneration/check path (``python -m repro golden``).

The real 55-cell sweep takes tens of seconds, so these tests shrink the golden
scenario registries to fast fakes and exercise the mechanics: write,
re-check, drift detection, and the refuse-to-write-partial rule.
"""

import json

import pytest

from repro.bench import check_golden, run_golden, write_golden
from repro.bench import golden as golden_mod


@pytest.fixture()
def tiny_registry(monkeypatch):
    monkeypatch.setattr(
        golden_mod, "GOLDEN_OUTPUTS", {"fake-table": lambda: "table text"}
    )
    monkeypatch.setattr(
        golden_mod, "GOLDEN_TRACED", {"fake-traced": lambda: ["d1", "d2"]}
    )


def test_run_golden_collects_both_families(tiny_registry):
    outputs, traced, errors = run_golden(jobs=1)
    assert errors == []
    assert set(outputs) == {"fake-table"}
    assert len(outputs["fake-table"]) == 64
    assert traced == {"fake-traced": ["d1", "d2"]}


def test_write_then_check_round_trips(tiny_registry, tmp_path):
    path = str(tmp_path / "golden.json")
    write_golden(path, jobs=1)
    doc = json.load(open(path))
    assert doc["schema"] == "repro-golden/1"
    ok, lines = check_golden(path, jobs=1)
    assert ok
    assert all(line.startswith("ok") for line in lines)


def test_check_reports_drift_new_and_missing(tiny_registry, tmp_path):
    path = str(tmp_path / "golden.json")
    write_golden(path, jobs=1)
    doc = json.load(open(path))
    doc["outputs"]["fake-table"] = "0" * 64
    doc["trace_digests"]["stale-entry"] = ["gone"]
    with open(path, "w") as fh:
        json.dump(doc, fh)
    ok, lines = check_golden(path, jobs=1)
    assert not ok
    assert any(line.startswith("CHANGED") and "fake-table" in line for line in lines)
    assert any(line.startswith("MISSING") and "stale-entry" in line for line in lines)

    del doc["outputs"]["fake-table"]
    with open(path, "w") as fh:
        json.dump(doc, fh)
    ok, lines = check_golden(path, jobs=1)
    assert not ok
    assert any(line.startswith("NEW") and "fake-table" in line for line in lines)


def test_write_refuses_partial_output(tiny_registry, tmp_path, monkeypatch):
    def explode():
        raise RuntimeError("scenario broke")

    monkeypatch.setattr(golden_mod, "GOLDEN_OUTPUTS", {"fake-table": explode})
    path = str(tmp_path / "golden.json")
    with pytest.raises(RuntimeError, match="refusing to write"):
        write_golden(path, jobs=1)
    assert not (tmp_path / "golden.json").exists()


def test_check_surfaces_cell_errors_as_failures(tiny_registry, tmp_path, monkeypatch):
    path = str(tmp_path / "golden.json")
    write_golden(path, jobs=1)

    def explode():
        raise RuntimeError("scenario broke")

    monkeypatch.setattr(golden_mod, "GOLDEN_OUTPUTS", {"fake-table": explode})
    ok, lines = check_golden(path, jobs=1)
    assert not ok
    assert any(line.startswith("ERROR") and "fake-table" in line for line in lines)


def test_cli_tells_model_changed_from_schedule_changed(tiny_registry, tmp_path, capsys):
    from argparse import Namespace

    from repro.bench.cli import run_golden_cli

    path = str(tmp_path / "golden.json")
    write_golden(path, jobs=1)
    args = Namespace(check=True, write=False, path=path, jobs=1)
    assert run_golden_cli(args) == 0
    assert "model    (output digests): MATCH" in capsys.readouterr().out

    doc = json.load(open(path))
    doc["trace_digests"]["fake-traced"] = ["other", "order"]
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert run_golden_cli(args) == 2  # the schedule alone
    out = capsys.readouterr().out
    assert "MOVED    fake-traced" in out
    assert "model    (output digests): MATCH" in out
    assert "schedule (trace digests):  MOVED  fake-traced" in out

    doc["outputs"]["fake-table"] = "0" * 64
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert run_golden_cli(args) == 1  # the model, whatever the schedule did
    out = capsys.readouterr().out
    assert "CHANGED  fake-table" in out
    assert "model    (output digests): CHANGED" in out
