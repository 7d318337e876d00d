"""BENCHMARK.json, the catalogue and the command line agree."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import metrics as catalogue
from perfbench.workloads import WORKLOADS

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT, env=None, script=RUN):
    merged = dict(os.environ)
    merged.pop("PYTHONPATH", None)
    merged.update(env or {})
    return subprocess.run(
        [sys.executable, script] + list(args), cwd=cwd, env=merged,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


def test_contract_file_obeys_the_format():
    doc = _contract()
    assert sorted(doc) == ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
    assert doc["paths"] == ["perfbench"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert [w["name"] for w in doc["workloads"]] == ["andrew", "sort", "cluster", "nemesis", "localdisk"]
    assert set(WORKLOADS) == {w["name"] for w in doc["workloads"]}
    names = [w["name"] for w in doc["workloads"]]
    for w in doc["workloads"]:
        assert sorted(w) == ["name", "why"] and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert sorted(m) == ["better", "bound", "name", "unit"]
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert sorted(m) == ["better", "name", "unit"]
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert len(names) == len(set(names))
    assert len(doc["per_layer"]) == 59
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) < 64 * 1024


def test_contract_and_catalogue_cannot_drift():
    doc = _contract()
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in catalogue.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in catalogue.PER_LAYER
    ]
    known = {m.name for m in catalogue.END_TO_END} | {"-", "failed"}
    for m in catalogue.PER_LAYER:
        # every layer metric says which end-to-end metric it should move
        assert m.moves and all(part.strip() in known for part in m.moves.split(",")), m.name
        assert m.heavy and m.light and m.definition


def test_untraced_and_traced_runs_print_the_result_line():
    doc = _contract()
    results = {}
    for trace, declared in (("0", doc["end_to_end"]), ("1", doc["per_layer"])):
        done = _run("--workload", "andrew", "--seed", "3", "--seconds", "0", "--trace", trace, "--quick")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        results[trace] = result
    with open(os.path.join(HERE, "out", "andrew.json")) as fh:
        assert json.load(fh)["quick"] is True
    with open(os.path.join(HERE, "out", "trace-andrew.json")) as fh:
        spans = json.load(fh)["spans"]
    assert {"import", "calibrate", "generate", "body", "build", "stage", "run", "collect", "verify"} <= {
        s["name"] for s in spans
    }
    again = _run("--workload", "andrew", "--seed", "3", "--seconds", "0", "--trace", "0", "--quick")
    metrics = json.loads(again.stdout.splitlines()[-1])["metrics"]
    for name in ("sim_elapsed_s", "sim_io_ops", "sim_server_cpu_s"):
        assert metrics[name] == results["0"]["metrics"][name]


def test_list_names_every_workload_and_metric():
    done = _run("--list")
    assert done.returncode == 0, done.stderr
    doc = _contract()
    for entry in doc["workloads"] + doc["end_to_end"] + doc["per_layer"]:
        assert entry["name"] in done.stdout
    assert "67 cells" in done.stdout


def test_refuses_instrumented_environments_and_quick_selfcheck():
    done = _run("--workload", "andrew", "--quick", env={"REPRO_OBS": "1"})
    assert done.returncode != 0 and "REPRO_OBS" in done.stderr and done.stdout == ""
    done = _run("--selfcheck", "--quick")
    assert done.returncode != 0 and done.stdout == ""


def test_a_directory_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = _run(
        "--workload", "andrew", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=str(tmp_path), script=os.path.join("perfbench", "run.py"),
    )
    assert done.returncode != 0
    assert done.stdout == ""
