"""The baseline file, the repro-lint/2 document, and the lint CLI."""

import io
import json
import os

import pytest

from repro.analysis.baseline import (
    BASELINE_SCHEMA,
    apply_baseline,
    load_baseline,
)
from repro.analysis.cli import run_lint
from repro.analysis.linter import Finding, finding_fingerprint, findings
from repro.analysis.report import (
    LINT_SCHEMA,
    lint_document,
    validate_lint_document,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
PKG = os.path.join(REPO_ROOT, "src", "repro")
COMMITTED_BASELINE = os.path.join(REPO_ROOT, "lint-baseline.json")


def make_finding(rule="ATOM001", function="C.m", subject="self.x", line=10):
    return Finding(
        rule=rule,
        path="repro/mod.py",
        line=line,
        col=4,
        message="msg",
        severity="error",
        function=function,
        subject=subject,
        fingerprint=finding_fingerprint(rule, "repro/mod.py", function, subject),
    )


def write_baseline(tmp_path, entries):
    path = tmp_path / "lint-baseline.json"
    path.write_text(
        json.dumps({"schema": BASELINE_SCHEMA, "findings": entries})
    )
    return str(path)


def entry_for(finding, reason="reviewed"):
    return {
        "fingerprint": finding.fingerprint,
        "rule": finding.rule,
        "path": finding.path,
        "function": finding.function,
        "subject": finding.subject,
        "reason": reason,
    }


def test_baseline_round_trip(tmp_path):
    accepted = make_finding()
    fresh = make_finding(function="C.other")
    path = write_baseline(tmp_path, [entry_for(accepted)])
    active, baselined, stale = apply_baseline(
        [accepted, fresh], load_baseline(path)
    )
    assert active == [fresh]
    assert baselined == [accepted]
    assert stale == []


def test_stale_entries_are_reported(tmp_path):
    gone = make_finding(function="C.removed")
    path = write_baseline(tmp_path, [entry_for(gone)])
    active, baselined, stale = apply_baseline([], load_baseline(path))
    assert (active, baselined) == ([], [])
    assert [e["fingerprint"] for e in stale] == [gone.fingerprint]


def test_one_entry_absorbs_all_matching_findings(tmp_path):
    # the fingerprint is line-independent: two anchors, one review
    a = make_finding(line=10)
    b = make_finding(line=22)
    path = write_baseline(tmp_path, [entry_for(a)])
    active, baselined, _ = apply_baseline([a, b], load_baseline(path))
    assert active == []
    assert len(baselined) == 2


def test_baseline_requires_reasons(tmp_path):
    entry = entry_for(make_finding())
    del entry["reason"]
    path = write_baseline(tmp_path, [entry])
    with pytest.raises(ValueError, match="reason"):
        load_baseline(path)


def test_baseline_rejects_wrong_schema(tmp_path):
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"schema": "nope/9", "findings": []}))
    with pytest.raises(ValueError, match="schema"):
        load_baseline(str(path))


def test_baseline_rejects_unknown_rules(tmp_path):
    entry = entry_for(make_finding(rule="ATOM999"))
    with pytest.raises(ValueError, match="no known rule"):
        load_baseline(write_baseline(tmp_path, [entry]))


def test_committed_baseline_loads_and_is_fully_matched(real_tree):
    doc = load_baseline(COMMITTED_BASELINE)
    assert doc["schema"] == BASELINE_SCHEMA
    assert 0 < len(doc["findings"]) <= 10
    deep = findings(real_tree, "atomicity") + findings(real_tree, "seam")
    active, baselined, stale = apply_baseline(deep, doc)
    assert active == [], [f.format() for f in active]
    assert stale == [], stale
    assert baselined


def test_lint_document_shape_and_validation():
    active = [make_finding()]
    baselined = [make_finding(function="C.accepted")]
    doc = lint_document(
        paths=["src/repro"],
        passes=["det-sim", "atomicity", "seam"],
        strict=True,
        active=active,
        baselined=baselined,
        stale_baseline=[{"fingerprint": "dead", "rule": "ATOM001"}],
        conformance_diffs=[],
        baseline_path="lint-baseline.json",
    )
    assert doc["schema"] == LINT_SCHEMA
    assert validate_lint_document(doc) == []
    assert validate_lint_document(json.loads(json.dumps(doc))) == []
    assert doc["summary"] == {
        "errors": 1,
        "warnings": 0,
        "conformance": 0,
        "baselined": 1,
        "stale_baseline": 1,
    }
    flags = {f["baselined"] for f in doc["findings"]}
    assert flags == {True, False}


def test_validator_catches_problems():
    assert validate_lint_document({}) != []
    doc = lint_document(
        paths=[], passes=[], strict=False, active=[make_finding()]
    )
    doc["findings"][0]["line"] = "ten"
    assert any("line" in p for p in validate_lint_document(doc))


def test_cli_full_run_is_clean_and_writes_valid_json(lint_report):
    code, text, doc = lint_report
    assert code == 0, text
    assert validate_lint_document(doc) == []
    assert set(doc["passes"]) == {"det-sim", "atomicity", "seam", "conformance"}
    assert doc["summary"]["errors"] == 0
    assert doc["summary"]["baselined"] > 0


def test_cli_no_baseline_exposes_accepted_findings(lint_real_tree):
    out = io.StringIO()
    code = lint_real_tree(
        strict=True, atomicity=True, seam=True, no_baseline=True,
        conformance=False, out=out,
    )
    assert code == 1
    assert "ATOM001" in out.getvalue()


# An unmatched baseline entry is stale only if this run could have
# matched it: its rule's pass ran and its file was among those linted.


def test_seam_only_run_does_not_call_atomicity_entries_stale(lint_real_tree):
    out = io.StringIO()
    code = lint_real_tree(strict=True, seam=True, conformance=False, out=out)
    assert (code, out.getvalue()) == (
        0, "lint: 0 error(s), 0 warning(s), 0 conformance diff(s), 0 baselined\n"
    )


def test_path_subset_run_does_not_call_other_files_entries_stale():
    out = io.StringIO()
    code = run_lint(
        paths=[os.path.join(PKG, "document.py")], strict=True, atomicity=True,
        seam=True, conformance=False, out=out,
    )
    assert (code, out.getvalue()) == (
        0, "lint: 0 error(s), 0 warning(s), 0 conformance diff(s), 0 baselined\n"
    )


def test_entry_for_a_linted_file_whose_pass_ran_is_still_stale(tmp_path):
    kernel = os.path.join(PKG, "host", "kernel.py")
    gone = make_finding(function="Kernel.removed")
    gone.path = "repro/host/kernel.py"
    baseline = write_baseline(tmp_path, [entry_for(gone)])
    out = io.StringIO()
    code = run_lint(
        paths=[kernel], strict=True, atomicity=True, baseline=baseline,
        conformance=False, out=out,
    )
    assert code == 1
    assert "[BASELINE] stale entry %s" % gone.fingerprint in out.getvalue()
