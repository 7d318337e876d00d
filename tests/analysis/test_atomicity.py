"""The ATOM001-ATOM004 atomicity rules on their fixture."""

import os

import pytest

from repro.analysis import atomicity, linter
from repro.analysis.callgraph import index_paths
from repro.analysis.linter import (
    findings,
    flagged_regions,
    raw_findings,
    site_in_regions,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
ATOM = os.path.join(FIXTURES, "atom_rules.py")


@pytest.fixture(scope="module")
def index():
    return index_paths([ATOM])


@pytest.fixture(scope="module")
def raw(index):
    return raw_findings(index, "atomicity")


def by_function(findings):
    return {f.function: f for f in findings}


def test_each_rule_fires_on_its_method(raw):
    # every raw finding, as (rule, line, severity, function, subject)
    assert [(f.rule, f.line, f.severity, f.function, f.subject) for f in raw] == [
        ("ATOM001", 21, "error", "Table.lost_update", "self.entries"),
        ("ATOM002", 27, "error", "Table.torn_update", "self.entries"),
        ("ATOM003", 33, "warning", "Table.stale_reread", "self.version"),
        ("ATOM004", 39, "warning", "Table.sweep", "self.entries"),
        ("ATOM001", 63, "error", "Table.reviewed_update", "self.entries"),
        ("ATOM001", 98, "error", "Aliased.bump", "entry.count"),
    ]


def test_no_findings_on_guarded_or_local_methods(raw):
    functions = {f.function for f in raw}
    assert "Table.locked_update" not in functions
    assert "Table.flushed_update" not in functions
    assert "Table.local_only" not in functions


def test_severities(raw):
    sev = {f.rule: f.severity for f in raw}
    assert sev["ATOM001"] == "error"
    assert sev["ATOM002"] == "error"
    assert sev["ATOM003"] == "warning"
    assert sev["ATOM004"] == "warning"


def test_one_finding_per_location(raw):
    keys = [(f.function, f.subject) for f in raw]
    assert len(keys) == len(set(keys))


def test_subject_is_root_plus_attribute(raw):
    subjects = {f.function: f.subject for f in raw}
    assert subjects["Table.lost_update"] == "self.entries"
    assert subjects["Aliased.bump"] == "entry.count"


def test_message_cites_both_sides_of_the_crossing(raw):
    finding = by_function(raw)["Table.lost_update"]
    assert "read (line" in finding.message
    assert "unguarded yield (line" in finding.message


def test_suppression_filters_reviewed_findings(index, raw):
    assert any(f.function == "Table.reviewed_update" for f in raw)
    filtered = findings(index, "atomicity")
    assert not any(f.function == "Table.reviewed_update" for f in filtered)


def test_suppressed_findings_still_flag_their_region(index):
    regions = flagged_regions(index)
    assert any(q == "Table.reviewed_update" for _, q, _, _ in regions)


def test_flagged_regions_performs_no_analysis_of_its_own(monkeypatch):
    runs = []

    def counted(index):
        runs.append(index)
        return atomicity.check(index)

    monkeypatch.setitem(linter._PASSES, "atomicity", counted)
    fresh = index_paths([ATOM])
    regions = flagged_regions(fresh)
    assert findings(fresh, "atomicity") and flagged_regions(fresh) == regions
    assert runs == [fresh]  # the pass ran once; its raw list is kept on the index


def test_fingerprints_are_line_independent(index, raw):
    # re-parse with a leading comment: every line shifts, every
    # fingerprint survives
    with open(ATOM) as fh:
        source = fh.read()
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        shifted = os.path.join(tmp, "atom_rules.py")
        with open(shifted, "w") as fh:
            fh.write("# shifted\n" * 7 + source)
        shifted_raw = raw_findings(index_paths([shifted]), "atomicity")
    assert {(f.rule, f.function, f.subject, f.fingerprint) for f in raw} == {
        (f.rule, f.function, f.subject, f.fingerprint) for f in shifted_raw
    }


def test_site_in_regions_containment(index):
    regions = flagged_regions(index)
    region = next(r for r in regions if r[1] == "Table.lost_update")
    path, _, first, last = region
    assert site_in_regions((path, first), regions)
    assert site_in_regions((path, last), regions)
    assert not site_in_regions((path, 100000), regions)
    assert not site_in_regions(("/nonexistent.py", first), regions)
