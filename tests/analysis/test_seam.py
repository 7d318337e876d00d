"""The SEAM001-SEAM004 seam-contract rules on their fixtures."""

import os

import pytest

from repro.analysis.callgraph import index_paths
from repro.analysis.linter import raw_findings

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SEAM = os.path.join(FIXTURES, "seam_rules.py")


def analyze(path):
    return raw_findings(index_paths([path]), "seam")


@pytest.fixture(scope="module")
def raw():
    return analyze(SEAM)


def of_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


def test_totals(raw):
    # every raw finding, as (rule, line, severity, function, subject)
    assert [(f.rule, f.line, f.severity, f.function, f.subject) for f in raw] == [
        ("SEAM001", 50, "error", "BadArityPolicy.on_open", "on_open"),
        ("SEAM001", 57, "error", "NotAGeneratorPolicy.on_close", "on_close"),
        ("SEAM002", 63, "error", "UndeclaredReclaimPolicy.reclaim", "crash_recovery"),
        ("SEAM002", 67, "error", "DeclaredNoReclaimPolicy", "crash_recovery"),
        ("SEAM002", 75, "error", "BypassPolicy.on_open", "rpc.call"),
        ("SEAM001", 103, "error", "BadProcServer.proc_open", "proc_open"),
        ("SEAM001", 103, "error", "BadProcServer.proc_open", "proc_open"),
        ("SEAM003", 109, "error", "HostHookServer.on_host_crash", "on_host_crash"),
        ("SEAM003", 119, "error", "TableResetServer.proc_reset", "_tables"),
        ("SEAM003", 124, "error", "TableResetServer.maintenance", "_tables"),
    ]


def test_conforming_classes_are_clean(raw):
    flagged = {f.function.split(".")[0] for f in raw} | {
        f.subject for f in raw if "." not in f.function
    }
    assert "GoodPolicy" not in flagged
    assert "GoodServer" not in flagged


def test_seam001_arity_violation(raw):
    finding = next(
        f for f in of_rule(raw, "SEAM001")
        if f.function == "BadArityPolicy.on_open"
    )
    assert "positional arg" in finding.message


def test_seam001_coroutine_hook_must_be_generator(raw):
    finding = next(
        f for f in of_rule(raw, "SEAM001")
        if f.function == "NotAGeneratorPolicy.on_close"
    )
    assert "generator" in finding.message


def test_seam001_server_proc_contract(raw):
    findings = [
        f for f in of_rule(raw, "SEAM001")
        if f.function == "BadProcServer.proc_open"
    ]
    messages = " ".join(f.message for f in findings)
    assert "src" in messages
    assert "generator" in messages
    assert len(findings) == 2


def test_seam002_both_directions(raw):
    functions = {f.function for f in of_rule(raw, "SEAM002")}
    assert "UndeclaredReclaimPolicy.reclaim" in functions
    assert "DeclaredNoReclaimPolicy" in functions


def test_seam002_rpc_bypass(raw):
    finding = next(
        f for f in of_rule(raw, "SEAM002") if f.subject == "rpc.call"
    )
    assert finding.function == "BypassPolicy.on_open"
    assert "retry loop" in finding.message


def test_seam003_host_hooks_are_off_limits(raw):
    finding = next(
        f for f in of_rule(raw, "SEAM003")
        if f.function == "HostHookServer.on_host_crash"
    )
    assert "host lifecycle" in finding.message


def test_seam003_crash_state_reset_off_the_crash_path(raw):
    functions = {
        f.function for f in of_rule(raw, "SEAM003") if f.subject == "_tables"
    }
    assert functions == {
        "TableResetServer.proc_reset",
        "TableResetServer.maintenance",
    }


def test_seam004_model_code_behind_the_probe_is_clean():
    good = os.path.join(FIXTURES, "seam004_good.py")
    assert of_rule(analyze(good), "SEAM004") == []


def test_seam004_flags_each_reach_past_the_probe():
    bad = os.path.join(FIXTURES, "seam004_bad.py")
    findings = of_rule(analyze(bad), "SEAM004")
    assert [(f.line, f.function, f.subject) for f in findings] == [
        (3, "<module>", "repro.analysis.sanitizer"),
        (4, "<module>", "repro.metrics.registry"),
        (5, "<module>", "repro.obs"),
        (6, "<module>", "repro.trace"),
        (14, "read", "sim.tracer"),
        (15, "read", "sim.tracer"),
        (17, "read", "sim.obs"),
        (18, "read", "sim.obs"),
        (22, "retransmit", "sim.metrics"),
        (23, "retransmit", "sim.metrics"),
        (24, "retransmit", "sim.sanitizer"),
    ]
    assert all(f.severity == "error" for f in findings)
    imports = {f.subject for f in findings if f.function == "<module>"}
    assert imports == {
        "repro.analysis.sanitizer", "repro.metrics.registry",
        "repro.obs", "repro.trace",
    }
    by_function = {}
    for f in findings:
        by_function.setdefault(f.function, set()).add(f.subject)
    assert by_function["read"] == {"sim.tracer", "sim.obs"}
    assert by_function["retransmit"] == {"sim.metrics", "sim.sanitizer"}


def test_seam004_exempts_the_engine_and_the_harness_packages(tmp_path):
    source = "def peek(sim):\n    return sim.tracer\n"
    for rel, flagged in (
        ("repro/net/peek.py", True),
        ("repro/sim/peek.py", True),
        ("repro/sim/engine.py", False),
        ("repro/obs/peek.py", False),
        ("repro/experiments/peek.py", False),
        ("repro/peek.py", False),
    ):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        found = of_rule(analyze(str(path)), "SEAM004")
        assert bool(found) is flagged, rel


def test_real_tree_seam_is_clean(real_tree):
    findings = raw_findings(real_tree, "seam")
    assert findings == [], [f.format() for f in findings]
