"""Every lint rule fires on its fixture and honours suppressions."""

import ast
import io
import os
import re

import pytest

from repro.analysis.callgraph import HARNESS_PACKAGES, Module, index_paths
from repro.analysis.cli import run_lint
from repro.analysis.linter import RULES, findings, lint_paths, lint_source

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
PKG = os.path.join(REPO_ROOT, "src", "repro")


def lint_fixture(name):
    return lint_paths([os.path.join(FIXTURES, name)])


# (fixture, rule id, expected number of findings)
CASES = [
    ("det001.py", "DET001", 2),
    ("det002.py", "DET002", 3),
    ("det003.py", "DET003", 3),
    ("det004.py", "DET004", 3),
    ("sim001.py", "SIM001", 2),
    ("sim002.py", "SIM002", 2),
    ("sim003.py", "SIM003", 2),
    ("sim004.py", "SIM004", 1),
]

# fixture -> every finding, as (rule, line, severity, function, subject)
PINNED = {
    "det001.py": [
        ("DET001", 6, "error", "bad_pick", ""),
        ("DET001", 10, "error", "bad_seed", ""),
    ],
    "det002.py": [
        ("DET002", 8, "error", "bad_stamp", ""),
        ("DET002", 12, "error", "bad_now", ""),
        ("DET002", 16, "error", "bad_entropy", ""),
    ],
    "det003.py": [
        ("DET003", 5, "error", "bad_literal", ""),
        ("DET003", 10, "error", "bad_constructor", ""),
        ("DET003", 15, "error", "bad_comprehension", ""),
    ],
    "det004.py": [
        ("DET004", 7, "error", "bad_unseeded", ""),
        ("DET004", 11, "error", "bad_unseeded_bare", ""),
        ("DET004", 15, "error", "bad_system", ""),
    ],
    "sim001.py": [
        ("SIM001", 5, "error", "bad_proc", ""),
        ("SIM001", 9, "error", "bad_proc_str", ""),
    ],
    "sim002.py": [
        ("SIM002", 9, "error", "bad_caller", ""),
        ("SIM002", 25, "error", "Service.bad_start", ""),
    ],
    "sim003.py": [
        ("SIM003", 6, "error", "bad_sleeper", ""),
        ("SIM003", 11, "error", "bad_reader", ""),
    ],
    "sim004.py": [("SIM004", 5, "warning", "bad_fail", "")],
}


def pin(found):
    return [(f.rule, f.line, f.severity, f.function, f.subject) for f in found]


@pytest.mark.parametrize("fixture,rule,count", CASES)
def test_rule_fires_expected_number_of_times(fixture, rule, count):
    found = lint_fixture(fixture)
    assert pin(found) == PINNED[fixture], [f.format() for f in found]
    assert [f.rule for f in found] == [rule] * count


@pytest.mark.parametrize("fixture", sorted({c[0] for c in CASES}))
def test_suppressed_lines_are_not_flagged(fixture):
    path = os.path.join(FIXTURES, fixture)
    with open(path) as fh:
        lines = fh.read().splitlines()
    suppressed_lines = {
        i for i, line in enumerate(lines, start=1) if "# lint: ok" in line
    }
    assert suppressed_lines, "fixture %s must exercise suppression" % fixture
    flagged = {f.line for f in lint_fixture(fixture)}
    assert not (flagged & suppressed_lines)


def test_sim004_is_a_warning():
    findings = lint_fixture("sim004.py")
    assert all(f.severity == "warning" for f in findings)


def test_bare_ok_suppresses_everything():
    findings = lint_source(
        "import random\n"
        "x = random.random()  # lint: ok — reviewed\n"
    )
    assert findings == []


def test_reasonless_suppression_gets_sup001():
    findings = lint_source(
        "import random\n"
        "x = random.random()  # lint: ok\n"
    )
    assert [f.rule for f in findings] == ["SUP001"]
    assert findings[0].severity == "warning"


def test_bare_ok_does_not_self_suppress_sup001():
    # only an explicit ok=SUP001 can silence the reason requirement
    reasonless = lint_source("x = 1  # lint: ok\n")
    assert [f.rule for f in reasonless] == ["SUP001"]
    explicit = lint_source("x = 1  # lint: ok=SUP001\n")
    assert explicit == []


def test_ascii_dashes_accepted_as_reason_marker():
    findings = lint_source(
        "import random\n"
        "x = random.random()  # lint: ok -- reviewed\n"
    )
    assert findings == []


def test_named_ok_only_covers_listed_rules():
    findings = lint_source(
        "import random, time\n"
        "def f():\n"
        "    return random.random() + time.time()"
        "  # lint: ok=DET001 — reviewed\n"
    )
    assert [f.rule for f in findings] == ["DET002"]


def test_syntax_error_becomes_parse_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    findings = lint_paths([str(bad)])
    assert [f.rule for f in findings] == ["PARSE"]


def test_non_scheduler_code_skips_order_rules():
    # a file whose package placement is known to be a harness package
    # gets no DET003/SIM001
    findings = lint_source(
        "def f(xs):\n"
        "    return [x for x in set(xs)]\n",
        path="src/repro/experiments/demo.py",
        package_root="src/repro",
    )
    assert findings == []


# -- the one partition: harness packages listed once, the rest is model code --

# every subpackage that runs inside (or feeds) the event loop; a new
# directory under src/repro must be classified here or in HARNESS_PACKAGES
MODEL_PACKAGES = {
    "faults", "fs", "host", "kent", "lease", "lockd", "net", "nfs", "proto",
    "rfs", "sim", "snfs", "storage", "vfs", "workloads",
}
SUBPACKAGES = sorted(
    name
    for name in os.listdir(PKG)
    if os.path.isdir(os.path.join(PKG, name)) and name != "__pycache__"
)
ORDER_DEPENDENT = "def proc(s):\n    for x in set(s):\n        yield 5\n"


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_every_subpackage_is_classified_exactly_once(package):
    is_model, is_harness = package in MODEL_PACKAGES, package in HARNESS_PACKAGES
    assert is_model != is_harness, package
    path = os.path.join(PKG, package, "demo.py")
    assert Module(path, "", package_root=PKG).model_code is is_model
    # the order/discipline rules and SEAM004 read that one answer
    rules = {f.rule for f in lint_source(ORDER_DEPENDENT, path=path, package_root=PKG)}
    assert rules == ({"DET003", "SIM001"} if is_model else set())


def test_partition_names_only_real_packages():
    assert MODEL_PACKAGES | (HARNESS_PACKAGES - {""}) == set(SUBPACKAGES)


@pytest.mark.parametrize("package", ["lease", "proto", "fs", "workloads"])
def test_packages_the_old_list_forgot_draw_the_order_rules(package):
    found = lint_source(ORDER_DEPENDENT, path="src/repro/%s/demo.py" % package)
    assert [f.rule for f in found] == ["DET003", "SIM001"]


# -- one rule table ----------------------------------------------------------------


def test_docs_catalogue_matches_the_rule_table():
    with open(os.path.join(REPO_ROOT, "docs", "ANALYSIS.md")) as fh:
        rows = re.findall(r"^\| ([A-Z]+\d*) +\| (error|warning) +\|", fh.read(), re.M)
    assert len(rows) == len(set(rows)), "a rule is catalogued twice"
    assert dict(rows) == {rule: spec.severity for rule, spec in RULES.items()}


def test_every_rule_is_reported_by_the_pass_the_table_names():
    index = index_paths([FIXTURES])
    seen = set()
    for pass_name in ("det-sim", "atomicity", "seam"):
        for finding in findings(index, pass_name):
            assert RULES[finding.rule].pass_name == pass_name, finding.format()
            assert RULES[finding.rule].severity == finding.severity
            seen.add(finding.rule)
    assert seen == set(RULES) - {"PARSE", "SUP001"}  # those two: tests above


# -- parse once -------------------------------------------------------------------


def test_run_lint_parses_each_file_once(monkeypatch):
    parsed = []
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(filename)
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    run_lint(
        paths=[FIXTURES], atomicity=True, seam=True, conformance=False,
        no_baseline=True, out=io.StringIO(),
    )
    fixtures = [n for n in os.listdir(FIXTURES) if n.endswith(".py")]
    assert sorted(parsed) == sorted(os.path.join(FIXTURES, n) for n in fixtures)


def test_repro_tree_is_clean(real_tree):
    """The acceptance bar: the shipped tree has zero lint findings."""
    found = findings(real_tree, "det-sim")
    assert found == [], [f.format() for f in found]
