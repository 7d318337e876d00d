"""The subcommand registry and the artifact table behind it."""

import json
import os
import subprocess
import sys

import pytest

from repro.__main__ import build_parser, main
from repro.bench.golden import (
    GOLDEN_OUTPUTS,
    GOLDEN_TRACED,
    LOAD_POINTS,
    default_golden_path,
)
from repro.experiments.artifacts import ALL_ARTIFACTS, ARTIFACTS
from repro.experiments.cluster import CLUSTER_PROTOCOLS

#: what ``python -m repro --help`` lists, in order
PARENT_SUBCOMMANDS = [
    "list", "table", "figure", "consistency", "micro", "scaling", "lifetimes",
    "readpatterns", "blocksharing", "ablations", "resilience", "trace",
    "golden", "nemesis", "report", "lint", "all",
]


def _subcommands():
    (action,) = build_parser()._subparsers._group_actions
    return action.choices


def test_every_parent_subcommand_is_registered_in_help_order():
    assert list(_subcommands()) == PARENT_SUBCOMMANDS


@pytest.mark.parametrize("command", PARENT_SUBCOMMANDS)
def test_every_subcommand_answers_help_and_has_a_handler(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    assert ("python -m repro %s" % command) in capsys.readouterr().out
    assert callable(_subcommands()[command].get_default("func"))


def _argv(artifact):
    """The command line that prints one artifact."""
    kind, _, number = artifact.partition("-")
    return [kind, number] if kind in ("table", "figure") else [artifact]


@pytest.fixture
def stub_artifacts(monkeypatch):
    """Swap every builder for a stub that records it was called."""
    built = []
    for name in ARTIFACTS:
        def build(name=name, **kwargs):
            built.append((name, kwargs))
            return "<%s>" % name

        monkeypatch.setitem(ARTIFACTS, name, build)
    return built


def test_every_artifact_is_reachable_from_its_subcommand(stub_artifacts, capsys):
    for name in ARTIFACTS:
        assert main(_argv(name)) == 0
        assert capsys.readouterr().out == "<%s>\n" % name
    assert [name for name, _ in stub_artifacts] == list(ARTIFACTS)
    # 5.1 spells 5-1; resilience alone takes its seed
    assert main(["table", "5.1"]) == 0 and main(["figure", "5.2"]) == 0
    assert main(["resilience", "--seed", "9"]) == 0
    assert stub_artifacts[-3:] == [
        ("table-5-1", {}), ("figure-5-2", {}), ("resilience", {"seed": 9}),
    ]


def test_all_prints_the_table_in_order_bar_two(stub_artifacts, capsys):
    assert main(["all"]) == 0
    assert capsys.readouterr().out == "".join(
        "<%s>\n\n" % name for name in ALL_ARTIFACTS
    )[:-1]
    assert [name for name, _ in stub_artifacts] == list(ALL_ARTIFACTS)
    # the table minus the Table 4-1 sample and the seeded resilience
    # table: exactly what ``all`` printed at the parent
    assert set(ARTIFACTS) - set(ALL_ARTIFACTS) == {"table-4-1", "resilience"}
    assert list(ALL_ARTIFACTS) == [n for n in ARTIFACTS if n in ALL_ARTIFACTS]


def test_unknown_numbered_artifacts_exit_with_the_parents_message():
    with pytest.raises(SystemExit, match=r"unknown table '9-9' \(try: 4-1, 5-1 \.\. 5-6\)"):
        main(["table", "9-9"])
    with pytest.raises(SystemExit, match=r"unknown figure '9' \(try: 5-1, 5-2\)"):
        main(["figure", "9"])


def test_golden_outputs_resolve_through_the_artifact_table():
    builders = list(ARTIFACTS.values()) + list(LOAD_POINTS.values())
    assert all(build in builders for build in GOLDEN_OUTPUTS.values())
    # the golden set is the committed one: 16 artifacts + 20 load points
    # as outputs, 19 traced
    with open(default_golden_path()) as fh:
        committed = json.load(fh)
    assert sorted(GOLDEN_OUTPUTS) == sorted(committed["outputs"])
    assert sorted(GOLDEN_TRACED) == sorted(committed["trace_digests"])
    assert (len(GOLDEN_OUTPUTS), len(GOLDEN_TRACED)) == (36, 19)


def test_no_artifact_lands_unpinned():
    """Every artifact but the pure-data Table 4-1 sample has an output
    digest, so a new one cannot be added without pinning it."""
    pinned = [b for b in ARTIFACTS.values() if b in GOLDEN_OUTPUTS.values()]
    unpinned = [n for n, b in ARTIFACTS.items() if b not in pinned]
    assert unpinned == ["table-4-1"]


def test_no_load_point_lands_unpinned():
    """Every protocol's cluster sweep, the sharded namespace and the
    largest NFS sort are golden outputs, so a protocol added to the
    registry brings its load points with it."""
    cluster = ["cluster-%s-n%d" % (p, n) for p in CLUSTER_PROTOCOLS for n in (16, 64, 256)]
    sharded = ["sharded-snfs-s1", "sharded-snfs-s2", "sharded-snfs-s4", "sharded-snfs-hotdir-s4"]
    assert sorted(LOAD_POINTS) == sorted(cluster + sharded + ["sort-external-nfs"])
    assert all(GOLDEN_OUTPUTS[name] is run for name, run in LOAD_POINTS.items())


def test_import_repro_loads_no_harness_module():
    """``import repro`` stays the library: no argparse, no registrar, no
    pool — what keeps a library user's (and perfbench's) start-up flat."""
    probe = (
        "import sys, repro\n"
        "print([m for m in sorted(sys.modules) if m == 'argparse'"
        " or m in ('repro.obs.cli', 'repro.trace.cli', 'repro.document')"
        " or m.split('.')[:2] in (['repro', 'bench'], ['repro', 'nemesis'],"
        " ['repro', 'parallel'], ['repro', 'analysis'])])\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    out = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
