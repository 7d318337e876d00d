"""Start-up loads only what a run uses.

Every process compiles each module it imports when no bytecode cache is
kept, so the import budget is a speed budget.  Each check runs in a
fresh interpreter: in this one, other tests have loaded everything.
"""

import os
import subprocess
import sys

import pytest

from repro.__main__ import build_parser

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
SRC = os.path.join(ROOT, "src")

#: the namespaces whose names resolve on first use (``repro.lazy``)
LAZY_NAMESPACES = (
    "repro", "repro.analysis", "repro.bench", "repro.experiments",
    "repro.metrics", "repro.nemesis", "repro.obs", "repro.parallel",
    "repro.trace", "repro.workloads",
)

#: the packages that import eagerly: the simulated system itself
MODEL_PACKAGES = (
    "sim", "net", "host", "proto", "nfs", "snfs", "rfs", "kent", "lease",
    "lockd", "fs", "vfs", "storage", "faults",
)

#: what perfbench's surface may load (114 when every namespace was eager)
SURFACE_BUDGET = 90


def _python(*argv):
    """Run a fresh interpreter from the repository root; returns stdout."""
    out = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def _loaded_after(statement):
    """The ``repro`` modules a fresh interpreter holds after ``statement``."""
    probe = "%s\nimport sys\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    return _python("-c", probe % statement).split()


def test_the_perfbench_surface_stays_inside_its_import_budget():
    loaded = _loaded_after("import perfbench.surface, perfbench.workloads")
    assert len(loaded) <= SURFACE_BUDGET, loaded
    for unused in (
        "repro.analysis", "repro.trace", "repro.parallel",
        "repro.bench.golden", "repro.experiments.ablations",
    ):
        assert unused not in loaded


def test_the_cli_loads_no_model_package():
    loaded = _loaded_after("import repro.__main__")
    assert {m.split(".")[1] for m in loaded if "." in m}.isdisjoint(MODEL_PACKAGES)
    # the parser only: nothing behind any handler (``nemesis --quick``
    # names its plans in its help line)
    behind = set(loaded) - set(LAZY_NAMESPACES) - {"repro.__main__", "repro.lazy", "repro.nemesis.plans"}
    assert sorted(m for m in behind if not m.endswith(".cli")) == []


def test_every_lazy_name_resolves_and_star_import_works():
    probe = (
        "import importlib\n"
        "for name in %r:\n"
        "    module = importlib.import_module(name)\n"
        "    assert set(module.__all__) <= set(dir(module)), name\n"
        "    for attr in module.__all__:\n"
        "        getattr(module, attr)\n"
        "    assert not hasattr(module, 'no_such_name'), name\n"
        "from repro import *\n"
        "print(Simulator.__name__, build_testbed.__name__)\n"
    ) % (LAZY_NAMESPACES,)
    assert _python("-c", probe).split() == ["Simulator", "build_testbed"]


def _subcommands():
    (action,) = build_parser()._subparsers._group_actions
    return list(action.choices)


@pytest.mark.parametrize("command", [None] + _subcommands())
def test_help_parses_in_a_fresh_interpreter(command):
    """A handler-local import cannot break argument parsing."""
    words = [command] if command else []
    usage = " ".join(["usage: python -m repro"] + words)
    assert usage in _python("-m", "repro", *words, "--help")
