"""Shared test helpers."""

import io
import json
import os

import pytest

from repro.sim import Simulator


class SimRunner:
    """Drive simulation coroutines to completion from plain test code."""

    def __init__(self):
        self.sim = Simulator()

    def run(self, gen, limit=100000.0):
        """Run one coroutine to completion; return its value or re-raise."""
        box = {}

        def wrapper():
            box["value"] = yield from gen

        proc = self.sim.spawn(wrapper())
        self.sim.run_until(proc, limit=limit)
        if not proc.triggered:
            raise TimeoutError("coroutine did not finish before limit")
        if proc.exception is not None:
            proc.defuse()  # its dispatch may still be queued
            raise proc.exception
        return box.get("value")

    def run_all(self, *gens, limit=100000.0):
        """Run several coroutines concurrently; returns their values."""
        procs = [self.sim.spawn(self._wrap(g)) for g in gens]
        from repro.sim import AllOf

        gate = AllOf(self.sim, procs)
        gate.defuse()
        self.sim.run_until(gate, limit=limit)
        values = []
        for proc in procs:
            if proc.exception is not None:
                proc.defuse()
                raise proc.exception
            values.append(proc.value)
        return values

    @staticmethod
    def _wrap(gen):
        def wrapper():
            result = yield from gen
            return result

        return wrapper()


@pytest.fixture
def no_observers(monkeypatch):
    """The REPRO_* switches off, whatever the CI job exported.  Request
    it before ``runner``: a Simulator reads them as it is constructed."""
    for name in ("REPRO_TRACE", "REPRO_OBS", "REPRO_SANITIZE"):
        monkeypatch.delenv(name, raising=False)


@pytest.fixture
def runner():
    return SimRunner()


@pytest.fixture(scope="session")
def real_tree():
    """``src/repro`` parsed and indexed once per session.  Each static
    pass also runs at most once on it (``index.raw`` keeps the result),
    so every test that asks about the shipped tree shares one walk."""
    import repro
    from repro.analysis.callgraph import index_paths

    pkg = os.path.dirname(os.path.abspath(repro.__file__))
    return index_paths([pkg], package_root=pkg)


def _run_lint_on(real_tree, patch):
    """``run_lint`` with its loader replaced: the default target is the
    already-indexed :func:`real_tree` (file discovery and parsing have
    their own test, ``test_run_lint_parses_each_file_once``)."""
    from repro.analysis import callgraph, cli

    patch.setattr(callgraph, "index_paths", lambda paths, package_root=None: real_tree)
    return cli.run_lint


@pytest.fixture
def lint_real_tree(real_tree, monkeypatch):
    return _run_lint_on(real_tree, monkeypatch)


@pytest.fixture(scope="session")
def lint_report(tmp_path_factory, real_tree):
    """The full ``lint --strict --atomicity --seam`` run over ``src/``,
    once per session: ``(exit code, printed text, JSON document)``."""
    out = io.StringIO()
    report = tmp_path_factory.mktemp("lint") / "report.json"
    with pytest.MonkeyPatch.context() as patch:
        code = _run_lint_on(real_tree, patch)(
            strict=True, atomicity=True, seam=True, json_out=str(report), out=out
        )
    return code, out.getvalue(), json.loads(report.read_text())
