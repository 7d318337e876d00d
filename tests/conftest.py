"""Shared test helpers."""

import io
import json

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
def lint_report(tmp_path_factory):
    """The full ``lint --strict --atomicity --seam`` walk of ``src/``,
    run once per session: ``(exit code, printed text, JSON document)``."""
    from repro.analysis.cli import run_lint

    out = io.StringIO()
    report = tmp_path_factory.mktemp("lint") / "report.json"
    code = run_lint(
        strict=True, atomicity=True, seam=True, json_out=str(report), out=out
    )
    return code, out.getvalue(), json.loads(report.read_text())
