"""The static/runtime cross-validation contract.

Every SimTSan runtime finding must land inside a statically flagged
region: the atomicity pass promises to over-approximate the hazards
the sanitizer can observe.  Two angles:

* a planted, runnable race (fixture ``planted_race.py``) proves the
  containment machinery end to end — the runtime finding's sites fall
  inside the fixture's flagged region;
* the quick nemesis matrix run under a non-strict sanitizer asserts
  the contract over the real tree (the tree is race-clean, so this
  guards against *future* runtime findings escaping static coverage).
"""

import importlib.util
import os

import pytest

from repro.analysis.callgraph import index_paths
from repro.analysis.linter import flagged_regions, site_in_regions
from repro.sim import Simulator

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
PLANTED = os.path.join(FIXTURES, "planted_race.py")


def load_planted():
    spec = importlib.util.spec_from_file_location("planted_race", PLANTED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_planted_race_is_statically_flagged():
    regions = flagged_regions(index_paths([PLANTED]))
    assert any(q == "Ledger.settle" for _, q, _, _ in regions)


def test_planted_runtime_finding_lands_in_flagged_region():
    module = load_planted()
    sim = Simulator()
    san = sim.enable_sanitizer(strict=False)
    ledger = module.Ledger(sim)
    sim.spawn(ledger.settle("k", 1))
    sim.spawn(ledger.settle("k", 2))
    sim.run()

    races = san.findings_of("write-race")
    assert races, "the planted race must fire at runtime"
    regions = flagged_regions(index_paths([PLANTED]))
    for finding in races:
        assert finding.sites, "runtime findings must carry call sites"
        assert any(site_in_regions(site, regions) for site in finding.sites), (
            finding.message,
            finding.sites,
        )


def test_sites_point_into_the_fixture():
    module = load_planted()
    sim = Simulator()
    san = sim.enable_sanitizer(strict=False)
    ledger = module.Ledger(sim)
    sim.spawn(ledger.settle("k", 1))
    sim.spawn(ledger.settle("k", 2))
    sim.run()
    (finding,) = san.findings_of("write-race")[:1]
    files = {os.path.realpath(f) for f, _ in finding.sites}
    assert os.path.realpath(PLANTED) in files


def test_strict_sanitizer_raises_on_the_planted_race():
    from repro.analysis.sanitizer import SanitizerError

    module = load_planted()
    sim = Simulator()
    sim.enable_sanitizer(strict=True)
    ledger = module.Ledger(sim)
    sim.spawn(ledger.settle("k", 1))
    sim.spawn(ledger.settle("k", 2))
    with pytest.raises(SanitizerError):
        sim.run()


@pytest.fixture(scope="module")
def quick_matrix_findings(monkeypatch_module):
    from repro.nemesis import QUICK_PLANS, run_matrix

    sanitizers = []
    orig = Simulator.enable_sanitizer

    def spy(self, strict=True):
        san = orig(self, strict=strict)
        sanitizers.append(san)
        return san

    monkeypatch_module.setenv("REPRO_SANITIZE", "nonstrict")
    monkeypatch_module.setattr(Simulator, "enable_sanitizer", spy)
    cells = run_matrix(seed=1, plans=QUICK_PLANS)
    return cells, sanitizers


@pytest.fixture(scope="module")
def monkeypatch_module():
    from _pytest.monkeypatch import MonkeyPatch

    mp = MonkeyPatch()
    yield mp
    mp.undo()


def test_nemesis_matrix_ran_sanitized(quick_matrix_findings):
    cells, sanitizers = quick_matrix_findings
    assert len(cells) > 0
    assert len(sanitizers) >= len(cells)
    assert all(not s.strict for s in sanitizers)


def test_every_nemesis_runtime_race_is_statically_covered(
    quick_matrix_findings, real_tree
):
    _, sanitizers = quick_matrix_findings
    regions = flagged_regions(real_tree)
    assert regions, "the tree has reviewed hazards; regions cannot be empty"
    for san in sanitizers:
        for finding in san.findings_of("write-race"):
            assert finding.sites
            assert any(
                site_in_regions(site, regions) for site in finding.sites
            ), (finding.message, finding.sites)
