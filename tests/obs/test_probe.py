"""The probe seam: observers never move the model, and the vocabulary
holds no point that nothing emits."""

import pytest

from repro.experiments import run_traced_andrew
from repro.nemesis import ALL_PROTOCOLS, matrix, run_cell
from repro.obs.probe import Probe

#: the observer lattice, as the environment switches that arm each point
LATTICE = {
    "nothing": {},
    "tracer+metrics": {"REPRO_TRACE": "1"},
    "obs": {"REPRO_OBS": "1"},
    "sanitizer": {"REPRO_SANITIZE": "nonstrict"},
    "all four": {"REPRO_TRACE": "1", "REPRO_OBS": "1", "REPRO_SANITIZE": "nonstrict"},
}


def _arm(monkeypatch, switches):
    for name in LATTICE["all four"]:
        monkeypatch.delenv(name, raising=False)
    for name, value in switches.items():
        monkeypatch.setenv(name, value)


def _tallies(bed):
    out = {"net": bed.network.stats.as_dict()}
    for host in bed.server_hosts + bed.client_hosts:
        out[host.name] = {
            "client": host.rpc.client_stats.as_dict(),
            "server": host.rpc.server_stats.as_dict(),
            "cache": host.cache.stats.as_dict(),
            "disks": {name: d.stats.as_dict() for name, d in sorted(host.disks.items())},
        }
    return out


@pytest.mark.parametrize("plan", ["partition-heal-crash", "flaky-net"])
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_zero_event_parity_over_the_observer_lattice(monkeypatch, protocol, plan):
    beds = []
    build = matrix.ResilienceBed

    def keep(*args, **kwargs):
        beds.append(build(*args, **kwargs))
        return beds[-1]

    monkeypatch.setattr(matrix, "ResilienceBed", keep)
    seen = {}
    for point, switches in LATTICE.items():
        _arm(monkeypatch, switches)
        cell = run_cell(protocol, "seq-sharing", plan, seed=1)
        bed = beds[-1]
        sim = bed.sim
        on = [sim.tracer, sim.metrics, sim.obs, sim.sanitizer]
        assert (sim.probe is None) == (point == "nothing")
        assert sum(o is not None for o in on) == {
            "nothing": 0, "tracer+metrics": 2, "obs": 2, "sanitizer": 1, "all four": 4,
        }[point]
        seen[point] = {
            # verdict, violations, simulated elapsed, workload stats,
            # fault events, recovery rejections
            "cell": cell.as_dict(),
            "entries": repr(sim._counter),
            "now": sim.now,
            "tallies": _tallies(bed),
        }
    for point in LATTICE:
        assert seen[point] == seen["nothing"], point


def test_every_probe_point_is_emitted(monkeypatch):
    """An all-on small two-client Andrew plus a lossy and a crashing
    cell reach every public Probe method: a point nobody emits cannot
    survive here."""
    vocabulary = {
        name for name, attr in vars(Probe).items()
        if callable(attr) and not name.startswith("_")
    }
    assert 20 <= len(vocabulary) <= 30  # "about twenty", and fixed
    reached = set()

    def counted(name, method):
        def wrapper(self, *args, **kwargs):
            reached.add(name)
            return method(self, *args, **kwargs)

        return wrapper

    for name in vocabulary:
        monkeypatch.setattr(Probe, name, counted(name, getattr(Probe, name)))
    _arm(monkeypatch, LATTICE["all four"])
    run = run_traced_andrew("snfs", seed=1989)
    assert run.sim.sanitizer is not None and run.sim.obs is not None
    for plan in ("flaky-net", "server-crash"):
        assert run_cell("snfs", "seq-sharing", plan, seed=1).error is None
    assert vocabulary - reached == set()


def test_abandoned_queue_wait_is_dropped_not_counted(runner):
    # no matrix cell abandons a stamped wait, so this branch of
    # Probe.wait_end gets its own case
    from repro.sim import Interrupt, Resource

    sim = runner.sim
    obs = sim.enable_obs()
    arm = Resource(sim, name="arm")
    arm.obs_kind = "disk"

    def holder():
        yield arm.acquire()
        yield 2.0
        arm.release()

    def quitter():
        try:
            yield arm.acquire()
        except Interrupt:
            return "gave up"

    def patient():
        yield arm.acquire()
        arm.release()
        return sim.now

    sim.spawn(holder())
    victim = sim.spawn(quitter())
    sim.after(1.0, victim.interrupt)
    assert runner.run(patient()) == 2.0
    assert victim.value == "gave up"
    assert obs._stamps == {}
    assert obs.waits["disk"] == {"waits": 1, "wait_s": 2.0}
