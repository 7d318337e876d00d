"""Simulated statistics repeat bit-exactly, and a drift fails loudly."""

import pytest

from perfbench import harness

SIM = ("sim_elapsed_s", "sim_io_ops", "sim_server_cpu_s")


@pytest.mark.parametrize("name", ["andrew", "sort", "cluster", "nemesis", "localdisk"])
def test_same_seed_same_model_across_invocations_and_passes(name):
    first = harness.run_untraced(name, seed=11, seconds=0, quick=True)
    again = harness.run_untraced(name, seed=11, seconds=0, quick=True)
    traced = harness.run_traced(name, seed=11, seconds=0, quick=True)
    retraced = harness.run_traced(name, seed=11, seconds=0, quick=True)
    assert first["quick"] and traced["quick"]
    for metric in SIM:
        assert first["metrics"][metric] == again["metrics"][metric]
    assert first["model_digest"] == again["model_digest"]
    # the untraced repeats, pass A and pass B were already compared cell
    # by cell inside each run; across the two kinds of run:
    assert traced["sim_elapsed_s"] == first["metrics"]["sim_elapsed_s"]
    assert traced["model_digest"] == first["model_digest"]
    assert traced["metrics"]["sim.entries"] == retraced["metrics"]["sim.entries"] > 0
    assert traced["obs_digest"] == retraced["obs_digest"]
    assert first["failed"] == traced["failed"] == 0


def test_another_seed_is_another_model():
    a = harness.run_untraced("andrew", seed=11, seconds=0, quick=True)
    b = harness.run_untraced("andrew", seed=12, seconds=0, quick=True)
    assert a["model_digest"] != b["model_digest"]


def test_a_drift_names_the_first_differing_cell():
    session = harness.Session("andrew", seed=11, quick=True)
    session.body("timed", "t0")
    session._reference["snfs-tmplocal"]["sim_elapsed"] += 1e-9
    with pytest.raises(harness.DeterminismError, match="snfs-tmplocal.*sim_elapsed"):
        session.body("timed", "t1")


def test_a_counter_drift_is_caught_too():
    session = harness.Session("sort", seed=11, quick=True)
    session.body("timed", "t0")
    session._reference["nfs-64k"]["counters"]["disk_writes"] += 1
    with pytest.raises(harness.DeterminismError, match="nfs-64k.*disk_writes"):
        session.body("instrumented", "b0")


def test_quiet_wall_takes_the_fastest_repeat_of_every_slice():
    def body(slices):
        b = harness.Body("x")
        b.slices = slices
        b.facts = [{"name": "c%d" % i} for i in range(len(slices))]
        return b

    bodies = [body([[1.0, 5.0], [2.0]]), body([[3.0, 1.0], [4.0]])]
    assert harness.quiet_wall(bodies) == 1.0 + 1.0 + 2.0
    with pytest.raises(harness.DeterminismError, match="c0"):
        harness.quiet_wall([body([[1.0, 5.0]]), body([[1.0]])])
