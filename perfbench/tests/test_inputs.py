"""Generation stays out of the clock; seeds change inputs, not shape."""

import pytest

from perfbench import harness, workloads
from perfbench.workloads import WORKLOADS


def test_generators_are_never_entered_during_a_timed_body(monkeypatch):
    import repro.workloads.andrew as andrew_module

    state = {"in_body": False, "calls": 0, "inside": 0}

    def guarded(fn):
        def wrapper(*args, **kwargs):
            state["calls"] += 1
            state["inside"] += state["in_body"]
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(workloads, "make_tree", guarded(workloads.make_tree))
    monkeypatch.setattr(workloads, "make_input_records", guarded(workloads.make_input_records))
    # the default AndrewBenchmark falls back to when handed no tree
    monkeypatch.setattr(andrew_module, "make_tree", guarded(andrew_module.make_tree))
    real_run = workloads.BedCell.run

    def run(self):
        state["in_body"] = True
        try:
            return real_run(self)
        finally:
            state["in_body"] = False

    monkeypatch.setattr(workloads.BedCell, "run", run)
    session = harness.Session("localdisk", seed=5, quick=True)
    session.body("timed", "t0")
    session.body("timed", "t1")
    assert state["calls"] >= 2  # a tree and a sort input, made in set-up
    assert state["inside"] == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_seeds_change_the_inputs_but_not_the_shape(name):
    workload = WORKLOADS[name]
    spans = harness.Spans()
    shapes = []
    inputs = []
    for seed in (1, 2):
        made = workload.generate(seed, quick=True)
        inputs.append(made)
        cells = list(workload.build(made, seed, spans, "timed"))
        shapes.append([(cell.name, cell.ops, cell.n_clients) for cell in cells])
    assert shapes[0] == shapes[1]
    if name == "nemesis":
        # its input is the matrix seed itself: the cells' own seeds differ
        assert workloads.cell_seed("nfs/seq-sharing/calm", 1) != workloads.cell_seed(
            "nfs/seq-sharing/calm", 2
        )
    else:
        assert repr(inputs[0]) != repr(inputs[1])
    assert repr(workload.generate(1, quick=True)) == repr(inputs[0])


def test_full_size_trees_are_nominal_at_every_seed():
    import random

    for seed in range(3):
        for tree in workloads._nominal_trees(random.Random(seed), 2):
            assert abs(tree.total_bytes() - 204_000) < 0.01 * 204_000
