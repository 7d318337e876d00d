"""Tests for the sharded failover nemesis rows: matrix cells with a
topology, run by the same ``run_cell`` / ``run_matrix`` as any other."""

import pytest

from repro.nemesis import (
    ALL_PROTOCOLS,
    NEMESIS_PLANS,
    NEMESIS_WORKLOADS,
    SHARDED_PROTOCOLS,
    SHARDED_ROWS,
    render_matrix,
    run_cell,
    run_matrix,
)
from repro.nemesis.matrix import cell_seed, nemesis_document

((WORKLOAD, PLAN),) = SHARDED_ROWS
SHARDED_AXES = dict(
    protocols=SHARDED_PROTOCOLS, workloads=(WORKLOAD,), plans=(PLAN,)
)

#: ``run_sharded_cell(protocol, seed).as_dict()`` as the parent commit
#: (PR 13, ad8d0e3) produced it, before that function was folded into
#: ``run_cell`` — no fault in the plan draws a random number, so only
#: the derived seed differs between matrix seeds 1 and 7
PARENT_DICTS = {
    ("snfs", 1): {
        "id": "snfs/shard-spread/shard0-crash-during-grace",
        "protocol": "snfs", "workload": "shard-spread",
        "plan": "shard0-crash-during-grace", "seed": 1861552394,
        "verdict": "pass", "elapsed": 69.91855, "violations": {},
        "allowed": [],
        "stats": {"app_errors": 0, "healthy_epochs_stable": 1, "reads": 74,
                  "shard0_reboots": 2, "writes": 30},
        "fault_events": 4, "recovery_rejections": 4, "error": None,
    },
    ("lease", 1): {
        "id": "lease/shard-spread/shard0-crash-during-grace",
        "protocol": "lease", "workload": "shard-spread",
        "plan": "shard0-crash-during-grace", "seed": 1177135348,
        "verdict": "pass", "elapsed": 124.697353, "violations": {},
        "allowed": [],
        "stats": {"app_errors": 0, "healthy_epochs_stable": 1, "reads": 89,
                  "shard0_reboots": 2, "writes": 30},
        "fault_events": 4, "recovery_rejections": 3, "error": None,
    },
}
PARENT_DICTS["snfs", 7] = dict(PARENT_DICTS["snfs", 1], seed=1861552396)
PARENT_DICTS["lease", 7] = dict(PARENT_DICTS["lease", 1], seed=1177135346)


@pytest.mark.parametrize("protocol", SHARDED_PROTOCOLS)
def test_sharded_failover_cell_passes(protocol):
    cell = run_cell(protocol, WORKLOAD, PLAN, seed=1)
    assert cell.error is None
    assert cell.verdict == "pass"
    assert cell.violations == {}
    # the plan really fired: shard 0 power-cycled twice (the second
    # crash inside the first reboot's grace window) ...
    assert cell.stats["shard0_reboots"] == 2
    assert cell.fault_events > 0
    # ... and no healthy shard noticed
    assert cell.stats["healthy_epochs_stable"] == 1
    # the workload did real sharing through the window
    assert cell.stats["writes"] > 0
    assert cell.stats["reads"] > 0


@pytest.mark.parametrize("protocol,seed", sorted(PARENT_DICTS))
def test_run_cell_reproduces_the_parents_sharded_cell(protocol, seed):
    cell = run_cell(protocol, WORKLOAD, PLAN, seed)
    assert cell.as_dict() == PARENT_DICTS[protocol, seed]
    # key order is part of the written document (sort_keys=False)
    assert list(cell.as_dict()) == list(PARENT_DICTS[protocol, seed])


def test_sharded_cell_seed_is_deterministic():
    a = run_cell("snfs", WORKLOAD, PLAN, seed=1)
    b = run_cell("snfs", WORKLOAD, PLAN, seed=1)
    assert a.as_dict() == b.as_dict()
    assert a.seed == cell_seed(a.id, 1)


def test_sharded_cells_reject_unknown_protocol():
    with pytest.raises(ValueError, match="sharded cell protocol"):
        run_matrix(protocols=("nfs",), workloads=(WORKLOAD,), plans=(PLAN,))
    # a sharded workload or plan crossed with a matrix axis is no row
    with pytest.raises(ValueError, match="unknown workload"):
        run_matrix(protocols=("snfs",), workloads=(WORKLOAD,), plans=("calm",))
    with pytest.raises(ValueError, match="unknown plan"):
        run_matrix(protocols=("snfs",), workloads=("seq-sharing",), plans=(PLAN,))


def test_sharded_cells_render_and_document():
    cells = run_matrix(seed=1, **SHARDED_AXES)
    assert len(cells) == len(SHARDED_PROTOCOLS)
    text = render_matrix(cells, seed=1)
    assert "shard0-crash-during-grace" in text
    assert "FAIL" not in text
    # the cells slot into the standard nemesis document machinery
    doc = nemesis_document(cells, seed=1)
    assert doc["summary"]["pass"] == len(cells)
    assert doc["summary"]["fail"] == 0
    assert doc["digest"].startswith("0da937b709b0802c")


def test_sharded_rows_identical_serial_vs_pooled():
    serial_timing, pooled_timing = {}, {}
    serial = run_matrix(seed=1, jobs=1, timing=serial_timing, **SHARDED_AXES)
    pooled = run_matrix(seed=1, jobs=2, timing=pooled_timing, **SHARDED_AXES)
    assert [c.as_dict() for c in serial] == [c.as_dict() for c in pooled]
    assert [c.as_dict() for c in serial] == [
        PARENT_DICTS[p, 1] for p in SHARDED_PROTOCOLS
    ]
    assert (serial_timing["jobs"], pooled_timing["jobs"]) == (1, 2)
    assert [c["name"] for c in pooled_timing["cells"]] == [c.id for c in serial]


def test_only_filters_the_sharded_rows():
    (cell,) = run_matrix(seed=1, only="lease/*", **SHARDED_AXES)
    assert cell.id == "lease/%s/%s" % (WORKLOAD, PLAN)
    with pytest.raises(ValueError, match="no cell matches"):
        run_matrix(seed=1, only="nfs/*", **SHARDED_AXES)


def test_failing_sharded_cell_prints_a_standalone_repro_command():
    (cell,) = run_matrix(seed=5, only="snfs/*", **SHARDED_AXES)
    cell.verdict, cell.error = "fail", "shard 0 never power-cycled"
    text = render_matrix([cell], seed=5)
    assert "FAIL %s: shard 0 never power-cycled" % cell.id in text
    assert (
        "reproduce: python -m repro nemesis --sharded --seed 5 --only %s" % cell.id
        in text
    )
    # a matrix cell's command is unchanged
    plain = run_cell("rfs", "meta-churn", "calm", seed=5)
    assert plain.repro_command == (
        "python -m repro nemesis --seed SEED --only rfs/meta-churn/calm"
    )


def test_epoch_conditions_fail_the_cell_and_land_in_its_stats():
    row = SHARDED_ROWS[WORKLOAD, PLAN]
    stats = {}
    assert row.judge_epochs(stats, [1, 1, 1], [3, 1, 1]) is None
    assert stats == {"healthy_epochs_stable": 1, "shard0_reboots": 2}
    assert "healthy shard boot epoch moved" in row.judge_epochs(
        stats, [1, 1, 1], [3, 2, 1]
    )
    assert stats["healthy_epochs_stable"] == 0
    assert "never power-cycled" in row.judge_epochs(stats, [1, 1, 1], [1, 1, 1])
    assert stats["shard0_reboots"] == 0


def test_sharded_rows_are_not_part_of_the_default_matrix():
    assert WORKLOAD not in NEMESIS_WORKLOADS and PLAN not in NEMESIS_PLANS
    assert len(ALL_PROTOCOLS) * len(NEMESIS_WORKLOADS) * len(NEMESIS_PLANS) == 70
