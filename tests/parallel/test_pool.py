"""The pool contract: pickle-safe specs, ordered collection, failure
isolation (raising AND crashing cells), and honest accounting."""

import pickle

import pytest

from repro.parallel import (
    CellSpec,
    default_jobs,
    pool_accounting,
    run_cell_spec,
    run_cells,
)


def _echo_specs(n):
    return [
        CellSpec(kind="_test-echo", name="echo-%d" % i, params={"i": i, "digest": "d%d" % i})
        for i in range(n)
    ]


def test_cell_spec_round_trips_through_pickle():
    spec = CellSpec(
        kind="nemesis-cell",
        name="snfs/seq-sharing/flaky-net",
        params={"protocol": "snfs", "workload": "seq-sharing", "plan": "flaky-net"},
        seed=1989,
    )
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert clone.params == spec.params


def test_run_cell_spec_unknown_kind_is_error_row_not_raise():
    row = run_cell_spec(CellSpec(kind="no-such-kind", name="x"))
    assert row["error"] is not None
    assert "no-such-kind" in row["error"]
    assert row["result"] is None


def test_serial_and_pooled_rows_agree_in_order_and_content():
    specs = _echo_specs(6)
    serial = run_cells(specs, jobs=1)
    pooled = run_cells(specs, jobs=2)
    assert [r["name"] for r in serial] == [s.name for s in specs]
    assert [r["name"] for r in pooled] == [s.name for s in specs]
    for a, b in zip(serial, pooled):
        assert a["result"] == b["result"]
        assert a["digest"] == b["digest"]
        assert a["error"] is None and b["error"] is None


@pytest.mark.parametrize("jobs", [1, 2])
def test_raising_cell_is_isolated(jobs):
    specs = [
        CellSpec(kind="_test-echo", name="before"),
        CellSpec(kind="_test-raise", name="bad", params={"message": "boom"}),
        CellSpec(kind="_test-echo", name="after"),
    ]
    rows = run_cells(specs, jobs=jobs)
    assert [r["name"] for r in rows] == ["before", "bad", "after"]
    assert rows[0]["error"] is None and rows[2]["error"] is None
    assert "boom" in rows[1]["error"]


def test_crashing_worker_does_not_kill_the_sweep():
    specs = [
        CellSpec(kind="_test-echo", name="survivor-1", params={"i": 1}),
        CellSpec(kind="_test-crash", name="poison"),
        CellSpec(kind="_test-echo", name="survivor-2", params={"i": 2}),
    ]
    rows = run_cells(specs, jobs=2)
    assert [r["name"] for r in rows] == ["survivor-1", "poison", "survivor-2"]
    assert rows[0]["error"] is None
    assert rows[2]["error"] is None
    assert "crash" in rows[1]["error"]


def test_a_bystander_is_not_charged_for_a_crashing_neighbor():
    """The healthy cell is still sleeping when the poison kills the
    pool they share; only the cell that crashes alone is charged."""
    specs = [
        CellSpec(kind="_test-crash", name="poison"),
        CellSpec(kind="_test-echo", name="bystander", params={"sleep": 0.5}),
    ]
    rows = run_cells(specs, jobs=2)
    assert rows[0]["error"] == "worker process crashed (gave up after 3 pool breaks)"
    assert rows[1]["error"] is None
    assert rows[1]["result"] == {"sleep": 0.5}


def test_progress_callback_sees_every_cell_once():
    seen = []
    run_cells(_echo_specs(4), jobs=1, progress=lambda d, t, row: seen.append((d, t, row["name"])))
    assert [s[0] for s in seen] == [1, 2, 3, 4]
    assert all(s[1] == 4 for s in seen)


def test_default_jobs_is_positive():
    assert default_jobs() >= 1


def test_pool_accounting_shape():
    rows = run_cells(_echo_specs(3), jobs=1)
    rows[1]["error"] = "synthetic"
    block = pool_accounting(rows, total_wall_seconds=0.5, jobs=2)
    assert block["jobs"] == 2
    assert block["total_wall_seconds"] == 0.5
    assert len(block["cells"]) == 3
    assert block["cells"][1]["error"] == "synthetic"
    assert "error" not in block["cells"][0]
    assert block["speedup"] == round(block["serial_cell_seconds"] / 0.5, 3)
