"""Serial <-> parallel equivalence, cell kind by cell kind.

The pool's whole determinism argument is that a cell computes the same
result and digest in any process.  These tests run one representative
spec of every registered kind at ``-j1`` and ``-j2`` and require the
rows to be byte-identical once wall-clock accounting is stripped.
"""

import json

import pytest

from repro.nemesis.matrix import cell_seed
from repro.parallel import CellSpec, run_cells


def _stripped(row):
    """The identity-bearing part of a row: all but its wall clock."""
    return json.loads(json.dumps({k: v for k, v in row.items() if k != "wall_seconds"}))


def _assert_equivalent(spec):
    (serial,) = run_cells([spec], jobs=1)
    # jobs=2 with a single spec would take the serial shortcut; pad with
    # an echo cell so the real pool executes the spec under test.
    pooled = run_cells([spec, CellSpec(kind="_test-echo", name="pad")], jobs=2)[0]
    assert serial["error"] is None, serial["error"]
    assert pooled["error"] is None, pooled["error"]
    assert serial["digest"] == pooled["digest"]
    assert _stripped(serial) == _stripped(pooled)
    return serial


def test_load_point_cell_equivalence():
    row = _assert_equivalent(CellSpec(kind="golden-output", name="cluster-nfs-n16"))
    assert row["result"] == row["digest"]


def test_nemesis_cell_equivalence():
    cid = "snfs/seq-sharing/flaky-net"
    row = _assert_equivalent(
        CellSpec(
            kind="nemesis-cell",
            name=cid,
            params={"protocol": "snfs", "workload": "seq-sharing", "plan": "flaky-net"},
            seed=cell_seed(cid, 1989),
        )
    )
    assert row["result"]["id"] == cid
    assert row["result"]["verdict"] in ("pass", "expected-divergence")


def test_golden_output_cell_equivalence():
    row = _assert_equivalent(CellSpec(kind="golden-output", name="consistency-2-3"))
    assert len(row["digest"]) == 64


def test_golden_traced_cell_equivalence():
    row = _assert_equivalent(CellSpec(kind="golden-traced", name="micro-5-3-traced"))
    assert row["digest"]


def test_golden_cells_match_committed_digests():
    golden = json.load(open("tests/golden/golden.json"))
    (out_row,) = run_cells([CellSpec(kind="golden-output", name="consistency-2-3")], jobs=1)
    assert out_row["digest"] == golden["outputs"]["consistency-2-3"]
    (tr_row,) = run_cells([CellSpec(kind="golden-traced", name="micro-5-3-traced")], jobs=1)
    assert tr_row["result"] == golden["trace_digests"]["micro-5-3-traced"]


@pytest.mark.parametrize("jobs", [2, 4])
def test_mixed_kind_sweep_is_order_stable(jobs):
    specs = [
        CellSpec(kind="_test-echo", name="n%d" % i, params={"i": i, "digest": "d%d" % i})
        for i in range(8)
    ]
    rows = run_cells(specs, jobs=jobs)
    assert [r["digest"] for r in rows] == ["d%d" % i for i in range(8)]
