"""The verifiers can fail: corrupted outputs raise ops_failed."""

from types import SimpleNamespace

from perfbench import harness, workloads
from perfbench.workloads import WORKLOADS


class FlipOneByte:
    """A kernel double: the first non-empty read comes back with one
    byte flipped; everything else is the real kernel."""

    def __init__(self, kernel):
        self._kernel = kernel
        self._flipped = False

    def __getattr__(self, name):
        return getattr(self._kernel, name)

    def read(self, fd, count):
        data = yield from self._kernel.read(fd, count)
        if data and not self._flipped:
            self._flipped = True
            data = bytes([data[0] ^ 0x01]) + data[1:]
        return data


def _run_cells(name, seed=3):
    workload = WORKLOADS[name]
    cells = list(workload.build(workload.generate(seed, quick=True), seed, harness.Spans(), "timed"))
    for cell in cells:
        cell.run()
    return cells


def test_andrew_read_back_catches_one_flipped_byte():
    cell = _run_cells("andrew")[0]
    assert cell.verify() == []
    cell.kernel = FlipOneByte(cell.kernel)
    failures = cell.verify()
    assert len(failures) == 1 and "files differ" in failures[0]


def test_sort_read_back_catches_one_flipped_byte():
    cell = _run_cells("sort")[0]
    assert cell.verify() == []
    cell.kernel = FlipOneByte(cell.kernel)
    assert len(cell.verify()) == 1


def test_localdisk_checks_pass_clean_and_catch_a_flip():
    cells = _run_cells("localdisk")
    assert [cell.verify() for cell in cells] == [[], []]
    cells[0].kernel = FlipOneByte(cells[0].kernel)
    assert len(cells[0].verify()) == 1


def test_cluster_fails_only_the_client_with_a_short_reread():
    cell = _run_cells("cluster")[0]
    assert cell.verify() == []
    written, reread = cell.result[3]
    cell.result[3] = (written, reread - 1)
    failures = cell.verify()
    assert len(failures) == 1 and "client 3" in failures[0]


def test_nemesis_fail_verdict_is_a_failed_op(monkeypatch):
    def scored_fail(protocol, workload, plan, seed):
        return SimpleNamespace(
            elapsed=1.0, verdict="fail", error=None, violations={"close-to-open": 2}
        )

    monkeypatch.setattr(workloads, "run_cell", scored_fail)
    cell = workloads._MatrixCell("snfs", "seq-sharing", "calm", 1)
    cell.run()
    assert len(cell.verify()) == 1


def test_an_exception_escaping_a_cell_fails_that_cell_not_the_run(monkeypatch):
    workload = WORKLOADS["cluster"]
    real_build = workload.build

    def boom():
        raise RuntimeError("boom")

    def build(inputs, seed, spans, mode):
        for index, cell in enumerate(real_build(inputs, seed, spans, mode)):
            if index == 1:
                cell.run = boom
            yield cell

    monkeypatch.setattr(workload, "build", build)
    session = harness.Session("cluster", seed=3, quick=True)
    body = session.body("timed", "t0")
    n_clients = session.inputs["n_clients"]
    assert body.attempted == 3 * n_clients
    assert len(body.failures) == n_clients
    assert all("boom" in message for message in body.failures)


def test_failed_ops_reach_the_report_and_leave_the_run_alive(monkeypatch):
    real_verify = workloads.BedCell.verify
    monkeypatch.setattr(
        workloads.BedCell, "verify",
        lambda self: real_verify(self) + (["%s: injected" % self.name] if self.name == "nfs-64k" else []),
    )
    doc = harness.run_untraced("sort", seed=3, seconds=0, quick=True)
    assert doc["failed"] == doc["n"] and doc["correct"] is False
    assert doc["attempted"] == 4 * doc["n"]
