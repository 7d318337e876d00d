"""Nemesis workloads: application behavior for the conformance matrix.

Two disciplines, chosen to exercise the two halves of the paper's
consistency argument:

* **seq-sharing** — sequential write-sharing, the discipline
  close-to-open consistency covers (§2.3): a writer commits a fresh
  record via open/write/close while a reader polls via open/read/close.
  The reader keeps polling until the writer has committed its last
  record, so cells with long recovery windows still get post-recovery
  reads judged by the oracle.

* **meta-churn** — a metadata-heavy storm (create, write, rename,
  stat, readdir, unlink) motivated by the metadata-traffic skew of
  real deployments: one client churns a shared directory while the
  other walks it.  Namespace races (a file unlinked between readdir
  and stat) are *application-level* errors, caught and counted — a
  weak protocol must surface as oracle violations or counted errors,
  never as an unhandled crash.

Both are pure coroutine factories over a
:class:`~repro.experiments.resilience.ResilienceBed` with two clients;
each returns a stats dict (operation and error counts) merged into the
cell record.
"""

from __future__ import annotations

from typing import Dict

from ..fs import FsError
from ..fs.types import OpenMode
from ..workloads.sharing import RECORD_SIZE, sharing_record

__all__ = ["NEMESIS_WORKLOADS", "run_workload", "drive_sharing_pairs"]

#: the sharing workloads' size: records committed, and the writer's and
#: reader's periods in simulated seconds
N_UPDATES, WRITE_PERIOD, READ_PERIOD = 10, 4.0, 1.5


def drive_sharing_pairs(bed, pairs) -> Dict[str, int]:
    """Run every ``(writer_kernel, reader_kernel, path)`` pair at once:
    the writer commits :data:`N_UPDATES` records to ``path`` via
    open/write/close while the reader polls it via open/read/close
    until the last commit.  ``path``'s directory is created when it is
    not the mount root."""
    sim = bed.sim
    stats = {"writes": 0, "reads": 0, "app_errors": 0}

    def setup(kernel, path):
        parent = path.rsplit("/", 1)[0]
        if parent != "/data":
            yield from kernel.mkdir(parent)
        fd = yield from kernel.open(
            path, OpenMode.WRITE, create=True, truncate=True
        )
        yield from kernel.write(fd, sharing_record(0))
        yield from kernel.close(fd)

    def writer(kernel, path, state):
        try:
            for seq in range(1, N_UPDATES + 1):
                yield sim.timeout(WRITE_PERIOD)
                try:
                    fd = yield from kernel.open(path, OpenMode.WRITE)
                    yield from kernel.write(fd, sharing_record(seq))
                    yield from kernel.close(fd)
                    stats["writes"] += 1
                except FsError:
                    # grace-window rejections and crash-window timeouts
                    # are application-visible errors, not consistency
                    # violations
                    stats["app_errors"] += 1
        finally:
            state["done"] = True

    def reader(kernel, path, state):
        # offset the poll phase so reads never race the millisecond-
        # scale windows where the writer holds the file open
        yield sim.timeout(WRITE_PERIOD / 2 + 0.13)
        while not state["done"]:
            try:
                fd = yield from kernel.open(path, OpenMode.READ)
                yield from kernel.read(fd, RECORD_SIZE)
                yield from kernel.close(fd)
                stats["reads"] += 1
            except FsError:
                stats["app_errors"] += 1
            yield sim.timeout(READ_PERIOD)

    coros = []
    for writer_kernel, reader_kernel, path in pairs:
        bed.run(setup(writer_kernel, path))
        state = {"done": False}
        coros.append(writer(writer_kernel, path, state))
        coros.append(reader(reader_kernel, path, state))
    bed.run_all(*coros)
    return stats


def run_seq_sharing(bed) -> Dict[str, int]:
    """Writer commits records; reader polls until the last commit."""
    pair = (bed.kernels[0], bed.kernels[1], "/data/shared.dat")
    return drive_sharing_pairs(bed, [pair])


def run_meta_churn(bed, n_rounds: int = 12, period: float = 2.5) -> Dict[str, int]:
    """One client churns a directory's namespace; the other walks it."""
    sim = bed.sim
    churn_kernel = bed.kernels[0]
    walk_kernel = bed.kernels[1]
    stats = {"churn_ops": 0, "walk_ops": 0, "app_errors": 0}
    state = {"done": False}

    bed.run(churn_kernel.mkdir("/data/churn"))

    def churner():
        try:
            for i in range(n_rounds):
                yield sim.timeout(period)
                name = "/data/churn/f%02d" % i
                try:
                    fd = yield from churn_kernel.open(
                        name, OpenMode.WRITE, create=True, truncate=True
                    )
                    yield from churn_kernel.write(fd, sharing_record(i))
                    yield from churn_kernel.close(fd)
                    yield from churn_kernel.rename(name, name + ".done")
                    yield from churn_kernel.stat(name + ".done")
                    stats["churn_ops"] += 4
                    if i >= 3 and i % 3 == 0:
                        yield from churn_kernel.unlink(
                            "/data/churn/f%02d.done" % (i - 3)
                        )
                        stats["churn_ops"] += 1
                except FsError:
                    stats["app_errors"] += 1
        finally:
            state["done"] = True

    def walker():
        yield sim.timeout(period / 2 + 0.2)
        while not state["done"]:
            try:
                names = yield from walk_kernel.readdir("/data/churn")
                stats["walk_ops"] += 1
                for name in sorted(names):
                    if not name.endswith(".done"):
                        continue
                    try:
                        path = "/data/churn/" + name
                        yield from walk_kernel.stat(path)
                        fd = yield from walk_kernel.open(path, OpenMode.READ)
                        yield from walk_kernel.read(fd, RECORD_SIZE)
                        yield from walk_kernel.close(fd)
                        stats["walk_ops"] += 3
                    except FsError:
                        # unlinked or renamed under us: an application-
                        # level race, not a consistency violation
                        stats["app_errors"] += 1
            except FsError:
                stats["app_errors"] += 1
            yield sim.timeout(period)

    bed.run_all(churner(), walker())
    return stats


#: workload name -> runner(bed) -> stats dict
NEMESIS_WORKLOADS = {
    "seq-sharing": run_seq_sharing,
    "meta-churn": run_meta_churn,
}


def run_workload(name: str, bed) -> Dict[str, int]:
    try:
        runner = NEMESIS_WORKLOADS[name]
    except KeyError:
        raise ValueError("unknown nemesis workload %r" % name) from None
    return runner(bed)
