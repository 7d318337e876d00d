"""Concurrent write-sharing workload (§2.3 correctness demonstration).

A writer updates a sequence-numbered record in a shared file at a fixed
period while a reader concurrently polls it.  Each observation is
classified *fresh* (the latest committed sequence number) or *stale*.
NFS shows stale reads inside its probe window; SNFS and RFS never do —
this is the paper's correctness claim made measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..fs.types import OpenMode

__all__ = ["SharingResult", "run_sharing_experiment", "RECORD_SIZE", "sharing_record"]

RECORD_SIZE = 64  # fixed-size record


@dataclass
class SharingResult:
    observations: List[Tuple[float, int, int]] = field(default_factory=list)
    # (time, observed_seq, latest_committed_seq)

    @property
    def total_reads(self) -> int:
        return len(self.observations)

    @property
    def stale_reads(self) -> int:
        return sum(1 for _, seen, latest in self.observations if seen < latest)

    @property
    def stale_fraction(self) -> float:
        return self.stale_reads / self.total_reads if self.observations else 0.0


def sharing_record(seq: int) -> bytes:
    """The sequence-numbered record every sharing workload (this one,
    the resilience runs, the nemesis matrix) commits and polls."""
    body = ("seq=%012d" % seq).encode()
    return body + b"." * (RECORD_SIZE - len(body))


def _parse_seq(data: bytes) -> int:
    try:
        return int(data[4:16])
    except (ValueError, IndexError):
        return -1


def run_sharing_experiment(
    sim,
    writer_kernel,
    reader_kernel,
    path: str,
    n_updates: int = 20,
    write_period: float = 2.0,
    read_period: float = 0.5,
) -> "tuple":
    """Spawn writer+reader; returns (writer_proc, reader_proc, result).

    Callers run the simulation until both processes finish, then read
    ``result``.  The writer keeps the file open for writing the whole
    time (true concurrent write-sharing, not sequential)."""
    result = SharingResult()
    committed = {"seq": 0}
    t0 = sim.now  # anchor: the workload may start deep into a long sim

    def writer():
        k = writer_kernel
        fd = yield from k.open(path, OpenMode.WRITE, create=True, truncate=True)
        yield from k.write(fd, sharing_record(0))
        yield from k.fsync(fd)
        for seq in range(1, n_updates + 1):
            yield sim.timeout(write_period)
            k.lseek(fd, 0)
            yield from k.write(fd, sharing_record(seq))
            yield from k.fsync(fd)  # commit point
            committed["seq"] = seq
        yield from k.close(fd)

    def reader():
        k = reader_kernel
        yield sim.timeout(write_period / 2)  # let the file appear
        fd = yield from k.open(path, OpenMode.READ)
        end_time = t0 + write_period * (n_updates + 1)
        while sim.now < end_time:
            yield sim.timeout(read_period)
            k.lseek(fd, 0)
            data = yield from k.read(fd, RECORD_SIZE)
            result.observations.append(
                (sim.now, _parse_seq(bytes(data)), committed["seq"])
            )
        yield from k.close(fd)

    wp = sim.spawn(writer(), name="sharing-writer")
    rp = sim.spawn(reader(), name="sharing-reader")
    return wp, rp, result
