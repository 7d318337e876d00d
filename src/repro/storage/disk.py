"""Disk model: seek + rotation + transfer, with a FIFO request queue.

The performance asymmetry this models — synchronous writes cost a full
mechanical access while reads often hit in a memory cache — is the lever
behind every result in the paper, so the disk is modelled explicitly
rather than as a constant delay.

Default parameters approximate the DEC RA81/RA82 drives used in the
paper: ~28 ms average seek, 8.3 ms average rotational latency, ~2.2 MB/s
transfer.  Consecutive accesses to adjacent block addresses skip the
seek (sequential transfer), which is what makes large sequential reads
and writes much cheaper per block than scattered ones.

Fault injection (``repro.faults``) exercises the disk through two
first-class knobs: ``error_rate`` (transient, retryable I/O errors — the
access time is paid, the transfer fails, the driver retries) and
``slow_factor`` (an access-time multiplier for slow-disk windows).  The
fault RNG is seeded so faulted runs replay exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..metrics import Tally
from ..sim import Resource, Simulator

__all__ = ["DiskConfig", "Disk", "DiskError"]

#: retries before a transient-error window is declared a hard failure
_MAX_IO_RETRIES = 64


class DiskError(Exception):
    """An I/O failed repeatedly even after retries (drive unusable)."""


@dataclass
class DiskConfig:
    avg_seek: float = 0.028  # seconds
    avg_rotation: float = 0.0083  # seconds (half revolution)
    transfer_rate: float = 2.2e6  # bytes per second
    block_size: int = 4096


class Disk:
    """A single spindle with FIFO scheduling.

    ``read``/``write`` are simulation coroutines; each acquires the
    drive, pays positioning plus transfer time, and releases.  Callers
    pass the starting block address so sequential runs are detected.
    """

    def __init__(
        self,
        sim: Simulator,
        config: Optional[DiskConfig] = None,
        name: str = "disk",
        seed: int = 0,
    ):
        self.sim = sim
        self.config = config or DiskConfig()
        self.name = name
        self._drive = Resource(sim, capacity=1, name=name)
        self._drive.obs_kind = "disk"
        self._head_pos: Optional[int] = None  # block address after last op
        self.stats = Tally()
        # fault-injection state (see repro.faults); both revert to the
        # fault-free values when the window closes
        self._fault_rng = random.Random(seed)
        self.error_rate = 0.0  # probability one access fails (retried)
        self.slow_factor = 1.0  # access-time multiplier

    def reseed(self, seed: int) -> None:
        """Reset the fault RNG (fault plans reseed disks on install)."""
        self._fault_rng = random.Random(seed)

    # -- timing -------------------------------------------------------------

    def _access_time(self, addr: int, n_blocks: int) -> float:
        cfg = self.config
        transfer = n_blocks * cfg.block_size / cfg.transfer_rate
        if self._head_pos is not None and addr == self._head_pos:
            return transfer  # sequential: no repositioning
        return cfg.avg_seek + cfg.avg_rotation + transfer

    # -- operations ----------------------------------------------------------

    def read(self, addr: int, n_blocks: int = 1):
        """Coroutine: read ``n_blocks`` starting at block ``addr``."""
        yield from self._do_io("reads", addr, n_blocks)

    def write(self, addr: int, n_blocks: int = 1):
        """Coroutine: write ``n_blocks`` starting at block ``addr``."""
        yield from self._do_io("writes", addr, n_blocks)

    def _do_io(self, kind: str, addr: int, n_blocks: int):
        if n_blocks < 1:
            raise ValueError("disk I/O of %d blocks" % n_blocks)
        if not self._drive.try_acquire():
            yield self._drive.acquire()
        probe = self.sim.probe
        span = None
        if probe is not None:
            span = probe.span_begin(
                "disk.%s" % kind[:-1], "disk", self.name, addr=addr, blocks=n_blocks
            )
        try:
            for attempt in range(_MAX_IO_RETRIES + 1):
                delay = self._access_time(addr, n_blocks) * self.slow_factor
                yield delay
                probe = self.sim.probe
                if probe is not None:
                    # every attempt's access time counts, retries included:
                    # the op really did wait on the spindle for all of it
                    probe.spent("disk.service", delay)
                if self.error_rate <= 0 or self._fault_rng.random() >= self.error_rate:
                    break
                # transient failure: the access time was paid for nothing;
                # the driver repositions and retries
                self.stats["io_errors"] += 1
                if probe is not None:
                    probe.mark("disk.io_error", "disk", self.name, addr=addr)
                self._head_pos = None
            else:
                raise DiskError(
                    "%s: %s at %d failed %d times" % (self.name, kind, addr, _MAX_IO_RETRIES)
                )
            self._head_pos = addr + n_blocks
        finally:
            if span is not None:
                probe.span_end(span)
            self._drive.release()
        self.stats[kind] += 1
        self.stats[kind[:-1] + "_blocks"] += n_blocks

    # -- observability ----------------------------------------------------

    def busy_time(self) -> float:
        return self._drive.busy_time()

    @property
    def queue_length(self) -> int:
        return self._drive.queue_length
