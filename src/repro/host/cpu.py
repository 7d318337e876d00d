"""CPU model: a single processor with busy-time accounting.

Work is expressed directly in seconds of CPU time; ``consume`` acquires
the processor (FIFO with other work on the host) and holds it for that
long.  Utilization — the paper's "percentage of time not spent in the
idle state" — is the resource's busy time, sampled by
:class:`~repro.metrics.UtilizationSampler` for figures 5-1/5-2.
"""

from __future__ import annotations

from ..sim import Resource, Simulator

__all__ = ["Cpu"]


class Cpu:
    """One processor.  ``speed`` scales costs: 2.0 = twice as fast."""

    def __init__(self, sim: Simulator, speed: float = 1.0, name: str = "cpu"):
        if speed <= 0:
            raise ValueError("cpu speed must be positive")
        self.sim = sim
        self.speed = speed
        self.name = name
        self._proc = Resource(sim, capacity=1, name=name)
        self._proc.obs_kind = "cpu"

    def consume(self, seconds: float):
        """Coroutine: burn ``seconds`` of nominal CPU time."""
        if seconds < 0:
            raise ValueError("negative CPU time")
        if seconds == 0:
            return
        if not self._proc.try_acquire():
            yield self._proc.acquire()
        probe = self.sim.probe
        span = None
        if probe is not None:
            span = probe.span_begin("cpu.busy", "cpu", self.name, seconds=seconds)
        try:
            yield seconds / self.speed
            probe = self.sim.probe
            if probe is not None:
                probe.spent("cpu.service", seconds / self.speed)
        finally:
            if span is not None:
                probe.span_end(span)
            self._proc.release()

    def busy_time(self) -> float:
        return self._proc.busy_time()

    @property
    def queue_length(self) -> int:
        return self._proc.queue_length
