"""SEAM004 fixture: every way model code can reach past the probe."""

import repro.analysis.sanitizer
from repro.metrics.registry import MetricsRegistry
from repro.obs import ObsCollector
from ..trace import Tracer


class Disk:
    def __init__(self, sim):
        self.sim = sim

    def read(self, addr):
        if self.sim.tracer is not None:
            self.sim.tracer.instant("disk.read", addr=addr)
        yield 0.01
        if self.sim.obs is not None:
            self.sim.obs.add("disk.service", 0.01)


def retransmit(sim, proc):
    if sim.metrics is not None:
        sim.metrics.counter("rpc.retrans").inc(proc=proc)
    sanitizer = sim.sanitizer
    return sanitizer
