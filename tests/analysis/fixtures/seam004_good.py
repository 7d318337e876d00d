"""SEAM004 fixture: model code that stays behind the probe seam."""

from repro.metrics import Tally  # the always-on counts are not an observer
from .trace import parse_trace  # a sibling module that happens to be named trace


class Disk:
    def __init__(self, sim):
        self.sim = sim
        self.stats = Tally()

    def read(self, addr):
        probe = self.sim.probe
        span = probe.span_begin("disk.read", "disk", "disk", addr=addr) if probe is not None else None
        yield 0.01
        self.stats["reads"] += 1
        if span is not None:
            probe.span_end(span)


class Kernel:
    def __init__(self):
        self.tracer = None  # the oracle's syscall recorder, not sim.tracer

    def close(self, fd):
        if self.tracer is not None:
            self.tracer.on_close(fd)
