"""SimTSan: the runtime race/leak sanitizer."""

import pytest

from repro.analysis.sanitizer import Sanitizer, SanitizerError
from repro.sim import SimulationError, Simulator


def test_env_var_enables_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert Simulator().sanitizer is not None
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert Simulator().sanitizer is None
    monkeypatch.delenv("REPRO_SANITIZE")
    assert Simulator().sanitizer is None


def test_write_race_between_unserialized_processes():
    sim = Simulator()
    san = sim.enable_sanitizer()

    def opener(sim, san):
        span = san.begin("tbl", "f", "open")
        san.note_write("tbl", "f", what="state")
        yield sim.timeout(1.0)  # e.g. waiting on a callback RPC
        san.end(span)

    def intruder(sim, san):
        yield sim.timeout(0.5)
        san.note_write("tbl", "f", what="state")

    sim.spawn(opener(sim, san))
    sim.spawn(intruder(sim, san))
    with pytest.raises(SanitizerError, match="write-race"):
        sim.run()


def test_no_race_when_first_span_has_not_written():
    # the lock-blocked pattern: a span that is merely *waiting* (no
    # writes yet) does not race with another process's write
    sim = Simulator()
    san = sim.enable_sanitizer()

    def blocked(sim, san):
        span = san.begin("tbl", "f", "open")
        yield sim.timeout(1.0)  # parked on a lock, wrote nothing
        san.end(span)

    def writer(sim, san):
        yield sim.timeout(0.5)
        san.note_write("tbl", "f", what="state")

    sim.spawn(blocked(sim, san))
    sim.spawn(writer(sim, san))
    sim.run()
    assert san.findings == []


def test_same_process_reentry_is_not_a_race():
    sim = Simulator()
    san = sim.enable_sanitizer()

    def proc(sim, san):
        span = san.begin("tbl", "f", "op")
        san.note_write("tbl", "f")
        yield sim.timeout(1.0)
        san.note_write("tbl", "f")  # own span: fine
        san.end(span)

    sim.spawn(proc(sim, san))
    sim.run()
    assert san.findings == []


def test_race_on_different_keys_is_independent():
    sim = Simulator()
    san = sim.enable_sanitizer()

    def opener(sim, san):
        span = san.begin("tbl", "f1", "open")
        san.note_write("tbl", "f1")
        yield sim.timeout(1.0)
        san.end(span)

    def other(sim, san):
        yield sim.timeout(0.5)
        san.note_write("tbl", "f2")  # different file: no race

    sim.spawn(opener(sim, san))
    sim.spawn(other(sim, san))
    sim.run()
    assert san.findings == []


def test_event_leak_reported_at_drain():
    sim = Simulator()
    sim.enable_sanitizer()

    def waiter(sim):
        yield sim.event(name="never-triggered")

    sim.spawn(waiter(sim))
    with pytest.raises(SanitizerError, match="event-leak"):
        sim.run()


def test_leak_ok_events_are_exempt():
    # an idle service loop (a worker pool) parks on its
    # queue forever; Store(daemon=True) marks those waits leak_ok
    sim = Simulator()
    sim.enable_sanitizer()

    def service(sim):
        ev = sim.event(name="service-idle")
        ev.leak_ok = True
        yield ev

    sim.spawn(service(sim))
    sim.run()  # must not raise


def test_double_resolve_recorded_alongside_engine_error():
    sim = Simulator()
    san = sim.enable_sanitizer()
    ev = sim.event(name="once")
    ev.succeed(1)
    sim.run()
    with pytest.raises(SimulationError):
        ev.succeed(2)
    finds = san.findings_of("double-resolve")
    assert len(finds) == 1
    assert "once" in finds[0].message


def test_dropped_failure_noted_when_surfaced():
    sim = Simulator()
    san = sim.enable_sanitizer()

    def proc(sim):
        ev = sim.event(name="orphan")
        ev.fail(RuntimeError("boom"))
        return 0
        yield

    sim.spawn(proc(sim))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert len(san.findings_of("dropped-failure")) == 1


def test_rpc_double_reply_reports():
    sim = Simulator()
    san = sim.enable_sanitizer()
    with pytest.raises(SanitizerError, match="rpc-double-reply"):
        san.on_rpc_double_reply("server", ("client", 7), object(), object())


def test_non_strict_mode_collects_without_raising():
    sim = Simulator()
    san = sim.enable_sanitizer(strict=False)

    def opener(sim, san):
        span = san.begin("tbl", "f", "open")
        san.note_write("tbl", "f")
        yield sim.timeout(1.0)
        san.end(span)

    def intruder(sim, san):
        yield sim.timeout(0.5)
        san.note_write("tbl", "f")

    sim.spawn(opener(sim, san))
    sim.spawn(intruder(sim, san))
    sim.run()
    assert len(san.findings_of("write-race")) == 1


def test_fd_sharing_between_processes_is_caught():
    """End to end: two workload processes driving one descriptor.

    A read syscall is a write of the descriptor (its offset moves) and
    yields mid-span when the block must be fetched from the server; a
    second process reading the same fd in that window interleaves."""
    from repro.experiments.cluster import build_testbed
    from repro.fs.types import OpenMode
    from repro.host.config import HostConfig

    tb = build_testbed(
        protocol="snfs", seed=3, host_config=HostConfig(cache_blocks=2)
    )
    sim = tb.sim
    kernel = tb.client.kernel

    def setup():
        fd = yield from kernel.open("/data/shared", OpenMode.WRITE, create=True)
        yield from kernel.write(fd, b"x" * 65536)
        yield from kernel.close(fd)

    tb.run(setup())  # 16 blocks on the server; the 2-block cache is cold

    sim.enable_sanitizer()
    fd_holder = []

    def owner():
        fd = yield from kernel.open("/data/shared", OpenMode.READ)
        fd_holder.append(fd)
        data = yield from kernel.read(fd, 4096)  # fill RPC: yields mid-span
        assert data
        yield from kernel.close(fd)

    def intruder():
        while not fd_holder:
            yield sim.timeout(0.0005)
        yield from kernel.read(fd_holder[0], 4096)

    sim.spawn(owner())
    sim.spawn(intruder())
    with pytest.raises(SanitizerError, match="write-race"):
        sim.run(until=60.0)
