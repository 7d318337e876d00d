"""Tests for processes: spawning, joining, interrupts, failure propagation."""

import pytest

from repro.sim import Interrupt, Resource, SimulationError, Simulator


def test_process_return_value_visible_to_joiner():
    sim = Simulator()
    got = []

    def child(sim):
        yield sim.timeout(2.0)
        return "done"

    def parent(sim):
        value = yield sim.spawn(child(sim))
        got.append((sim.now, value))

    sim.spawn(parent(sim))
    sim.run()
    assert got == [(2.0, "done")]


def test_join_finished_process():
    sim = Simulator()
    got = []

    def child(sim):
        yield sim.timeout(1.0)
        return 7

    def parent(sim):
        proc = sim.spawn(child(sim))
        yield sim.timeout(5.0)
        value = yield proc
        got.append(value)

    sim.spawn(parent(sim))
    sim.run()
    assert got == [7]


def test_child_exception_propagates_to_joiner():
    sim = Simulator()
    caught = []

    def child(sim):
        yield sim.timeout(1.0)
        raise KeyError("oops")

    def parent(sim):
        try:
            yield sim.spawn(child(sim))
        except KeyError as exc:
            caught.append(exc.args[0])

    sim.spawn(parent(sim))
    sim.run()
    assert caught == ["oops"]


def test_interrupt_raises_at_wait_point():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
            log.append("slept")
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))

    def waker(sim, victim):
        yield sim.timeout(3.0)
        victim.interrupt("wake-up")

    victim = sim.spawn(sleeper(sim))
    sim.spawn(waker(sim, victim))
    sim.run()
    assert log == [("interrupted", 3.0, "wake-up")]


def test_interrupted_process_can_continue():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            pass
        yield sim.timeout(1.0)
        log.append(sim.now)

    def waker(sim, victim):
        yield sim.timeout(3.0)
        victim.interrupt()

    victim = sim.spawn(sleeper(sim))
    sim.spawn(waker(sim, victim))
    sim.run()
    assert log == [4.0]


def test_interrupt_finished_process_is_error():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)

    proc = sim.spawn(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_interrupt_does_not_fire_original_wait():
    """After an interrupt, the event the process was waiting on must not
    resume it a second time when it eventually triggers."""
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(10.0)
            log.append("timeout-resumed")
        except Interrupt:
            log.append("interrupted")
        yield sim.timeout(50.0)
        log.append("second-sleep-done")

    def waker(sim, victim):
        yield sim.timeout(1.0)
        victim.interrupt()

    victim = sim.spawn(sleeper(sim))
    sim.spawn(waker(sim, victim))
    sim.run()
    assert log == ["interrupted", "second-sleep-done"]


def _wait(sim, style, delay, value=None):
    """One wait of ``delay`` seconds, written either way."""
    return sim.timeout(delay, value) if style == "timeout" else delay


@pytest.mark.parametrize("style", ["timeout", "sleep"])
def test_interrupt_before_first_slice_detaches_the_first_wait(style):
    """interrupt() on a process that has not run yet cannot detach a wait
    that does not exist; the throw itself must, or the first timer later
    wakes the second wait."""
    sim = Simulator()
    log = []

    def victim():
        try:
            yield _wait(sim, style, 5.0, "t1")
            log.append("t1-resumed")
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))
        got = yield _wait(sim, style, 100.0, "t2")
        log.append(("woke", sim.now, got))

    proc = sim.spawn(victim())
    proc.interrupt("early")
    sim.run()
    want = "t2" if style == "timeout" else None
    assert log == [("interrupted", 0.0, "early"), ("woke", 100.0, want)]


@pytest.mark.parametrize("style", ["timeout", "sleep"])
def test_two_interrupts_in_one_instant_leave_no_stale_wait(style):
    """The wait entered between two queued throws is abandoned by the
    second one and must not wake whatever the process waits on next."""
    sim = Simulator()
    log = []

    def victim():
        for n, delay in enumerate((10.0, 20.0, 30.0), 1):
            try:
                got = yield _wait(sim, style, delay, "t%d" % n)
                log.append(("woke", n, sim.now, got))
            except Interrupt as intr:
                log.append(("interrupted", n, sim.now, intr.cause))

    def waker(proc):
        yield sim.timeout(1.0)
        proc.interrupt("a")
        proc.interrupt("b")

    sim.spawn(waker(sim.spawn(victim())))
    sim.run()
    want = "t3" if style == "timeout" else None
    assert log == [
        ("interrupted", 1, 1.0, "a"),
        ("interrupted", 2, 1.0, "b"),
        ("woke", 3, 31.0, want),
    ]


@pytest.mark.parametrize("first_wait", ["event", "granted-acquire"])
def test_throw_does_not_overtake_a_wakeup_already_queued(first_wait):
    """A wait that ended between interrupt() and the throw has its resume
    queued behind the throw.  Throwing first would leave that resume to
    wake the *next* wait, so the resume is delivered first and the
    Interrupt lands one wait later — what interrupt() on a process whose
    wakeup is already queued has always done."""
    sim = Simulator()
    log = []
    gate = sim.event()
    cpu = Resource(sim, capacity=1, name="cpu")

    def victim():
        got = yield (gate if first_wait == "event" else cpu.acquire())
        log.append(("first", sim.now, got))
        try:
            yield sim.timeout(50.0)
            log.append("slept")
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))
        got = yield sim.timeout(100.0, "t3")
        log.append(("woke", sim.now, got))

    proc = sim.spawn(victim())
    sim.call_soon(gate.succeed, "g")  # runs between the first slice and the throw
    proc.interrupt("early")
    sim.run()
    first = "g" if first_wait == "event" else cpu
    assert log == [
        ("first", 0.0, first),
        ("interrupted", 0.0, "early"),
        ("woke", 100.0, "t3"),
    ]


def test_second_interrupt_does_not_make_the_first_overtake_a_queued_wakeup():
    """interrupt() on a process whose wakeup is queued must leave it
    marked as waiting on that (triggered) event: an earlier throw still
    queued reads the mark to let the wakeup go first.  Clearing it threw
    the first Interrupt at ``yield cpu.acquire()`` with the unit already
    taken, and nothing ever released it."""
    sim = Simulator()
    log = []
    cpu = Resource(sim, capacity=1, name="cpu")

    def victim():
        yield cpu.acquire()
        try:
            try:
                yield sim.timeout(50.0)
            except Interrupt as intr:
                log.append(("interrupted", sim.now, intr.cause))
            try:
                yield sim.timeout(50.0)
            except Interrupt as intr:
                log.append(("interrupted", sim.now, intr.cause))
        finally:
            cpu.release()

    proc = sim.spawn(victim())
    # "b" is issued after the victim's first slice, while the throw of
    # "a" (issued before it) is still queued
    sim.call_soon(proc.interrupt, "b")
    proc.interrupt("a")
    sim.run()
    assert log == [("interrupted", 0.0, "b"), ("interrupted", 0.0, "a")]
    assert cpu.in_use == 0


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


def test_process_is_alive_tracking():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(5.0)

    proc = sim.spawn(child(sim))
    assert proc.is_alive
    sim.run()
    assert not proc.is_alive


def test_yielding_non_waitable_fails_process():
    sim = Simulator()

    def bad(sim):
        yield 42

    def parent(sim):
        with pytest.raises(SimulationError):
            yield sim.spawn(bad(sim))

    sim.spawn(parent(sim))
    sim.run()


def test_nested_process_chain():
    sim = Simulator()
    got = []

    def leaf(sim):
        yield sim.timeout(1.0)
        return 1

    def middle(sim):
        value = yield sim.spawn(leaf(sim))
        return value + 1

    def root(sim):
        value = yield sim.spawn(middle(sim))
        got.append(value)

    sim.spawn(root(sim))
    sim.run()
    assert got == [2]


def test_many_processes_deterministic():
    sim = Simulator()
    order = []

    def proc(sim, i):
        yield sim.timeout(float(i % 3))
        order.append(i)

    for i in range(9):
        sim.spawn(proc(sim, i))
    sim.run()
    assert order == [0, 3, 6, 1, 4, 7, 2, 5, 8]
