"""Tests for the fast-path engine features: cancellable timers, the
``after()`` handle API, AnyOf loser detachment, and the O(1)
unhandled-failure bookkeeping."""

import pytest

from repro.sim import AnyOf, Resource, SimulationError, Simulator, Timeout


# -- Timeout.cancel ----------------------------------------------------------


def test_cancelled_timeout_never_fires():
    sim = Simulator()
    timer = sim.timeout(1.0, value="boom")
    timer.cancel()
    sim.run()
    assert not timer.triggered
    assert sim.now == 0.0  # nothing left to run; clock never advanced


def test_cancel_is_idempotent_and_noop_after_fire():
    sim = Simulator()
    timer = sim.timeout(1.0, value="v")
    sim.run()
    assert timer.triggered and timer.value == "v"
    timer.cancel()  # already fired: harmless
    timer.cancel()
    assert timer.triggered

    fresh = sim.timeout(1.0)
    fresh.cancel()
    fresh.cancel()  # double-cancel: harmless
    sim.run()
    assert not fresh.triggered


def test_cancelled_timer_is_skipped_not_dispatched():
    sim = Simulator()
    order = []

    def proc():
        yield sim.timeout(2.0)
        order.append(sim.now)

    doomed = sim.timeout(1.0)
    sim.spawn(proc())
    doomed.cancel()
    sim.run()
    # the run must not stop (or advance the clock) at the dead timer's
    # 1.0 deadline
    assert order == [2.0]


def test_peek_skips_cancelled_timers():
    sim = Simulator()
    first = sim.timeout(1.0)
    sim.timeout(2.0)
    assert sim.peek() == 1.0
    first.cancel()
    assert sim.peek() == 2.0


def test_run_until_limit_with_only_cancelled_work():
    sim = Simulator()
    gate = sim.event("gate")
    sim.timeout(5.0).cancel()
    sim.run_until(gate, limit=3.0)
    assert not gate.triggered
    assert sim.now == 0.0  # queue held only dead entries: nothing ran


# -- Simulator.after ---------------------------------------------------------


def test_after_runs_callback_with_args():
    sim = Simulator()
    seen = []
    handle = sim.after(1.5, seen.append, "x")
    assert handle.active
    sim.run()
    assert seen == ["x"]
    assert not handle.active


def test_after_cancel_prevents_callback():
    sim = Simulator()
    seen = []
    handle = sim.after(1.5, seen.append, "x")
    handle.cancel()
    assert not handle.active
    sim.run()
    assert seen == []
    handle.cancel()  # idempotent


def test_after_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.after(-0.5, lambda: None)


def test_after_preserves_fifo_with_timeouts():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    sim.spawn(proc("a"))
    sim.after(1.0, order.append, "b")
    sim.spawn(proc("c"))
    sim.run()
    # the bare timer was scheduled before either process got to yield
    # its timeout, so at t=1.0 it fires first
    assert order == ["b", "a", "c"]


# -- AnyOf loser detachment --------------------------------------------------


def test_anyof_detaches_loser_callbacks():
    sim = Simulator()
    fast = sim.timeout(0.1)
    slow = sim.timeout(100.0)
    race = AnyOf(sim, [fast, slow])
    assert len(slow.callbacks) == 1
    sim.run(until=1.0)
    assert race.triggered and race.value[0] is fast
    # the loser no longer references the condition...
    assert slow.callbacks == []
    # ...and can be cancelled so the run queue drains early
    slow.cancel()
    assert sim.peek() is None


def test_anyof_loser_can_still_fire_harmlessly():
    sim = Simulator()
    fast = sim.timeout(0.1, value="fast")
    slow = sim.timeout(0.2, value="slow")
    race = AnyOf(sim, [fast, slow])
    sim.run()
    assert race.value == (fast, "fast")
    assert slow.triggered  # un-cancelled loser fires normally


def test_anyof_detaches_on_failure_too():
    sim = Simulator()

    class Boom(Exception):
        pass

    failing = sim.event("failing")
    slow = sim.timeout(100.0)
    race = AnyOf(sim, [failing, slow])
    race.defuse()
    failing.fail(Boom())
    sim.run(until=1.0)
    assert race.exception is not None
    assert slow.callbacks == []


# -- unhandled-failure bookkeeping ------------------------------------------


def test_many_concurrent_waiterless_failures_surface_first():
    # regression for the O(n) list.remove bookkeeping: thousands of
    # same-instant failures must stay cheap and surface in FIFO order
    sim = Simulator()

    class Boom(Exception):
        pass

    events = [sim.event("e%d" % i) for i in range(2000)]
    for i, ev in enumerate(events):
        ev.fail(Boom(i))
        if i % 2 == 1:
            ev.defuse()  # exercise the discard path for half of them
    with pytest.raises(Boom) as info:
        sim.run()
    assert info.value.args[0] == 0  # the first un-defused failure wins


def test_dispatched_failures_do_not_resurface():
    sim = Simulator()

    class Boom(Exception):
        pass

    results = []

    def waiter(ev):
        try:
            yield ev
        except Boom as exc:
            results.append(exc.args[0])

    events = [sim.event("e%d" % i) for i in range(50)]
    procs = [sim.spawn(waiter(ev)) for ev in events]

    def fail_all():
        for i, ev in enumerate(events):
            ev.fail(Boom(i))

    sim.after(1.0, fail_all)  # waiters park at t=0, failures land at t=1
    sim.run()
    assert results == list(range(50))
    assert all(p.triggered for p in procs)


# -- ordering preservation ---------------------------------------------------


def test_trigger_and_timer_interleave_in_seq_order():
    # mixed ready-deque and heap work due at the same instant must run
    # in global scheduling order, exactly as the single-heap engine did
    sim = Simulator()
    order = []

    def waiter(ev, tag):
        yield ev
        order.append(tag)

    def firer(ev):
        yield sim.timeout(1.0)
        ev.succeed()
        order.append("fired")

    ev = sim.event("gate")
    sim.spawn(waiter(ev, "w"))
    sim.spawn(firer(ev))

    def late():
        yield sim.timeout(1.0)
        order.append("late-timer")

    sim.spawn(late())
    sim.run()
    # at t=1.0: firer resumes (succeeds gate), then the late timer that
    # was scheduled at t=0 fires, then the gate's waiter (queued at
    # t=1.0, after the late timer) resumes
    assert order == ["fired", "late-timer", "w"]


def test_slotted_events_reject_ad_hoc_attributes():
    sim = Simulator()
    ev = sim.event("x")
    with pytest.raises(AttributeError):
        ev.scratch = 1  # __slots__: no per-instance dict on the hot path


# -- waiterless triggers ------------------------------------------------------


def test_waiterless_success_schedules_nothing():
    sim = Simulator()
    sim.timeout(7.0)
    before = next(sim._counter)
    ev = sim.event("nobody-waits").succeed("v")
    assert ev.triggered and ev.value == "v" and ev.callbacks is None
    assert len(sim._ready) == 0
    assert sim.peek() == 7.0  # not "now": there is no entry at this instant
    assert next(sim._counter) == before + 1  # no sequence number was drawn


def test_uncontended_acquire_and_unjoined_process_schedule_nothing():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker():
        yield res.acquire()
        res.release()

    sim.spawn(worker())
    sim.run()
    # spawn's first resume, then the resume on the already-granted
    # acquire: two entries, none for the grant or for the process's end
    assert next(sim._counter) == 2


def test_late_waiter_on_a_waiterless_success_still_gets_the_value():
    sim = Simulator()
    ev = sim.event().succeed(41)
    got = []

    def late():
        got.append((yield ev))

    sim.spawn(late())
    sim.run()
    assert got == [41]


def test_waiterless_failure_still_surfaces_from_run():
    sim = Simulator()
    sim.event("orphan").fail(KeyError("lost"))
    assert len(sim._ready) == 1  # the failed event keeps its dispatch entry
    with pytest.raises(KeyError, match="lost"):
        sim.run()
