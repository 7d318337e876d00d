"""Tests for the fast-path engine features: cancellable timers, the
``after()`` handle API, AnyOf loser detachment, the O(1)
unhandled-failure bookkeeping, and the waits that allocate nothing
(``yield <float seconds>``, the pre-granted ``Resource.acquire``)."""

import math

import pytest

from repro.sim import (
    AnyOf, Interrupt, Resource, SimulationError, Simulator, Timeout,
)


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


# -- sleep == timeout, hold idiom == yield acquire(): same observable model ----
#
# A *program* is a list of processes, each a list of steps:
#   ("sleep", d)      wait d seconds
#   ("hold", r, d)    take a unit of resource r, wait d seconds, release
#   ("join", k)       wait for process k (k < own index: no cycles)
#   ("interrupt", k)  interrupt process k if it is still alive
# run_program executes it in the old spelling ("timeout": every wait is
# ``yield sim.timeout(d)``, every hold begins ``yield res.acquire()``) or
# the one the stack uses now ("sleep": ``yield d``, and the hold idiom
# ``if not res.try_acquire(): yield res.acquire()``).
#
# The two spellings do NOT draw the same sequence numbers and do not
# interleave same-instant work the same way: a sleep's continuation runs
# when its timer fires, an uncontended hold never visits the scheduler.
# What must be equal is what a model can observe: each process's own
# (time, step, outcome) log, where run() stops, every resource's busy
# time, and a clean sanitizer.  That holds for programs whose processes
# never *race* — meet at one instant for unrelated reasons and touch the
# same thing.  Independent processes may collide freely; interacting
# ones (shared units, interrupts) get delays that keep unrelated
# instants apart (``spread_delays``).  Instants that coincide for a
# *cause* — a release and the grant it makes, an end and its joiner, an
# interrupt and its landing — are in every program.
# tests/property/test_sleep_equivalence.py draws random programs.


def _wait(sim, style, d):
    """One wait of ``d`` seconds, written either way."""
    return sim.timeout(d) if style == "timeout" else d


def spread_delays(program, stagger=False):
    """Give every sleep and hold its own power of two as its delay.

    Any instant of the run is then a sum of distinct powers, exact in a
    double, and two instants are equal only if the same waits led to
    both: unrelated processes never act at the same moment — except all
    of them at t=0, in spawn order under either spelling, unless
    ``stagger`` puts one more such sleep in front of every process."""
    # step-major, so that the processes' waits are of like size and their
    # lifetimes overlap; the stagger is the smallest delay of all
    n_procs = len(program)
    depth = max(len(steps) for steps in program)
    spread = []
    for me, steps in enumerate(program):
        row = [("sleep", 2.0 ** -(1 + depth * n_procs + me))] if stagger else []
        for n, step in enumerate(steps):
            d = 2.0 ** -(1 + n * n_procs + me)
            if step[0] == "sleep":
                step = ("sleep", d)
            elif step[0] == "hold":
                step = ("hold", step[1], d)
            row.append(step)
        spread.append(row)
    return spread


def run_program(program, capacities, style, sanitize=False, twice=None):
    """-> (one [(time, step, what)] log per process, run() end time,
    busy time per resource, sanitizer findings), sequence numbers drawn.
    ``twice`` collects the processes interrupted twice in one instant."""
    sim = Simulator()
    if sanitize:
        sim.enable_sanitizer(strict=False)
    resources = [
        Resource(sim, capacity=c, name="r%d" % i) for i, c in enumerate(capacities)
    ]
    logs = [[] for _ in program]
    procs = []
    interrupted_at = {}

    def body(me, steps):
        log = logs[me]
        for n, step in enumerate(steps):
            kind = step[0]
            try:
                if kind == "sleep":
                    yield _wait(sim, style, step[1])
                elif kind == "hold":
                    res = resources[step[1]]
                    # interrupted while queued: the request is abandoned
                    # and the step with it; no unit is held
                    if style == "timeout" or not res.try_acquire():
                        yield res.acquire()
                    try:
                        yield _wait(sim, style, step[2])
                    finally:
                        res.release()
                elif kind == "join":
                    yield procs[step[1]]
                elif kind == "interrupt":
                    victim = procs[step[1]]
                    if victim.is_alive:
                        if twice is not None and interrupted_at.get(victim) == sim.now:
                            twice.append(victim.name)
                        interrupted_at[victim] = sim.now
                        victim.interrupt("p%d.%d" % (me, n))
                log.append((sim.now, n, kind))
            except Interrupt as intr:
                log.append((sim.now, n, "intr:%s" % intr.cause))

    for me, steps in enumerate(program):
        procs.append(sim.spawn(body(me, steps), name="p%d" % me))
    end = sim.run()
    assert all(res.in_use == 0 and res.queue_length == 0 for res in resources)
    busy = [res.busy_time() for res in resources]
    findings = [f.kind for f in sim.sanitizer.findings] if sanitize else []
    return (logs, end, busy, findings), next(sim._counter)


def assert_styles_agree(program, capacities, sanitize=False):
    by_timeout, drawn_timeout = run_program(program, capacities, "timeout", sanitize)
    by_sleep, drawn_sleep = run_program(program, capacities, "sleep", sanitize)
    assert by_sleep == by_timeout
    assert drawn_sleep <= drawn_timeout
    return by_sleep


HAND_PROGRAMS = {
    # independent sleepers landing on t=1.0 and t=2.0 together
    "same-instant sleeps": (
        [[("sleep", 1.0), ("sleep", 1.0)], [("sleep", 2.0)], [("sleep", 0.0), ("sleep", 1.0)]],
        [],
    ),
    # the Cpu.consume shape, uncontended then contended, capacity 1; every
    # coincidence is causal (a release and the grant it makes)
    "holds on one unit": (
        [[("hold", 0, 1.0), ("hold", 0, 0.5)], [("hold", 0, 1.0)], [("sleep", 0.5), ("hold", 0, 0.0)]],
        [1],
    ),
    # capacity 2 and 3: some holds inline, some queued
    "holds on several units": (
        [[("hold", 0, 1.0)], [("hold", 0, 1.0), ("hold", 1, 1.0)], [("hold", 0, 0.5)],
         [("hold", 1, 2.0)], [("hold", 1, 2.0)], [("hold", 1, 2.0), ("join", 0)]],
        [2, 3],
    ),
    # interrupts: of a process that has not run yet (4 by 0), of a sleeper
    # (0), of a queued acquirer (2: its request is abandoned, and the unit
    # must reach 6 behind it), of a joiner (3), of a holder mid-sleep (1),
    # twice in one instant (0)
    "interrupts": (spread_delays(
        [[("interrupt", 4), ("sleep",), ("sleep",), ("sleep",)],
         [("hold", 0)],
         [("hold", 0), ("sleep",)],
         [("join", 0), ("sleep",)],
         [("sleep",), ("sleep",), ("interrupt", 0), ("interrupt", 2), ("interrupt", 3),
          ("interrupt", 0), ("sleep",), ("interrupt", 1)],
         [("sleep",), ("sleep",)],
         [("hold", 0), ("join", 5)]]
    ), [1]),
    # a program whose last entry is an interrupted sleeper's timer
    "lapsed timer is last": ([[("sleep", 10.0)], [("sleep", 1.0), ("interrupt", 0)]], []),
}


@pytest.mark.parametrize("name", sorted(HAND_PROGRAMS))
def test_sleep_and_timeout_schedules_are_identical(name):
    # identical *per process*: the global interleaving is not promised
    program, capacities = HAND_PROGRAMS[name]
    logs, end, _busy, _ = assert_styles_agree(program, capacities)
    assert all(logs) and end > 0.0


def test_interrupts_program_takes_the_paths_it_names():
    program, capacities = HAND_PROGRAMS["interrupts"]
    logs, _end, _busy, _ = assert_styles_agree(program, capacities)
    outcomes = [[what.split(":")[0] for _t, _n, what in log] for log in logs]
    assert outcomes[4][0] == "intr"  # before its first slice
    assert outcomes[0][1:3] == ["intr", "intr"]  # twice in one instant
    assert outcomes[2][0] == "intr"  # while queued: nothing to release
    assert outcomes[3][0] == "intr"  # while joining
    assert outcomes[1] == ["intr"]  # mid-hold: the finally released
    assert outcomes[6] == ["hold", "join"]  # the unit passed the abandoned request


def test_interrupted_sleep_lapses_it_is_not_cancelled():
    # the waiterless Timeout of the old spelling still fires at t=10 and
    # run() returns 10.0; a sleep entry blanked like a cancelled timer
    # would be discarded without advancing the clock
    program, capacities = HAND_PROGRAMS["lapsed timer is last"]
    logs, end, _busy, _ = assert_styles_agree(program, capacities)
    assert end == 10.0
    assert logs[0] == [(1.0, 0, "intr:p1.1")]


def test_programs_are_clean_under_the_sanitizer():
    # neither the shared pre-granted event, nor a hold that never made
    # an event, nor an abandoned request may read as a leak or as an
    # event resolved twice
    for program, capacities in HAND_PROGRAMS.values():
        *_, findings = assert_styles_agree(program, capacities, sanitize=True)
        assert findings == []


def test_interrupt_of_a_sleeper_at_the_instant_its_timer_is_due():
    # The old engine had a window between a sleep's timer firing and the
    # queued resume running, and a test for an interrupt landing inside
    # it.  The timer entry now *is* the resume, so that window is gone:
    # an interrupter whose own timer is ahead in the heap finds the
    # victim still asleep and the interrupt ends that sleep; one behind
    # it finds the victim already past it, in its next wait.
    def run(interrupter_first):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield 5.0
                log.append(("slept", sim.now))
                yield 7.0
                log.append(("second sleep done", sim.now))
            except Interrupt as intr:
                log.append(("interrupted", sim.now, intr.cause))

        def interrupter(victims):
            yield 5.0
            victims[0].interrupt("late")

        victims = []
        if interrupter_first:
            sim.spawn(interrupter(victims))
        victims.append(sim.spawn(sleeper()))
        if not interrupter_first:
            sim.spawn(interrupter(victims))
        # the lapsed timer still advances the clock: the first sleep's
        # to where it already is, the second's to t=12
        return log, sim.run()

    assert run(interrupter_first=True) == ([("interrupted", 5.0, "late")], 5.0)
    assert run(interrupter_first=False) == (
        [("slept", 5.0), ("interrupted", 5.0, "late")], 12.0,
    )


@pytest.mark.parametrize("style", ["timeout"])  # "sleep": see the test above
def test_interrupt_between_wake_and_resume_lands_at_the_next_wait(style):
    # a Timeout still queues its waiter's resume; an interrupt issued
    # while that resume is queued must not overtake it
    sim = Simulator()
    log = []

    def sleeper():
        yield _wait(sim, style, 5.0)
        log.append(("slept", sim.now))
        try:
            yield _wait(sim, style, 7.0)
            log.append(("second sleep done", sim.now))
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))

    def interrupter(victims):
        # spawned first and due at the same instant: this resume is
        # queued before the victim's, and runs after the victim's timer
        # has fired (its resume is queued, it has not run)
        yield _wait(sim, style, 5.0)
        victims[0].interrupt("late")

    victims = []
    sim.spawn(interrupter(victims))
    victims.append(sim.spawn(sleeper()))
    sim.run()
    assert log == [("slept", 5.0), ("interrupted", 5.0, "late")]


# -- what a wait costs: exact sequence-number pins ----------------------------


def _drawn_by(build):
    """Sequence numbers one process built by ``build(sim)`` draws beyond
    its own first slice."""
    sim = Simulator()
    sim.spawn(build(sim))
    sim.run()
    return next(sim._counter) - 1


def test_a_sleep_draws_one_sequence_number_a_timeout_two():
    def sleep(sim):
        yield 1.0

    def timeout(sim):
        yield sim.timeout(1.0)

    assert _drawn_by(sleep) == 1  # the heap entry is the resume
    assert _drawn_by(timeout) == 2  # the timer, then the waiter's resume


def test_an_uncontended_hold_draws_one_sequence_number_a_contended_one_two():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def hold(d):
        if not res.try_acquire():
            yield res.acquire()
        try:
            yield d
        finally:
            res.release()

    sim.spawn(hold(1.0))
    sim.run()
    assert next(sim._counter) == 1 + 1  # first slice + the sleep
    sim.spawn(hold(1.0))
    sim.spawn(hold(1.0))
    sim.run()
    # two first slices, the holder's sleep, then the queued one: the
    # resume its grant queues + its sleep
    assert next(sim._counter) == 3 + 2 + 1 + 2
    assert res.busy_time() == 3.0


def test_negative_sleep_raises_inside_the_generator():
    sim = Simulator()
    seen = []

    def by_timeout():
        try:
            yield sim.timeout(-1.0)
        except SimulationError as exc:
            seen.append(("timeout", str(exc)))
        yield sim.timeout(1.0)
        seen.append(("timeout done", sim.now))

    def by_sleep():
        try:
            yield -1.0
        except SimulationError as exc:
            seen.append(("sleep", str(exc)))
        yield 1.0
        seen.append(("sleep done", sim.now))

    sim.spawn(by_timeout())
    sim.spawn(by_sleep())
    sim.run()
    # both raise in their first slice; which "done" comes first at t=1.0
    # is same-instant order, which nothing may depend on
    assert seen[:2] == [
        ("timeout", "negative timeout delay -1.0"),
        ("sleep", "negative timeout delay -1.0"),
    ]
    assert sorted(seen[2:]) == [("sleep done", 1.0), ("timeout done", 1.0)]


@pytest.mark.parametrize("bad", [-0.5, math.nan])
def test_uncaught_bad_sleep_fails_the_process(bad):
    sim = Simulator()

    def proc():
        yield bad

    p = sim.spawn(proc())
    with pytest.raises(SimulationError, match="negative timeout delay"):
        sim.run()
    assert not p.ok and not sim._queue  # nothing was scheduled for it


@pytest.mark.parametrize("bad", [1, True, "1.0", None])
def test_only_a_float_is_a_number_of_seconds(bad):
    # an int is far more often a forgotten ``yield from`` result or a
    # count than a delay, and bool is an int
    sim = Simulator()

    def proc():
        yield bad

    sim.spawn(proc())
    with pytest.raises(SimulationError, match="non-waitable"):
        sim.run()


# -- the pre-granted acquire ---------------------------------------------------


def test_uncontended_acquire_returns_one_shared_granted_event():
    sim = Simulator()
    res = Resource(sim, capacity=2, name="pair")
    first, second = res.acquire(), res.acquire()
    assert first is second and first.triggered and first.value is res
    assert first.callbacks is None  # nothing can ever subscribe to it
    assert res.in_use == 2
    queued = res.acquire()  # contended: a fresh, pending event
    assert queued is not first and not queued.triggered
    assert res.queue_length == 1
    queued.callbacks.append(lambda ev: None)  # somebody waits on it
    res.release()
    assert queued.triggered and queued.value is res and res.in_use == 2


def test_shared_granted_event_is_safe_in_any_of():
    sim = Simulator()
    res = Resource(sim, capacity=1, name="unit")
    got = []

    def racer():
        for _ in range(2):
            timer = sim.timeout(3.0)
            winner, value = yield sim.any_of([res.acquire(), timer])
            got.append((sim.now, winner is not timer, value is res))
            timer.cancel()
            yield 1.0
            res.release()

    sim.spawn(racer())
    assert sim.run() == 2.0
    assert got == [(0.0, True, True), (1.0, True, True)]
    assert res.in_use == 0 and res.busy_time() == 2.0
