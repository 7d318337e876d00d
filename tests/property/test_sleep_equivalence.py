"""The old spellings against the new ones on random programs.

``yield d`` and the hold idiom (``if not res.try_acquire(): yield
res.acquire()``) cost fewer scheduler entries than ``yield
sim.timeout(d)`` and ``yield res.acquire()``, and they order same-instant
work differently: the engine promises *model equivalence*, not schedule
identity.  No program whose processes do not race can tell the spellings
apart — not by any process's own ``(time, step, outcome)`` log, not by
where ``run()`` stops, not by any resource's busy time — and neither
leaves the sanitizer anything to report.  Two families of programs:

* **independent** processes (sleeps, joins, holds on units nobody else
  wants) with delays drawn from a few values, 0.0 among them, so that
  same-instant collisions are the rule: any interleaving of an instant
  must give the same answer;
* **interacting** processes (holds on shared units of capacity 1–3,
  interrupts, joins) whose delays — a small first one before anything
  else included — are spread over distinct powers of two, so that
  instants coincide only for a cause (a release and its grant, an end and
  its joiner, an interrupt and where it lands).  A drawn program in which
  one process is interrupted twice in one instant is such a race and is
  rejected, not compared (see the test).
"""

from hypothesis import assume, given, settings, strategies as st

from ..sim.test_engine_fastpath import run_program, spread_delays

#: few distinct values, 0.0 among them: waits collide on purpose
DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 1.5, 2.0])
MAX_PROCS = 6
MAX_RESOURCES = 2


def steps_for(me: int, hold, interrupts: bool):
    kinds = [st.tuples(st.just("sleep"), DELAYS)]
    if hold is not None:
        kinds.append(hold)
    if interrupts:
        kinds.append(
            st.tuples(
                st.just("interrupt"),
                st.integers(0, MAX_PROCS - 1).filter(lambda k: k != me),
            )
        )
    if me:
        kinds.append(st.tuples(st.just("join"), st.integers(0, me - 1)))
    return st.lists(st.one_of(kinds), min_size=1, max_size=6)


@st.composite
def independent_programs(draw):
    n_procs = draw(st.integers(2, MAX_PROCS))
    # resource ``me`` is process ``me``'s own; the last one has a unit
    # for everybody
    capacities = [1] * n_procs + [n_procs]
    program = [
        draw(steps_for(
            me,
            st.tuples(st.just("hold"), st.sampled_from([me, n_procs]), DELAYS),
            interrupts=False,
        ))
        for me in range(n_procs)
    ]
    return program, capacities


@st.composite
def interacting_programs(draw):
    capacities = draw(st.lists(st.integers(1, 3), max_size=MAX_RESOURCES))
    n_procs = draw(st.integers(2, MAX_PROCS))
    hold = None
    if capacities:
        hold = st.tuples(
            st.just("hold"), st.integers(0, len(capacities) - 1), DELAYS
        )
    program = [draw(steps_for(me, hold, interrupts=True)) for me in range(n_procs)]
    # an interrupt may name a process the program does not have
    program = [
        [s for s in steps if s[0] != "interrupt" or s[1] < n_procs]
        for steps in program
    ]
    return spread_delays(program, stagger=True), capacities


@settings(max_examples=300, deadline=None)
@given(st.one_of(independent_programs(), interacting_programs(), interacting_programs()))
def test_no_program_can_tell_a_sleep_from_a_timeout(case):
    program, capacities = case
    twice = []
    by_timeout, drawn_timeout = run_program(program, capacities, "timeout", True, twice)
    # Two interrupts of one process in one instant are a race like any
    # other: the second lands at whatever wait the first moved the victim
    # to, and an uncontended ``yield res.acquire()`` is a wait (a resume is
    # queued) where the hold idiom has none — work queued in between sees
    # the unit taken in one spelling and free in the other.  Either order
    # is a valid run; HAND_PROGRAMS["interrupts"] holds the case where
    # nothing is in between.
    assume(not twice)
    by_sleep, drawn_sleep = run_program(program, capacities, "sleep", True)
    assert by_sleep == by_timeout and drawn_sleep <= drawn_timeout
    assert by_sleep[3] == []
