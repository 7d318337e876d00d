"""``yield d`` against ``yield sim.timeout(d)`` on random programs.

The engine promises that a number-of-seconds wait schedules exactly what
a ``Timeout`` would: the same heap entry and the same ready entry, each
drawing its sequence number at the same moment.  If that holds, no
program can tell the two spellings apart — not by what runs when, not by
how many sequence numbers were drawn, not by where ``run()`` stops.  The
programs mix sleeps, ``Resource`` holds (capacity 1–3, so some acquires
are pre-granted and some queue), joins and interrupts, with delays drawn
from a few values so that same-instant collisions are the rule.
"""

from hypothesis import given, settings, strategies as st

from ..sim.test_engine_fastpath import assert_styles_agree

#: few distinct values, 0.0 among them: waits collide on purpose
DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 1.5, 2.0])
MAX_PROCS = 6
MAX_RESOURCES = 2


def steps_for(me: int, n_resources: int):
    kinds = [
        st.tuples(st.just("sleep"), DELAYS),
        st.tuples(
            st.just("interrupt"),
            st.integers(0, MAX_PROCS - 1).filter(lambda k: k != me),
        ),
    ]
    if n_resources:
        kinds.append(
            st.tuples(st.just("hold"), st.integers(0, n_resources - 1), DELAYS)
        )
    if me:
        kinds.append(st.tuples(st.just("join"), st.integers(0, me - 1)))
    return st.lists(st.one_of(kinds), min_size=1, max_size=6)


@st.composite
def programs(draw):
    capacities = draw(st.lists(st.integers(1, 3), max_size=MAX_RESOURCES))
    n_procs = draw(st.integers(2, MAX_PROCS))
    program = [draw(steps_for(me, len(capacities))) for me in range(n_procs)]
    # an interrupt may name a process the program does not have
    program = [
        [s for s in steps if s[0] != "interrupt" or s[1] < n_procs]
        for steps in program
    ]
    return program, capacities


@settings(max_examples=300, deadline=None)
@given(programs())
def test_no_program_can_tell_a_sleep_from_a_timeout(case):
    program, capacities = case
    *_, findings = assert_styles_agree(program, capacities, sanitize=True)
    assert findings == []
