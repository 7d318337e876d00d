"""Pure-engine microbenchmarks: events/second through the scheduler.

Each scenario builds a fresh :class:`~repro.sim.Simulator`, drives a
synthetic event pattern through it, and reports a wall-clock rate.  The
``ops`` count is *defined arithmetically* from the scenario parameters
(not sampled from the engine) so the denominator is identical before
and after any engine change — the rate measures the engine, nothing
else.  :func:`run_engine_cell` is the stopwatch ``perfbench`` calibrates
on.

Every scenario also has a small fixed size at which a body records the
exact (step, simulated-time) schedule it observed; the golden file
pins each one (``engine-<scenario>`` in
:data:`repro.bench.golden.GOLDEN_TRACED`), an oracle for engine
refactors.

Scenarios:

``timeout-chain``
    One process yields N sequential timeouts — the minimal schedule/
    fire/resume cycle that every simulated I/O pays.
``sleep-chain``
    The same chain written ``yield 0.001``: the number-of-seconds wait
    that ``Cpu.consume``, ``Disk._do_io`` and ``Interface.send`` use:
    one heap entry that is also the resume.  It observes
    ``timeout-chain``'s schedule element for element.
``hold-chain``
    One process repeats the hold idiom — ``try_acquire`` (or queue),
    sleep, release — on a capacity-1 ``Resource``: the ``Cpu.consume``
    shape, one entry per round.  Both keep the ``ops`` of their
    all-events spelling (2 and 3 per round) so that rates compare.
``timer-fan``
    P processes interleave timeouts with co-prime periods — deep heap,
    constant churn, the cluster-sweep access pattern.
``event-pingpong``
    Two processes alternate via explicitly-succeeded events — the
    trigger→dispatch→resume path with no timer involved.
``anyof-race``
    A process repeatedly races a short timeout against a long one via
    ``any_of`` — the RPC retransmission shape; exercises condition
    fan-in and loser-timer disposal.
``spawn-join``
    Waves of short-lived child processes joined by a parent — process
    construction and completion-event delivery.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, Optional, Tuple

from ..sim import Resource, Simulator, Store

__all__ = ["ENGINE_SCENARIOS", "run_engine_cell"]


# -- scenario bodies ---------------------------------------------------------
#
# Each body is ``body(sim, n, schedule)``: drive ``n`` rounds through
# ``sim``; when ``schedule`` is a list, append (round, sim.now) samples
# to it (the golden schedule digests only — the timed runs pass None and
# skip the bookkeeping entirely).


def _timeout_chain(sim: Simulator, n: int, schedule: Optional[list]) -> int:
    def proc():
        for i in range(n):
            yield sim.timeout(0.001)
            if schedule is not None:
                schedule.append((i, sim.now))

    sim.spawn(proc(), name="chain")
    sim.run()
    return 2 * n  # one schedule + one fire/resume per round


def _sleep_chain(sim: Simulator, n: int, schedule: Optional[list]) -> int:
    def proc():
        for i in range(n):
            yield 0.001
            if schedule is not None:
                schedule.append((i, sim.now))

    sim.spawn(proc(), name="chain")
    sim.run()
    return 2 * n  # timeout-chain's count, for comparable rates


def _hold_chain(sim: Simulator, n: int, schedule: Optional[list]) -> int:
    unit = Resource(sim, capacity=1, name="unit")

    def proc():
        for i in range(n):
            if not unit.try_acquire():
                yield unit.acquire()
            try:
                yield 0.001
            finally:
                unit.release()
            if schedule is not None:
                schedule.append((i, sim.now))

    sim.spawn(proc(), name="holder")
    sim.run()
    return 3 * n  # what the all-events spelling of a hold costs


def _timer_fan(sim: Simulator, n: int, schedule: Optional[list]) -> int:
    workers = 8
    periods = (0.0011, 0.0013, 0.0017, 0.0019, 0.0023, 0.0029, 0.0031, 0.0037)
    rounds = n // workers

    def proc(period, tag):
        for i in range(rounds):
            yield sim.timeout(period)
            if schedule is not None:
                schedule.append((tag, i, sim.now))

    for w in range(workers):
        sim.spawn(proc(periods[w], w), name="fan%d" % w)
    sim.run()
    return 2 * rounds * workers


def _event_pingpong(sim: Simulator, n: int, schedule: Optional[list]) -> int:
    ping: Store = Store(sim, name="ping")
    pong: Store = Store(sim, name="pong")

    def left():
        for i in range(n):
            ping.put(i)
            got = yield pong.get()
            if schedule is not None:
                schedule.append(("l", got, sim.now))

    def right():
        for _ in range(n):
            got = yield ping.get()
            pong.put(got)
            if schedule is not None:
                schedule.append(("r", got, sim.now))

    sim.spawn(left(), name="left")
    sim.spawn(right(), name="right")
    sim.run()
    return 4 * n  # two get-events created + two trigger/dispatch per round


def _anyof_race(sim: Simulator, n: int, schedule: Optional[list]) -> int:
    def proc():
        for i in range(n):
            fast = sim.timeout(0.001, value="fast")
            slow = sim.timeout(1000.0, value="slow")
            ev, value = yield sim.any_of([fast, slow])
            assert value == "fast"
            if schedule is not None:
                schedule.append((i, sim.now))

    sim.spawn(proc(), name="racer")
    sim.run(until=1000.0 * n + 1.0)
    return 4 * n  # two timers + condition trigger + resume per round


def _spawn_join(sim: Simulator, n: int, schedule: Optional[list]) -> int:
    wave = 16
    rounds = n // wave

    def child(k):
        yield sim.timeout(0.001 * (1 + (k % 3)))
        return k

    def parent():
        for i in range(rounds):
            kids = [sim.spawn(child(k), name="c") for k in range(wave)]
            for kid in kids:
                yield kid
            if schedule is not None:
                schedule.append((i, sim.now))

    sim.spawn(parent(), name="parent")
    sim.run()
    return 3 * rounds * wave  # spawn + timer + join delivery per child


#: name -> (body, full_n, quick_n, digest_n); golden digests digest_n
ENGINE_SCENARIOS: Dict[str, Tuple[Callable, int, int, int]] = {
    "timeout-chain": (_timeout_chain, 200_000, 20_000, 2_000),
    "sleep-chain": (_sleep_chain, 200_000, 20_000, 2_000),
    "hold-chain": (_hold_chain, 130_000, 13_000, 2_000),
    "timer-fan": (_timer_fan, 160_000, 16_000, 2_000),
    "event-pingpong": (_event_pingpong, 100_000, 10_000, 2_000),
    "anyof-race": (_anyof_race, 60_000, 6_000, 2_000),
    "spawn-join": (_spawn_join, 48_000, 4_800, 1_600),
}


def run_engine_cell(name: str, quick: bool = False, repeats: int = 3) -> Dict:
    """Time one engine scenario ``repeats`` times.

    The reported ``wall_seconds`` is the **median** of the repeats, so
    one noisy repeat (a neighbor stealing the core mid-run) cannot swing
    the rate ``ops / wall_seconds``.
    """
    body, full_n, quick_n, _digest_n = ENGINE_SCENARIOS[name]
    n = quick_n if quick else full_n
    walls = []
    ops = 0
    for _ in range(repeats):
        sim = Simulator()
        t0 = time.perf_counter()  # lint: ok=DET002 — wall-clock benchmark harness, not sim logic
        ops = body(sim, n, None)
        walls.append(time.perf_counter() - t0)  # lint: ok=DET002 — wall-clock benchmark harness, not sim logic
    return {
        "name": name,
        "params": {"n": n, "repeats": repeats},
        "ops": ops,
        "wall_seconds": round(statistics.median(walls), 6),
    }
