"""Simulation processes.

A :class:`Process` wraps a Python generator.  Each ``yield`` from the
generator must produce a *waitable*: an :class:`~repro.sim.engine.Event`
(which includes timeouts, conditions, and other processes) or a
non-negative ``float`` of seconds to sleep.  The process is resumed with
the event's value (``None`` after a sleep), or has the event's exception
thrown into it.

``yield d`` costs one heap entry, which *is* the resume: the continuation
runs the moment the timer fires — ahead of entries already queued for that
instant, where ``yield sim.timeout(d)`` queues its resume behind them.
Model code must not depend on the order of same-instant work.  Use
``sim.timeout()`` when the timer is stored, raced in ``any_of``, or cancelled.

A process is itself an event, so processes can be joined::

    child = sim.spawn(worker(sim))
    result = yield child          # waits for completion

Processes can be interrupted::

    child.interrupt("cancelled")

which raises :class:`~repro.sim.engine.Interrupt` at the child's
current wait point.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Generator, Optional, Union

from .engine import Event, Interrupt, SimulationError, Simulator, _UNSET

__all__ = ["Process"]


def _lapsed(_event: None) -> None:
    """What an interrupted sleeper's heap entry runs.  Not ``None``: the
    run loop discards a cancelled entry without advancing ``now``, while
    a ``Timeout`` that lost its waiter still fires and advances it."""


class Process(Event):
    """A running coroutine inside the simulation.

    Triggered (as an event) when the generator finishes; the value is
    the generator's return value.  If the generator raises, the process
    fails with that exception — joiners see it re-raised, and if nobody
    joins, the simulator surfaces it from :meth:`Simulator.run`.
    """

    __slots__ = (
        "_gen", "_waiting_on", "trace_ctx", "obs_frames",
    )

    def __init__(self, sim: Simulator, generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                "spawn() requires a generator, got %r" % (generator,)
            )
        Event.__init__(self, sim, name or getattr(generator, "__name__", "process"))
        self._gen = generator
        #: what the process is waiting on, from the yield until _resume
        #: runs: an Event (callbacks None: it has triggered and the
        #: resume is queued) or the heap entry of a sleep
        self._waiting_on: Union[Event, list, None] = None
        #: (trace id, span id) causal context — inherited from the
        #: spawning process so forked work stays inside its trace tree
        parent = sim.current_process
        self.trace_ctx = parent.trace_ctx if parent is not None else None
        #: stack of open repro.obs frames (operations in flight in this
        #: process); lazily created by the collector, None when obs is off
        self.obs_frames = None
        if sim.probe is not None:
            sim.probe.mark("proc.spawn", "sim", "sim", child=self.name)
        sim.call_soon(self._resume, None)

    # -- lifecycle ----------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point.

        Interrupting a finished process is an error; interrupting a
        process that has not started yet delivers the interrupt at its
        first wait.
        """
        if self.triggered:
            raise SimulationError("cannot interrupt finished process %s" % self.name)
        self._detach()
        self.sim.call_soon(self._throw_in, Interrupt(cause))

    # -- internals ------------------------------------------------------------

    def _detach(self) -> None:
        """Unsubscribe from the current wait so that it cannot wake a
        later one.  A wakeup already in the ready queue still runs."""
        target = self._waiting_on
        if target is None:
            return
        if type(target) is list:
            target[2] = _lapsed
        elif target.callbacks is None:
            return  # still what a later throw must let go first
        else:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None

    def _resume(self, event: Optional[Event]) -> None:
        # hot path: attribute checks instead of the triggered/ok/value
        # properties; the semantics are identical
        if self._value is not _UNSET or self._exception is not None:
            return
        self._waiting_on = None
        sim = self.sim
        prev = sim.current_process
        sim.current_process = self
        probe = sim.probe
        if probe is not None and probe.trace_resumes:
            probe.mark("proc.resume", "sim", "sim")
        try:
            try:
                if event is None:  # first slice, or the end of a sleep
                    target = self._gen.send(None)
                elif event._exception is None:
                    target = self._gen.send(event._value)
                else:
                    event._defused = True
                    target = self._gen.throw(event._exception)
            except StopIteration as stop:
                self._finish_ok(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - propagate into event
                self._finish_fail(exc)
                return
        finally:
            sim.current_process = prev
        # inlined _wait_for for the two common waits: a sleep, and an
        # event (callbacks is None exactly when it already triggered)
        if type(target) is float and target >= 0.0:
            # the heap entry is the resume: _resume(None) when the timer fires
            entry = [sim.now + target, next(sim._counter), self._resume, (None,)]
            self._waiting_on = entry
            heappush(sim._queue, entry)
        elif isinstance(target, Event):
            self._waiting_on = target
            if target.callbacks is not None:
                target.callbacks.append(self._resume)
            else:
                sim._ready.append((next(sim._counter), self._resume, (target,)))
        else:
            self._wait_for(target)

    def _throw_in(self, exc: BaseException) -> None:
        if self._value is not _UNSET or self._exception is not None:
            return
        # the process may have entered a wait since interrupt() detached
        # it (it had not started, or a second interrupt was queued)
        waiting = self._waiting_on
        if isinstance(waiting, Event) and waiting.callbacks is None:
            # that wait is over and its resume is queued behind this
            # throw: deliver it first, as interrupt() on a process in
            # that state does, and throw at the wait after it
            self.sim.call_soon(self._throw_in, exc)
            return
        self._detach()
        prev = self.sim.current_process
        self.sim.current_process = self
        try:
            try:
                target = self._gen.throw(exc)
            except StopIteration as stop:
                self._finish_ok(stop.value)
                return
            except BaseException as raised:  # noqa: BLE001
                self._finish_fail(raised)
                return
        finally:
            self.sim.current_process = prev
        self._wait_for(target)

    def _wait_for(self, target: Any) -> None:
        sim = self.sim
        if isinstance(target, Event):
            self._waiting_on = target
            if target.callbacks is None:  # already triggered
                sim.call_soon(self._resume, target)
            else:
                target.callbacks.append(self._resume)
        elif type(target) is not float:
            self._finish_fail(
                SimulationError(
                    "process %s yielded a non-waitable: %r" % (self.name, target)
                )
            )
        elif target >= 0.0:
            entry = [sim.now + target, next(sim._counter), self._resume, (None,)]
            self._waiting_on = entry
            heappush(sim._queue, entry)
        else:  # negative or NaN: raise where sim.timeout() would
            self._throw_in(SimulationError("negative timeout delay %r" % target))

    def _finish_ok(self, value: Any) -> None:
        self._gen.close()
        if self.sim.probe is not None:
            self.sim.probe.mark("proc.finish", "sim", "sim")
        self.succeed(value)

    def _finish_fail(self, exc: BaseException) -> None:
        if self.sim.probe is not None:
            self.sim.probe.mark("proc.fail", "sim", "sim", error=type(exc).__name__)
        self._exception = exc
        self.sim._trigger(self)
