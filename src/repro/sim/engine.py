"""Discrete-event simulation engine.

The engine is the heart of the reproduction substrate: every host,
network link, disk, daemon, and benchmark process in this repository is
a coroutine scheduled by a :class:`Simulator`.

The design follows the classic process-interaction style (as in SimPy,
which is not available offline, so we implement our own): processes are
Python generators that ``yield`` *waitables* — :class:`Event`,
:class:`Timeout`, other processes, or condition combinators — and are
resumed when the waitable triggers, or ``yield`` a ``float`` number of
seconds and are resumed that much later.

Determinism: given the same seed and the same sequence of spawns, a
simulation is fully deterministic.  Events scheduled for the same
simulated time fire in FIFO order of scheduling.

Scheduling internals (see docs/PERFORMANCE.md for the full story):

* Future work lives in a binary heap of ``[when, seq, callback, args]``
  list entries.  Entries are mutable so a timer can be *cancelled in
  place* (``entry[2] = None``); the run loop discards dead entries when
  they surface at the heap top instead of paying O(n) removal.
* Work due at the current instant lives in a FIFO deque (``_ready``).
  Triggering an event appends directly to it — no heap churn for the
  dominant trigger/dispatch traffic.  Both structures draw sequence
  numbers from one counter, and the run loop always executes the due
  entry with the smallest sequence number: one FIFO order over both.
* A *successful* trigger with no waiter schedules nothing: the entry it
  used to queue called ``_dispatch(event, [])``, which runs no user
  code.  Dropping it shifts every later sequence number by the same
  amount, so no two entries change their relative order.  A *failed*
  waiterless event still goes through ``_dispatch`` — that is where an
  unhandled failure is raised out of the run.
* A process that yields seconds pushes one heap entry whose callback is
  its own ``_resume``: the sleep's continuation runs when the timer
  fires, ahead of entries already queued for that instant — a
  ``Timeout``'s waiter is queued behind them.  Interrupting the sleeper
  points the entry at a no-op rather than blanking it: a cancelled entry
  is discarded without advancing ``now``, a lapsed one must still
  advance it, as the waiterless ``Timeout`` would.
* A *hold* (CPU, disk arm, NIC, RPC thread admission) takes a free unit
  with ``Resource.try_acquire()`` and only yields ``acquire()`` when it
  must queue, so an uncontended hold is one entry — its sleep.
  ``yield res.acquire()`` (locks, anything raced or stored) still gets
  the resource's one pre-granted event and the single resume entry any
  already-triggered event gives.
* Both reorder same-instant work.  The promise is *model equivalence*:
  what a process observes (times, values, busy time) does not depend on
  how one instant's entries interleave unless two processes race for the
  same thing in that instant, and then either order is a valid run.
* Processes subscribe ``Process._resume`` itself to what they wait on;
  there is no trampoline between a trigger and the generator.
"""

from __future__ import annotations

import heapq
import itertools
import os
from collections import deque
from typing import Any, Callable, List, Optional

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "TimerHandle",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation API."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The interrupting party supplies ``cause``, an arbitrary object that
    the interrupted process can inspect (e.g. ``"server-crashed"``).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


_UNSET = object()


class Event:
    """A one-shot occurrence that processes can wait for.

    An event starts *untriggered*.  It may be made to ``succeed`` with a
    value or ``fail`` with an exception, exactly once.  Processes that
    yield the event are resumed (or have the exception thrown into
    them) in the order in which they started waiting.
    """

    __slots__ = (
        "sim",
        "name",
        "callbacks",
        "_value",
        "_exception",
        "_defused",
        # set lazily: Store(daemon=True) marks its gets leak_ok; the
        # sanitizer stamps _san_trigger and reads both via getattr()
        "leak_ok",
        "_san_trigger",
        "__weakref__",
    )

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _UNSET
        self._exception: Optional[BaseException] = None
        self._defused = False
        if sim.sanitizer is not None:
            sim.sanitizer.on_event_created(self)

    # -- state inspection -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once succeed() or fail() has been called."""
        return self._value is not _UNSET or self._exception is not None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._exception is None and self._value is not _UNSET

    @property
    def value(self) -> Any:
        if self._exception is not None:
            raise self._exception
        if self._value is _UNSET:
            raise SimulationError("event %r has not triggered yet" % self.name)
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run.

        If a failed event has no waiters and is not defused, the
        simulator raises the exception out of :meth:`Simulator.run` to
        avoid silently swallowing errors.
        """
        self._defused = True

    # -- triggering --------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        if self._value is not _UNSET or self._exception is not None:
            if self.sim.sanitizer is not None:
                self.sim.sanitizer.on_double_trigger(self)
            raise SimulationError("event %r already triggered" % self.name)
        self._value = value
        self.sim._trigger(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._value is not _UNSET or self._exception is not None:
            if self.sim.sanitizer is not None:
                self.sim.sanitizer.on_double_trigger(self)
            raise SimulationError("event %r already triggered" % self.name)
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._exception = exception
        self.sim._trigger(self)
        return self

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return "<%s %s %s>" % (type(self).__name__, self.name or id(self), state)


class Timeout(Event):
    """An event that succeeds automatically after a simulated delay.

    A pending timeout can be :meth:`cancel`-led: its heap entry is
    blanked in place and skipped when it reaches the heap top, so
    cancellation is O(1) and a cancelled timer never fires (the event
    simply stays untriggered forever).
    """

    __slots__ = ("delay", "_entry")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError("negative timeout delay %r" % delay)
        Event.__init__(self, sim, "timeout")
        self.delay = delay
        self._entry = sim._schedule_at(sim.now + delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        self._entry = None
        if self._value is _UNSET and self._exception is None:
            self._value = value
            self.sim._trigger(self)

    def cancel(self) -> None:
        """Discard the pending timer; a no-op once fired or cancelled."""
        entry = self._entry
        if entry is not None:
            self._entry = None
            entry[2] = None
            entry[3] = ()


class TimerHandle:
    """Cancellation handle for :meth:`Simulator.after`.

    Cancelling after the callback has fired is a harmless no-op.
    """

    __slots__ = ("_entry",)

    def __init__(self, entry: list):
        self._entry = entry

    @property
    def active(self) -> bool:
        entry = self._entry
        return entry is not None and entry[2] is not None

    def cancel(self) -> None:
        entry = self._entry
        if entry is not None:
            self._entry = None
            entry[2] = None
            entry[3] = ()


class _Condition(Event):
    """Base for AllOf/AnyOf combinators."""

    __slots__ = ("events", "_n_done")

    def __init__(self, sim: "Simulator", events: List[Event]):
        super().__init__(sim, name=type(self).__name__)
        self.events = list(events)
        self._n_done = 0
        if not self.events:
            self.succeed([])
            return
        for ev in self.events:
            if ev.triggered:
                self._on_child(ev)
            else:
                ev.callbacks.append(self._on_child)

    def _on_child(self, ev: Event) -> None:
        raise NotImplementedError

    def _detach_pending(self) -> None:
        """Drop our callback from children that have not triggered.

        Without this, the losers of an :class:`AnyOf` race keep a
        reference to the condition (and its waiters) alive until they
        trigger — a leak when the loser is a long-dated timeout."""
        on_child = self._on_child
        for ev in self.events:
            callbacks = ev.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(on_child)
                except ValueError:
                    pass


class AllOf(_Condition):
    """Succeeds when every child event has succeeded.

    Fails as soon as any child fails (remaining children keep running).
    The value is the list of child values in construction order.
    """

    __slots__ = ()

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            ev.defuse()
            self.fail(ev.exception)  # type: ignore[arg-type]
            self._detach_pending()
            return
        self._n_done += 1
        if self._n_done == len(self.events):
            self.succeed([e.value for e in self.events])


class AnyOf(_Condition):
    """Succeeds when the first child succeeds; value is (event, value)."""

    __slots__ = ()

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            ev.defuse()
            self.fail(ev.exception)  # type: ignore[arg-type]
            self._detach_pending()
            return
        self.succeed((ev, ev._value))
        self._detach_pending()


class Simulator:
    """The event loop: a time-ordered queue of callbacks.

    Typical use::

        sim = Simulator()
        sim.spawn(my_process(sim))
        sim.run(until=600.0)
    """

    def __init__(self):
        self.now: float = 0.0
        #: future callbacks: a heap of [when, seq, callback, args] lists
        #: (lists, not tuples, so cancellation can blank them in place)
        self._queue: List[list] = []
        #: callbacks due at the current instant, FIFO by seq
        self._ready: deque = deque()
        self._counter = itertools.count()
        self._running = False
        #: the process whose slice is executing right now (None between
        #: slices, e.g. inside a plain scheduled callback)
        self.current_process = None
        #: failed events that had no waiters when they triggered; their
        #: exceptions are surfaced when the run ends instead of being
        #: silently dropped (the dispatch callback may never execute if
        #: the run stops in the same instant the failure was scheduled).
        #: An insertion-ordered dict keyed by identity: O(1) discard in
        #: _dispatch, deterministic iteration in _surface_unhandled.
        self._unhandled_failures: dict = {}
        #: the observers' read surfaces, for tests and harnesses; None is
        #: off.  Model code reports through ``probe`` instead — except this
        #: module's Event-lifecycle sanitizer hooks (see repro.obs.probe)
        self.sanitizer = None  # runtime race/leak sanitizer (repro.analysis)
        self.tracer = None  # causal tracer (repro.trace)
        self.metrics = None  # unified metrics registry (repro.metrics)
        self.obs = None  # latency-attribution collector (repro.obs)
        #: the one instrumentation seam: None until the first enable_*()
        self.probe = None
        sanitize = os.environ.get("REPRO_SANITIZE", "")
        if sanitize not in ("", "0"):
            # "nonstrict"/"collect": record findings without raising —
            # used by the static/runtime cross-validation harness
            self.enable_sanitizer(
                strict=sanitize not in ("nonstrict", "collect")
            )
        if os.environ.get("REPRO_TRACE", "") not in ("", "0"):
            self.enable_tracer()
            self.enable_metrics()
        if os.environ.get("REPRO_OBS", "") not in ("", "0"):
            self.enable_obs()

    def _attach(self, field: str, observer):
        """Publish ``observer`` on its read surface and on the probe."""
        from ..obs.probe import Probe

        if self.probe is None:
            self.probe = Probe(self)
        setattr(self, field, observer)
        setattr(self.probe, field, observer)
        return observer

    def enable_sanitizer(self, strict: bool = True):
        """Attach a :class:`repro.analysis.Sanitizer` to this simulator."""
        from ..analysis.sanitizer import Sanitizer

        return self._attach("sanitizer", Sanitizer(self, strict=strict))

    def enable_tracer(self, trace_resumes: bool = False):
        """Attach a :class:`repro.trace.Tracer` to this simulator."""
        from ..trace import Tracer

        if self.tracer is None:
            self._attach("tracer", Tracer(self, trace_resumes=trace_resumes))
            self.probe.trace_resumes = trace_resumes
        return self.tracer

    def enable_metrics(self):
        """Attach a :class:`repro.metrics.MetricsRegistry`."""
        from ..metrics.registry import MetricsRegistry

        if self.metrics is None:
            self._attach("metrics", MetricsRegistry(self))
        return self.metrics

    def enable_obs(self):
        """Attach a :class:`repro.obs.ObsCollector` (latency attribution).

        Implies :meth:`enable_metrics` (the obs report surfaces metrics
        like ``sampler.clamped``).  Adds no events, timeouts, or
        processes: the schedule — and golden trace digests — stay
        byte-identical to an obs-off run.
        """
        from ..obs.collector import ObsCollector

        self.enable_metrics()
        if self.obs is None:
            self._attach("obs", ObsCollector(self))
        return self.obs

    # -- low-level scheduling ----------------------------------------------

    def _schedule_at(self, when: float, callback: Callable, *args: Any) -> list:
        """Schedule at an absolute time; returns the (mutable) heap entry."""
        if when < self.now:
            raise SimulationError(
                "cannot schedule in the past (%g < %g)" % (when, self.now)
            )
        entry = [when, next(self._counter), callback, args]
        heapq.heappush(self._queue, entry)
        return entry

    def after(self, delay: float, callback: Callable, *args: Any) -> TimerHandle:
        """Schedule ``callback(*args)`` after ``delay``; returns a
        :class:`TimerHandle` whose ``cancel()`` discards it in O(1).

        This is the bare-callback timer the hot paths use (RPC
        retransmit timers): no Event is allocated, and the cancelled
        entry is lazily skipped by the run loop."""
        return TimerHandle(self._schedule_at(self.now + delay, callback, *args))

    def call_soon(self, callback: Callable, *args: Any) -> None:
        """Schedule ``callback`` at the current simulated time."""
        self._ready.append((next(self._counter), callback, args))

    def _trigger(self, event: Event) -> None:
        """Deliver an event to its waiters at the current time."""
        callbacks = event.callbacks
        event.callbacks = None
        if self.sanitizer is not None:
            self.sanitizer.on_trigger(event, len(callbacks))
        if event._exception is None:
            if not callbacks:
                # nobody is waiting and nothing failed (a process nobody
                # joins, a Store.get with an item ready): an entry would
                # run no code at all, so none is scheduled
                return
            if len(callbacks) == 1:
                # dominant case: one waiter, successful trigger — dispatch
                # the callback directly, skipping _dispatch's bookkeeping
                self._ready.append((next(self._counter), callbacks[0], (event,)))
                return
        if event._exception is not None and not callbacks and not event._defused:
            self._unhandled_failures[event] = None
        self._ready.append((next(self._counter), self._dispatch, (event, callbacks)))

    def _dispatch(self, event: Event, callbacks: List[Callable]) -> None:
        if self._unhandled_failures:
            self._unhandled_failures.pop(event, None)
        for cb in callbacks:
            cb(event)
        if (
            event._exception is not None
            and not event._defused
            and not callbacks
        ):
            if self.sanitizer is not None:
                self.sanitizer.on_unhandled_failure(event)
            raise event._exception

    def _surface_unhandled(self, skip: Optional[Event] = None) -> None:
        """Raise the exception of a failed, waiterless, un-defused event
        whose dispatch never ran before the run stopped (satisfying the
        no-silently-dropped-failures guarantee).  ``skip`` is the event
        a ``run_until`` caller is about to inspect themselves."""
        if not self._unhandled_failures:
            return
        pending = [
            ev
            for ev in self._unhandled_failures
            if ev is not skip and not ev._defused and ev._exception is not None
        ]
        self._unhandled_failures = {}
        if pending:
            if self.sanitizer is not None:
                for ev in pending:
                    self.sanitizer.on_unhandled_failure(ev)
            raise pending[0]._exception

    # -- public API ----------------------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def all_of(self, events: List[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: List[Event]) -> AnyOf:
        return AnyOf(self, events)

    _process_cls = None  # cached by spawn() (circular-import break)

    def spawn(self, generator, name: str = "") -> "Process":
        """Start a new process from a generator; returns the Process."""
        cls = Simulator._process_cls
        if cls is None:
            from .process import Process

            cls = Simulator._process_cls = Process
        return cls(self, generator, name=name)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or simulated time reaches ``until``.

        Returns the simulated time at which the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        queue = self._queue
        ready = self._ready
        pop = heapq.heappop
        try:
            while True:
                while queue and queue[0][2] is None:  # cancelled timers
                    pop(queue)
                if ready:
                    if until is not None and self.now > until:
                        self.now = until
                        break
                    # FIFO at equal time: a heap entry due *now* with a
                    # smaller seq was scheduled before the oldest ready
                    # entry and must run first
                    if (
                        queue
                        and queue[0][0] == self.now
                        and queue[0][1] < ready[0][0]
                    ):
                        head = pop(queue)
                        callback, args = head[2], head[3]
                        head[2] = None  # consumed: TimerHandle.active -> False
                        callback(*args)
                    else:
                        item = ready.popleft()
                        item[1](*item[2])
                    continue
                if not queue:
                    if until is not None and until > self.now:
                        self.now = until
                    if self.sanitizer is not None:
                        self.sanitizer.on_queue_drained()
                    break
                head = queue[0]
                when = head[0]
                if until is not None and when > until:
                    self.now = until
                    break
                pop(queue)
                self.now = when
                callback, args = head[2], head[3]
                head[2] = None  # consumed: TimerHandle.active -> False
                callback(*args)
            self._surface_unhandled()
        finally:
            self._running = False
        return self.now

    def run_until(self, event: Event, limit: Optional[float] = None) -> float:
        """Run until ``event`` triggers (or the queue drains / ``limit``).

        Daemon processes reschedule themselves forever, so plain
        :meth:`run` never returns once one is started; experiments
        instead run until their workload's completion event fires.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        queue = self._queue
        ready = self._ready
        pop = heapq.heappop
        try:
            while event._value is _UNSET and event._exception is None:
                while queue and queue[0][2] is None:  # cancelled timers
                    pop(queue)
                if ready:
                    if limit is not None and self.now > limit:
                        self.now = limit
                        break
                    if (
                        queue
                        and queue[0][0] == self.now
                        and queue[0][1] < ready[0][0]
                    ):
                        head = pop(queue)
                        callback, args = head[2], head[3]
                        head[2] = None  # consumed: TimerHandle.active -> False
                        callback(*args)
                    else:
                        item = ready.popleft()
                        item[1](*item[2])
                    continue
                if not queue:
                    break
                head = queue[0]
                when = head[0]
                if limit is not None and when > limit:
                    self.now = limit
                    break
                pop(queue)
                self.now = when
                callback, args = head[2], head[3]
                head[2] = None  # consumed: TimerHandle.active -> False
                callback(*args)
            self._surface_unhandled(skip=event)
        finally:
            self._running = False
        return self.now

    def peek(self) -> Optional[float]:
        """Time of the next scheduled callback, or None if queue empty."""
        if self._ready:
            return self.now
        queue = self._queue
        while queue and queue[0][2] is None:
            heapq.heappop(queue)
        return queue[0][0] if queue else None
