"""Synchronization and queueing primitives for simulation processes.

These are the building blocks used by the higher layers:

* :class:`Resource` — a counted resource with a FIFO wait queue (disk
  arms, RPC server threads, NIC transmitters).
* :class:`Lock` — a Resource of capacity 1 with a context-manager-free
  acquire/release pair (processes are generators, so ``with`` cannot
  suspend; callers pair acquire/release in try/finally).
* :class:`Semaphore` — counting semaphore without ownership.
* :class:`Store` — an unbounded FIFO channel of items (message queues,
  request queues); ``get`` blocks until an item is available.
* :class:`Broadcast` — a reusable signal: each ``wait()`` returns a
  fresh event that the next ``fire()`` triggers (used for "state
  changed, re-check your predicate" loops).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from .engine import Event, SimulationError, Simulator

__all__ = ["Resource", "Lock", "Semaphore", "Store", "Broadcast"]


class Resource:
    """A counted resource with FIFO granting.

    ``acquire()`` returns an event that succeeds when a unit is granted;
    the holder must call ``release()`` exactly once per grant.  When a
    unit is free the grant happens inside ``acquire()`` and every such
    call returns the same already-succeeded event (its value is the
    resource), so ``yield res.acquire()`` allocates nothing.  A *hold*
    (take a unit, sleep, release) skips even that resume: ``if not
    res.try_acquire(): yield res.acquire()``.  ``release()`` hands a freed
    unit straight to the next waiter, so ``try_acquire()`` cannot barge —
    and passes over a request nobody waits on any more (interrupted, timed
    out of an ``any_of``): nobody would release a unit granted to it.
    Accrued busy time is tracked so utilization can be computed: the
    resource is "busy" whenever at least one unit is held.
    """

    #: repro.obs attribution kind ("cpu", "disk", "threads"); owners that
    #: want queue-wait accounting set this, None leaves the resource
    #: invisible to the collector
    obs_kind: Optional[str] = None

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.sim = sim
        self.name = name
        self._ev_name = "acquire:%s" % name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        # busy-time accounting (any unit held)
        self._busy_since: Optional[float] = None
        self._busy_accum = 0.0
        #: what every uncontended acquire() returns; triggered events
        #: keep no waiter list, so sharing it leaks nothing
        self._granted = Event(sim, self._ev_name).succeed(self)

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        if self.try_acquire():
            return self._granted
        ev = Event(self.sim, self._ev_name)
        self._waiters.append(ev)
        # queue-wait attribution must stamp the *waiter's* frame now:
        # the grant later runs in the releasing process's context
        if self.sim.probe is not None:
            self.sim.probe.wait_begin(self, ev)
        return ev

    def try_acquire(self) -> bool:
        """Acquire immediately if a unit is free; never queues."""
        if self._in_use < self.capacity:
            self._in_use += 1
            if self._busy_since is None:
                self._busy_since = self.sim.now
            return True
        return False

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release of un-acquired resource %s" % self.name)
        waiters = self._waiters
        while waiters:  # contended: not the hot path
            waiter = waiters.popleft()
            granted = bool(waiter.callbacks)  # else abandoned: granted, it would leak
            if self.sim.probe is not None:
                self.sim.probe.wait_end(self, waiter, granted)
            if granted:
                # handed straight over: the unit is never free in between
                waiter.succeed(self)
                return
        self._in_use -= 1
        if self._in_use == 0 and self._busy_since is not None:
            self._busy_accum += self.sim.now - self._busy_since
            self._busy_since = None

    def busy_time(self) -> float:
        """Total simulated time during which any unit was held."""
        total = self._busy_accum
        if self._busy_since is not None:
            total += self.sim.now - self._busy_since
        return total


class Lock(Resource):
    """A mutual-exclusion lock (Resource of capacity 1)."""

    def __init__(self, sim: Simulator, name: str = ""):
        super().__init__(sim, capacity=1, name=name)

    @property
    def locked(self) -> bool:
        return self._in_use > 0


class Semaphore:
    """A counting semaphore: ``down()`` waits for a token, ``up()`` adds one.

    Unlike :class:`Resource`, the count may exceed its initial value.
    """

    def __init__(self, sim: Simulator, value: int = 0, name: str = ""):
        if value < 0:
            raise SimulationError("semaphore value must be >= 0")
        self.sim = sim
        self.name = name
        self._ev_name = "sem-down:%s" % name
        self._value = value
        self._waiters: Deque[Event] = deque()

    @property
    def value(self) -> int:
        return self._value

    def down(self) -> Event:
        ev = Event(self.sim, self._ev_name)
        if self._value > 0:
            self._value -= 1
            ev.succeed(self)
        else:
            self._waiters.append(ev)
        return ev

    def up(self) -> None:
        if self._waiters:
            self._waiters.popleft().succeed(self)
        else:
            self._value += 1


class Store:
    """An unbounded FIFO channel of items.

    ``put`` never blocks; ``get`` returns an event that succeeds with
    the oldest item.  Waiters are served FIFO.
    """

    def __init__(self, sim: Simulator, name: str = "", daemon: bool = False):
        self.sim = sim
        self.name = name
        #: a daemon store feeds an idle service loop (a worker pool):
        #: its forever-pending gets are not deadlocks,
        #: so the sanitizer's leak check skips them
        self.daemon = daemon
        self._ev_name = "store-get:%s" % name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = Event(self.sim, self._ev_name)
        if self.daemon:
            ev.leak_ok = True
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Tuple[bool, Any]:
        """Non-blocking get: (True, item) or (False, None)."""
        if self._items:
            return True, self._items.popleft()
        return False, None


class Broadcast:
    """A reusable signal.

    Each call to ``wait()`` returns a fresh one-shot event; ``fire()``
    triggers every event handed out since the previous fire.  Typical
    use is a condition-variable loop::

        while not predicate():
            yield changed.wait()
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._ev_name = "broadcast:%s" % name
        self._waiters: List[Event] = []

    def wait(self) -> Event:
        ev = Event(self.sim, self._ev_name)
        self._waiters.append(ev)
        return ev

    def fire(self, value: Any = None) -> int:
        """Trigger all current waiters; returns how many were woken."""
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed(value)
        return len(waiters)
