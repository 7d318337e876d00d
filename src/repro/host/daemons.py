"""Host daemons: the periodic sync process and the async-writer pool.

* :class:`UpdateDaemon` models ``/etc/update``: every 30 seconds it
  syncs every mount, writing delayed-write data back (§4.2.3).  Tables
  5-5/5-6 are produced by disabling it ("infinite write-delay").
* :class:`AsyncPool` models the ``biod`` daemons of an NFS client: a
  fixed set of workers that perform write-through RPCs asynchronously
  so the application does not wait, while ``drain`` lets close() wait
  for a file's pending writes (§2.1: "a block may be handed to a daemon
  process, which immediately writes it to the server").
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, Hashable

from ..sim import Event, Interrupt, Simulator, Store

__all__ = ["UpdateDaemon", "AsyncPool"]


class UpdateDaemon:
    """Periodic write-back of delayed-write data on a host.

    Two policies (§4.2.3):

    * ``"all"`` — the traditional Unix ``/etc/update``: every interval,
      flush *every* dirty block.  The paper's SNFS "follows the
      traditional Unix policy ... mostly by default".
    * ``"age"`` — the Sprite policy: each tick, write back only blocks
      that have been dirty for at least ``interval`` seconds ("dirty
      blocks are written back to the server when they reach 30 seconds
      in age; this is somewhat less conservative").  Checked at a finer
      sub-interval so block ages are honoured reasonably precisely.
    """

    def __init__(
        self,
        sim: Simulator,
        kernel,
        interval: float = 30.0,
        policy: str = "all",
    ):
        if policy not in ("all", "age"):
            raise ValueError("unknown write-back policy %r" % policy)
        self.sim = sim
        self.kernel = kernel
        self.interval = interval
        self.policy = policy
        self._proc = None

    @property
    def running(self) -> bool:
        return self._proc is not None and self._proc.is_alive

    def start(self) -> None:
        if self.running:
            return
        self._proc = self.sim.spawn(self._loop(), name="update-daemon")

    def stop(self) -> None:
        if self.running:
            self._proc.interrupt("stopped")
        self._proc = None

    def _loop(self):
        tick = self.interval if self.policy == "all" else self.interval / 4
        try:
            while True:
                yield self.sim.timeout(tick)
                if self.policy == "all":
                    yield from self.kernel.sync()
                else:
                    yield from self.kernel.sync(min_age=self.interval)
        except Interrupt:
            return


class AsyncPool:
    """A fixed pool of worker daemons executing submitted coroutines.

    ``submit`` enqueues a coroutine factory and returns an Event that
    triggers when the work finishes.  ``drain(key)`` waits until every
    task submitted under ``key`` has completed — the mechanism behind
    NFS's "synchronously finish all pending write-throughs on close".
    """

    def __init__(self, sim: Simulator, n_workers: int = 4, name: str = "asyncpool"):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.sim = sim
        self.name = name
        self._queue = Store(sim, name=name, daemon=True)
        # insertion-ordered (a set of Events would iterate in id() order,
        # which varies run to run and breaks bit-exact reproducibility)
        self._pending: Dict[Hashable, Dict[Event, None]] = defaultdict(dict)
        self._workers = [
            sim.spawn(self._worker(), name="%s-%d" % (name, i)) for i in range(n_workers)
        ]

    def submit(self, make_coro: Callable[[], Any], key: Hashable = None) -> Event:
        """Enqueue work; ``make_coro()`` is called by the worker that
        runs it.  Returns the completion event (fails if the work
        raises; the failure is pre-defused so an un-joined event does
        not crash the simulation)."""
        done = self.sim.event(name="%s-done" % self.name)
        done.defuse()
        self._pending[key][done] = None
        self._queue.put((make_coro, key, done))
        return done

    def drain(self, key: Hashable = None):
        """Coroutine: wait for all currently-pending work under ``key``."""
        while True:
            waiting = [ev for ev in self._pending.get(key, ()) if not ev.triggered]
            if not waiting:
                return
            for ev in waiting:
                yield ev

    def _worker(self):
        while True:
            make_coro, key, done = yield self._queue.get()
            try:
                result = yield from make_coro()
            except GeneratorExit:
                raise  # worker itself is being torn down
            except BaseException as exc:  # noqa: BLE001 - reported via event
                self._finish(key, done)
                done.fail(exc)
                done.defuse()
            else:
                self._finish(key, done)
                done.succeed(result)

    def _finish(self, key: Hashable, done: Event) -> None:
        bucket = self._pending.get(key)
        if bucket is not None:
            bucket.pop(done, None)
            if not bucket:
                self._pending.pop(key, None)
