"""Causal tracing for the simulation: hierarchical spans and events.

The tracer answers the question the flat counters cannot: *which open
triggered that callback, and what did it cost?*  Every instrumented
layer (RPC, network, cache, disk, CPU, the SNFS state table) records
spans (operations with a duration) and instant events (points in time),
all keyed by **simulated** time and stitched into one causal tree:

* every span/event carries a ``(trace id, parent span id)`` context;
* the context lives on the running :class:`~repro.sim.process.Process`
  and is inherited by spawned children, so work forked from a traced
  operation stays inside its tree;
* :meth:`Tracer.context_of` / :meth:`Tracer.adopt` let the RPC layer
  ship the context inside the request message and re-establish it in
  the server-side handler process — a client ``open``, the server's
  state-table transition it causes, and the write-back a *different*
  client performs in response all share one trace.

Design constraints:

* **zero overhead when off** — sites report through ``sim.probe``
  (one attribute load and ``None`` test), and no trace objects exist
  until ``sim.enable_tracer()`` (or ``REPRO_TRACE=1``) is used;
* **deterministic** — ids come from counters, timestamps from
  ``sim.now``; no wall clock, no RNG, no ``id()``/hash values.  The
  exported trace of a seeded run is byte-identical across replays,
  which makes the trace itself a determinism oracle (diff the bytes).
"""

from __future__ import annotations

import itertools
import os
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

__all__ = ["Tracer", "Span", "TraceEvent"]

#: context tuple: (trace id, span id); parent id 0 means "a root"
Context = Tuple[int, int]


class Span:
    """One timed operation.  ``t1`` is None while the span is open."""

    __slots__ = (
        "sid", "parent", "trace", "name", "cat", "track", "thread",
        "t0", "t1", "args",
    )

    def __init__(self, sid, parent, trace, name, cat, track, thread, t0, args):
        self.sid = sid
        self.parent = parent
        self.trace = trace
        self.name = name
        self.cat = cat
        self.track = track
        self.thread = thread
        self.t0 = t0
        self.t1: Optional[float] = None
        self.args: Optional[Dict[str, Any]] = args

    def duration(self, end: Optional[float] = None) -> float:
        t1 = self.t1 if self.t1 is not None else end
        return 0.0 if t1 is None else max(0.0, t1 - self.t0)

    def __repr__(self) -> str:
        state = "open" if self.t1 is None else "%.6gs" % self.duration()
        return "<Span #%d %s [%s] %s>" % (self.sid, self.name, self.track, state)


class TraceEvent:
    """One instant event, attached to the active span at emission time."""

    __slots__ = ("eid", "parent", "trace", "name", "cat", "track", "thread", "t", "args")

    def __init__(self, eid, parent, trace, name, cat, track, thread, t, args):
        self.eid = eid
        self.parent = parent
        self.trace = trace
        self.name = name
        self.cat = cat
        self.track = track
        self.thread = thread
        self.t = t
        self.args: Optional[Dict[str, Any]] = args

    def __repr__(self) -> str:
        return "<TraceEvent %s [%s] t=%.6g>" % (self.name, self.track, self.t)


class Tracer:
    """Collects spans and events for one :class:`~repro.sim.Simulator`.

    Usually created via ``sim.enable_tracer()``; the simulator holds the
    only reference, so a tracer dies with it.  :meth:`capture` collects
    the tracers of every simulator a callable builds.
    """

    #: the innermost active :meth:`capture`'s collection, else None
    _capturing: Optional[List["Tracer"]] = None

    def __init__(self, sim, trace_resumes: bool = False):
        self.sim = sim
        self.spans: List[Span] = []
        self.events: List[TraceEvent] = []
        #: also record a proc.resume event on every process resumption
        #: (very high volume; off by default)
        self.trace_resumes = trace_resumes
        self._span_ids = itertools.count(1)
        self._event_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        #: context used outside any process (plain engine callbacks)
        self._ambient: Optional[Context] = None
        if Tracer._capturing is not None:
            Tracer._capturing.append(self)

    @classmethod
    def capture(cls, run_fn: Callable[[], Any]) -> Tuple[Any, List["Tracer"]]:
        """Call ``run_fn`` with ``REPRO_TRACE`` armed, so that every
        simulator it builds records a trace; returns its result and
        those tracers (one experiment may build several testbeds).
        Nested captures each see exactly the tracers built inside them."""
        outer, mine = cls._capturing, []
        cls._capturing = mine
        had = os.environ.get("REPRO_TRACE")
        os.environ["REPRO_TRACE"] = "1"
        try:
            result = run_fn()
        finally:
            cls._capturing = outer
            if had is None:
                os.environ.pop("REPRO_TRACE", None)
            else:
                os.environ["REPRO_TRACE"] = had
        return result, mine

    # -- context plumbing ---------------------------------------------------

    def current_context(self) -> Optional[Context]:
        proc = self.sim.current_process
        if proc is not None:
            return proc.trace_ctx
        return self._ambient

    def _set_context(self, ctx: Optional[Context]) -> None:
        proc = self.sim.current_process
        if proc is not None:
            proc.trace_ctx = ctx
        else:
            self._ambient = ctx

    def adopt(self, ctx) -> Optional[Context]:
        """Make ``ctx`` (e.g. shipped inside an RPC request) the current
        context; returns the previous context."""
        prev = self.current_context()
        self._set_context(tuple(ctx) if ctx is not None else None)
        return prev

    @staticmethod
    def context_of(span: Span) -> Context:
        """The context a child (or a remote peer) should inherit."""
        return (span.trace, span.sid)

    # -- recording ----------------------------------------------------------

    def begin(self, name: str, cat: str = "", track: str = "", **args) -> Span:
        """Open a span as a child of the current context."""
        ctx = self.current_context()
        if ctx is None:
            trace, parent = next(self._trace_ids), 0
        else:
            trace, parent = ctx
        proc = self.sim.current_process
        span = Span(
            next(self._span_ids), parent, trace, name, cat, track,
            proc.name if proc is not None else "", self.sim.now, args or None,
        )
        self.spans.append(span)
        self._set_context((trace, span.sid))
        return span

    def end(self, span: Span, **args) -> None:
        """Close a span; extra ``args`` are merged into it."""
        span.t1 = self.sim.now
        if args:
            merged = dict(span.args) if span.args else {}
            merged.update(args)
            span.args = merged
        ctx = self.current_context()
        if ctx is not None and ctx[1] == span.sid:
            self._set_context((span.trace, span.parent) if span.parent else None)

    def instant(self, name: str, cat: str = "", track: str = "", **args) -> TraceEvent:
        """Record a point event under the current context."""
        ctx = self.current_context()
        trace, parent = ctx if ctx is not None else (0, 0)
        proc = self.sim.current_process
        event = TraceEvent(
            next(self._event_ids), parent, trace, name, cat, track,
            proc.name if proc is not None else "", self.sim.now, args or None,
        )
        self.events.append(event)
        return event

    def close_open_spans(self) -> int:
        """Stamp ``sim.now`` onto still-open spans (pre-export)."""
        closed = 0
        for span in self.spans:
            if span.t1 is None:
                span.t1 = self.sim.now
                closed += 1
        return closed

    # -- causality queries --------------------------------------------------

    def span_index(self) -> Dict[int, Span]:
        return {span.sid: span for span in self.spans}

    def ancestors(
        self, node: Union[Span, TraceEvent], index: Optional[Dict[int, Span]] = None
    ) -> Iterator[Span]:
        """The chain of enclosing spans, nearest first (crosses hosts:
        an RPC serve span's parent is the caller's call span)."""
        if index is None:
            index = self.span_index()
        parent = node.parent
        seen = set()
        while parent and parent not in seen:
            seen.add(parent)
            span = index.get(parent)
            if span is None:
                return
            yield span
            parent = span.parent

    def find_spans(self, prefix: str = "", track: Optional[str] = None) -> List[Span]:
        return [
            s for s in self.spans
            if s.name.startswith(prefix) and (track is None or s.track == track)
        ]

    def find_events(self, prefix: str = "", track: Optional[str] = None) -> List[TraceEvent]:
        return [
            e for e in self.events
            if e.name.startswith(prefix) and (track is None or e.track == track)
        ]

    def __repr__(self) -> str:
        return "<Tracer %d spans, %d events>" % (len(self.spans), len(self.events))
