"""SimTSan: a runtime race/leak sanitizer for the simulation.

The discrete-event engine executes exactly one process slice at a time,
so there are no data races in the OS sense — but there are *logical*
races: a process that writes a shared structure, yields (waits on a
callback RPC, a disk, a lock), and resumes assuming nothing else
touched the structure in between.  Those bugs are exactly the ones the
SNFS server must not have (two opens of the same file interleaving
through their callback waits), and the test suite only samples them.

The sanitizer hooks into :class:`~repro.sim.engine.Simulator` (enabled
by ``REPRO_SANITIZE=1`` in the environment, or programmatically via
``sim.enable_sanitizer()``) and checks four finding classes:

``write-race``
    A process wrote a shared structure (state-table entry, cache
    buffer, fd table) while another process was mid-operation on the
    same structure — i.e. had written it and then yielded on a
    waitable without a lock serializing the two.  Instrumented code
    brackets logical operations with :meth:`Sanitizer.begin` /
    :meth:`Sanitizer.end` and reports mutations with
    :meth:`Sanitizer.note_write`.

``double-resolve``
    ``succeed``/``fail`` on an already-triggered Event.  The engine
    raises either way; the sanitizer records *who* triggered it first
    so the report names both parties.

``event-leak``
    The event queue drained (nothing can ever happen again) while an
    untriggered Event still held waiting processes: a deadlock.  Idle
    service queues (a worker pool waiting for work) mark their
    events ``leak_ok`` via ``Store(daemon=True)``.

``rpc-double-reply``
    The duplicate-request cache was asked to record a second, distinct
    reply for an (src, xid) it already completed — a non-idempotent
    request executed twice.

``dropped-failure``
    An Event failed with no waiters and the run ended before the
    failure could be surfaced (see ``Simulator._surface_unhandled``).

Findings raise :class:`SanitizerError` at the detection site when the
sanitizer is strict (the default), so a CI run with ``REPRO_SANITIZE=1``
fails loudly with the full simulated-time context.
"""

from __future__ import annotations

import sys
import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple

from ..obs import probe as _probe

__all__ = ["Sanitizer", "SanitizerError", "RuntimeFinding"]

#: frames that relay a report rather than make one
_OWN_FILES = (__file__, _probe.__file__)

Site = Tuple[str, int]


def _call_sites(limit: int = 8) -> Tuple[Site, ...]:
    """``(filename, lineno)`` for the instrumented caller's frames,
    innermost first, skipping the sanitizer's and the probe's own frames.

    These are the *detection* sites; the static atomicity pass promises
    that every runtime finding's sites intersect a statically flagged
    region (see :func:`~repro.analysis.atomicity.flagged_regions`).
    """
    sites: List[Site] = []
    frame = sys._getframe(1)
    while frame is not None and len(sites) < limit:
        filename = frame.f_code.co_filename
        if filename not in _OWN_FILES:
            sites.append((filename, frame.f_lineno))
        frame = frame.f_back
    return tuple(sites)


class SanitizerError(AssertionError):
    """A sanitizer finding, raised at the detection site (strict mode)."""


@dataclass
class RuntimeFinding:
    kind: str
    message: str
    time: float
    #: (filename, lineno) frames involved in the finding: the detection
    #: site's stack plus, for write-races, the interleaved span's sites
    sites: Tuple[Site, ...] = field(default=())

    def format(self) -> str:
        return "[%s] t=%.6g: %s" % (self.kind, self.time, self.message)


class _Span:
    """One logical operation on a shared structure, possibly spanning
    many yield intervals."""

    __slots__ = ("category", "key", "proc", "label", "t0", "writes", "sites")

    def __init__(self, category: str, key: Hashable, proc: Any, label: str, t0: float):
        self.category = category
        self.key = key
        self.proc = proc
        self.label = label
        self.t0 = t0
        self.writes = 0
        self.sites: Tuple[Site, ...] = ()


class Sanitizer:
    """Collects (and, when strict, raises on) runtime findings."""

    def __init__(self, sim, strict: bool = True):
        self.sim = sim
        self.strict = strict
        self.findings: List[RuntimeFinding] = []
        self._spans: Dict[Tuple[str, Hashable], List[_Span]] = {}
        self._events: List[weakref.ref] = []

    # -- reporting ---------------------------------------------------------

    def _proc_label(self, proc: Any) -> str:
        if proc is None:
            return "<engine callback>"
        return getattr(proc, "name", None) or repr(proc)

    def report(
        self, kind: str, message: str, sites: Tuple[Site, ...] = ()
    ) -> None:
        finding = RuntimeFinding(
            kind, message, self.sim.now, sites or _call_sites()
        )
        self.findings.append(finding)
        if self.strict:
            raise SanitizerError(finding.format())

    def note(
        self, kind: str, message: str, sites: Tuple[Site, ...] = ()
    ) -> None:
        """Record a finding without raising (used where the engine is
        about to raise the underlying error itself)."""
        self.findings.append(
            RuntimeFinding(kind, message, self.sim.now, sites or _call_sites())
        )

    def findings_of(self, kind: str) -> List[RuntimeFinding]:
        return [f for f in self.findings if f.kind == kind]

    # -- write/write interleaving ------------------------------------------

    def begin(self, category: str, key: Hashable, label: str = "") -> _Span:
        """Open a logical-operation span on a shared structure."""
        proc = getattr(self.sim, "current_process", None)
        span = _Span(category, key, proc, label, self.sim.now)
        span.sites = _call_sites(limit=3)
        self._spans.setdefault((category, key), []).append(span)
        return span

    def end(self, span: _Span) -> None:
        spans = self._spans.get((span.category, span.key))
        if spans is not None:
            try:
                spans.remove(span)
            except ValueError:
                pass
            if not spans:
                del self._spans[(span.category, span.key)]

    def note_write(self, category: str, key: Hashable, what: str = "") -> None:
        """Record a mutation of a shared structure.

        Reports a race when another process has a span on the same
        structure that has already written it — the writer yielded
        mid-operation and this mutation interleaved with no lock (or
        other waitable) serializing the two.
        """
        proc = getattr(self.sim, "current_process", None)
        here = _call_sites()
        for span in self._spans.get((category, key), ()):
            if span.proc is proc:
                span.writes += 1
                span.sites = span.sites + here[:2]
            elif span.writes > 0:
                self.report(
                    "write-race",
                    "%s:%r written by %s (%s) while %s was mid-%s "
                    "(began t=%.6g, %d writes so far) with no intervening "
                    "lock or waitable"
                    % (
                        category,
                        key,
                        self._proc_label(proc),
                        what or "write",
                        self._proc_label(span.proc),
                        span.label or "operation",
                        span.t0,
                        span.writes,
                    ),
                    sites=here + span.sites,
                )

    # -- event lifecycle ----------------------------------------------------

    def on_event_created(self, event) -> None:
        self._events.append(weakref.ref(event))

    def on_trigger(self, event, waiter_count: int) -> None:
        event._san_trigger = (
            self._proc_label(getattr(self.sim, "current_process", None)),
            self.sim.now,
            waiter_count,
        )

    def on_double_trigger(self, event) -> None:
        first = getattr(event, "_san_trigger", None)
        if first is not None:
            detail = "first triggered by %s at t=%.6g (%d waiters)" % first
        else:
            detail = "first trigger site unknown"
        # note, don't raise: the engine raises SimulationError right
        # after this hook — the finding adds *who* resolved it first
        self.note(
            "double-resolve",
            "event %r resolved twice; %s; second resolve by %s"
            % (
                event.name or id(event),
                detail,
                self._proc_label(getattr(self.sim, "current_process", None)),
            ),
        )

    def on_unhandled_failure(self, event) -> None:
        self.note(
            "dropped-failure",
            "event %r failed with %r but had no waiters when the run "
            "ended; the exception would have been silently dropped"
            % (event.name or id(event), event._exception),
        )

    def on_queue_drained(self) -> None:
        """The simulation can make no further progress: any untriggered
        event still holding a waiting process is a deadlock."""
        from ..sim.process import Process

        live: List[weakref.ref] = []
        for ref in self._events:
            event = ref()
            if event is None:
                continue
            live.append(ref)
            if event.triggered or not event.callbacks:
                continue
            if getattr(event, "leak_ok", False):
                continue
            waiters = [
                cb.__self__.name
                for cb in event.callbacks
                if isinstance(getattr(cb, "__self__", None), Process)
            ]
            if waiters:
                self.report(
                    "event-leak",
                    "event %r never triggered but still holds waiting "
                    "process(es) %s at simulation end (deadlock)"
                    % (event.name or id(event), ", ".join(sorted(waiters))),
                )
        self._events = live

    # -- RPC invariants ------------------------------------------------------

    def on_rpc_double_reply(self, endpoint_addr: str, key, old, new) -> None:
        self.report(
            "rpc-double-reply",
            "endpoint %s recorded a second reply for request %r "
            "(proc %s): a non-idempotent request executed twice"
            % (endpoint_addr, key, getattr(new, "proc", "?")),
        )
