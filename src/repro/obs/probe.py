"""The one instrumentation seam: model code reports each event once.

``sim.probe`` is ``None`` until the first ``sim.enable_*()`` and one
:class:`Probe` afterwards, so a model site costs one attribute load and
one ``None`` test while nothing observes.  The method bodies below are
the *only* code that knows which of the four observers (causal tracer,
metrics registry, obs collector, sanitizer) consumes a point; each keeps
its own recording API and gets the arguments, in the order, it got when
sites called it directly, so every trace, obs and golden digest stands.
The vocabulary is fixed — ``tests/obs/test_probe.py`` fails on a point
nothing emits — and a new observer is one more field plus a line in the
methods it cares about (docs/OBSERVABILITY.md has the table).

Exempt, on purpose: the seven ``Event``-lifecycle sanitizer hooks in
``sim/engine.py`` (one consumer, the hottest path in the tree) and
``Kernel.tracer`` (the syscall recorder feeding the consistency oracle:
checking code, and not ``sim.tracer``).  The always-on ``Tally`` counts
are model output, not observation; they are bumped in place.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional, Tuple

__all__ = ["Probe", "RPC_LATENCY_BUCKETS"]

#: rpc.latency histogram buckets — the registry default starts at 1 ms,
#: above many LAN round trips, so sub-ms calls all piled into one bucket
RPC_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class Probe:
    """Fans each model event out to the observers ``enable_*`` attached."""

    __slots__ = ("sim", "tracer", "metrics", "obs", "sanitizer", "trace_resumes")

    def __init__(self, sim):
        self.sim = sim
        self.tracer = self.metrics = self.obs = self.sanitizer = None
        #: mirrors tracer.trace_resumes: one test in Process._resume
        self.trace_resumes = False

    # -- rpc, client side -------------------------------------------------

    def call_begin(self, address: str, dst: str, proc: str) -> Tuple[tuple, Any]:
        """Returns ``(token, ctx)``: the token is for :meth:`call_end`, the trace
        context rides in the request so the server joins the caller's tree."""
        span = ctx = frame = None
        if self.tracer is not None:
            span = self.tracer.begin("rpc.call:%s" % proc, cat="rpc", track=address, dst=dst)
            ctx = self.tracer.context_of(span)
        if self.obs is not None:
            frame = self.obs.frame_begin("client")
        return (span, frame, self.sim.now, address, dst, proc), ctx

    def reply(self, srv_phases: Optional[tuple]) -> None:
        """A reply arrived, carrying what the server's :meth:`serve_end` returned."""
        if self.obs is not None and srv_phases is not None:
            self.obs.attach_server_phases(srv_phases)

    def retransmit(self, address: str, proc: str, attempt: int) -> None:
        if self.tracer is not None:
            self.tracer.instant(
                "rpc.retransmit", cat="rpc", track=address, proc=proc, attempt=attempt
            )
        if self.metrics is not None:
            self.metrics.counter("rpc.retrans").inc(proc=proc, endpoint=address)

    def call_end(self, token: tuple, exc: Optional[BaseException] = None) -> None:
        span, frame, t_start, address, dst, proc = token
        if exc is not None:
            if span is not None:
                self.tracer.end(span, error=type(exc).__name__)
            if frame is not None:
                self.obs.record_client_failure(proc, frame)
            return
        if span is not None:
            self.tracer.end(span)
        if frame is not None:
            self.obs.record_client_op(proc, frame, server=dst)
        if self.metrics is not None:
            self.metrics.histogram("rpc.latency", buckets=RPC_LATENCY_BUCKETS).observe(
                self.sim.now - t_start, proc=proc, endpoint=address, server=dst
            )

    # -- rpc, server side -------------------------------------------------

    def dup_hit(self, address: str, proc: str, src: str, kind: str, ctx: Any) -> None:
        """A retransmission hit the duplicate cache: ``kind`` is "busy"
        (the original still executes) or "done" (a cached reply)."""
        if self.tracer is not None:
            self.tracer.adopt(ctx)
            self.tracer.instant(
                "rpc.dup_hit", cat="rpc", track=address, proc=proc, src=src, kind=kind
            )
        if self.metrics is not None:
            self.metrics.counter("rpc.dup_hits").inc(proc=proc, endpoint=address, kind=kind)

    def serve_begin(self, address: str, proc: str, src: str, ctx: Any) -> list:
        """A request will execute: called before thread-pool admission so
        queue-wait counts.  The token goes to the other serve points."""
        span = frame = None
        if self.tracer is not None:
            # join the caller's causal tree before recording anything
            self.tracer.adopt(ctx)
            span = self.tracer.begin("rpc.serve:%s" % proc, cat="rpc", track=address, src=src)
        if self.obs is not None:
            frame = self.obs.frame_begin("server")
        return [span, frame]

    def serve_execute(self, proc: str, src: str) -> None:
        """Admitted and charged: the handler runs next (not a duplicate)."""
        if self.obs is not None:
            self.obs.note_request(proc, src)

    def serve_end(self, token: list) -> Optional[tuple]:
        """The handler is done and acknowledged.  Returns the server's phase
        split to piggyback on the reply: closed before the send so transit
        stays net time; a replayed (duplicate-cache) reply carries it too."""
        frame, token[1] = token[1], None
        return None if frame is None else self.obs.close_server_frame(frame)

    def dup_record(self, address: str, key: tuple, prior: Any, reply: Any) -> None:
        """``reply`` enters the duplicate cache under ``key``, where
        ``prior`` — in a correct run, None — already sits."""
        if self.sanitizer is not None and prior is not None:
            self.sanitizer.on_rpc_double_reply(address, key, prior, reply)

    def serve_exit(self, token: list, error: Optional[BaseException]) -> None:
        """The serving process leaves: replied, found its epoch crashed,
        or torn down mid-serve (an open frame is dropped, not recorded)."""
        span, frame = token
        if frame is not None:
            self.obs.frame_abort(frame)
        if span is not None and span.t1 is None:
            if error is not None:
                self.tracer.end(span, error=type(error).__name__)
            else:
                self.tracer.end(span)

    # -- where an operation's time went: service, timers, queues ------------

    def spent(self, kind: str, seconds: float) -> None:
        """The operation in flight in this process spent ``seconds`` on
        "cpu.service", "disk.service" (holding the unit) or "retrans.wait"
        (a retransmit timer that ran its full course: pure waiting)."""
        if self.obs is not None:
            self.obs.add(kind, seconds)

    def wait_begin(self, resource, ev) -> None:
        """``ev`` queued: stamped now, the grant runs in the releaser's context."""
        if self.obs is not None:
            self.obs.wait_begin(resource, ev)

    def wait_end(self, resource, ev, granted: bool) -> None:
        """``ev`` left the queue: granted a unit, or passed over because
        its waiter gave up (interrupted, timed out) — no grant, no count."""
        if self.obs is not None:
            if granted:
                self.obs.wait_end(resource, ev)
            else:
                self.obs.wait_abandoned(ev)

    # -- shared structures ------------------------------------------------------

    def table_transition(self, track: str, event: str, key, client, before, after) -> None:
        """One Table 4-1 transition of the SNFS state table on ``track``."""
        if self.sanitizer is not None:
            self.sanitizer.note_write("snfs-state", key, what=event)
        if self.tracer is not None:
            self.tracer.instant(
                "snfs.transition", cat="snfs", track=track, event=event, file=repr(key),
                client=client, before=before.value, after=after.value,
            )

    def region_begin(self, category: str, key: Hashable, label: str, wrote: bool) -> Any:
        """A multi-yield operation on a shared structure ("fd", "buffer",
        "snfs-state") opens.  ``wrote``: it mutates the structure at once
        (table operations report writes by :meth:`table_transition`)."""
        if self.sanitizer is None:
            return None
        region = self.sanitizer.begin(category, key, label)
        if wrote:
            self.sanitizer.note_write(category, key, what=label)
        return region

    def region_end(self, region: Any) -> None:
        if region is not None:
            self.sanitizer.end(region)

    def tag_file(self, key: str, read_bytes: int = 0, write_bytes: int = 0) -> None:
        """Hot-file accounting: which files carry the byte volume."""
        if self.obs is not None:
            self.obs.tag_file(key, read_bytes=read_bytes, write_bytes=write_bytes)

    # -- registry-only instruments (recovery, faults) ------------------------

    def count(self, name: str, **labels) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(**labels)

    def observe(self, name: str, value: float, **labels) -> None:
        if self.metrics is not None:
            self.metrics.histogram(name).observe(value, **labels)

    # -- trace-only instants and spans ------------------------------------------

    def packet(self, what: str, packet, **args) -> None:
        """``net.<what>``: "xmit", "recv", or "drop" with a ``reason``."""
        if self.tracer is not None:
            self.tracer.instant(
                "net." + what, cat="net", track="net",
                src=packet.src, dst=packet.dst, kind=packet.kind, **args
            )

    def cache(self, what: str, track: str, file_key: Hashable, **args) -> None:
        """``cache.<what>`` on cache ``track``; an untraced lookup pays no ``str()``."""
        if self.tracer is not None:
            self.tracer.instant(
                "cache." + what, cat="cache", track=track, file=str(file_key), **args
            )

    def mark(self, name: str, cat: str, track: str, **args) -> None:
        if self.tracer is not None:
            self.tracer.instant(name, cat=cat, track=track, **args)

    def span_begin(self, name: str, cat: str, track: str, **args) -> Any:
        """A CPU or disk hold, an SNFS callback or write-back; None if untraced."""
        if self.tracer is None:
            return None
        return self.tracer.begin(name, cat=cat, track=track, **args)

    def span_end(self, span: Any) -> None:
        if span is not None:
            self.tracer.end(span)
