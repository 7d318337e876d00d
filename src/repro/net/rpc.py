"""Remote procedure call layer over the simulated network.

Models a Sun-RPC-over-UDP transport of the paper's era:

* at-least-once calls with timeout and retransmission (same xid);
* a server-side **duplicate request cache** so retransmitted
  non-idempotent requests are not re-executed (Juszczak's fix, which the
  paper cites);
* a bounded server **thread pool** — the SNFS deadlock rule ("if there
  are N threads, only N−1 may be doing callbacks") is enforced by the
  SNFS server on top of this pool;
* symmetric endpoints: any host can both issue calls and serve
  procedures, which SNFS needs for server→client callbacks.

Wire sizes are estimated automatically from the payload (bytes count
fully; scalars and structure contribute small fixed costs), so a 4 KB
``read`` reply is ~4 KB on the wire while an ``open`` call is ~200 B.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional, Tuple

from ..metrics import Tally
from ..sim import Event, Resource, Simulator
from .network import Interface, Network, Packet

__all__ = [
    "RpcConfig",
    "RpcEndpoint",
    "RpcError",
    "RpcTimeout",
    "RpcProcedureError",
    "estimate_size",
    "RPC_PORT",
]

RPC_PORT = 2049

_HEADER_BYTES = 160  # UDP + IP + RPC + auth overhead, roughly

class RpcError(Exception):
    """Base class for RPC-layer failures."""


class RpcTimeout(RpcError):
    """The call was retransmitted up to the limit with no reply."""


class RpcProcedureError(RpcError):
    """The remote procedure raised; carries the remote exception.

    Protocol-level errors (e.g. NFS ``ESTALE``) are modelled as
    exceptions raised by the handler, shipped back in the reply, and
    re-raised at the caller wrapped in the original exception type when
    possible.
    """


def _fixed(obj: Any) -> int:
    return 8


# plain loops below: a generator expression costs a frame per message


def _mapping(obj: Any) -> int:
    total = 0
    for k, v in obj.items():
        total += estimate_size(k) + estimate_size(v)
    return total


def _items(obj: Any) -> int:
    total = 0
    for item in obj:
        total += estimate_size(item)
    return total


def _record(names: Tuple[str, ...]) -> Callable[[Any], int]:
    def sizer(obj: Any) -> int:
        total = 0
        for name in names:
            total += estimate_size(getattr(obj, name))
        return total

    return sizer


#: class -> the function that sizes its instances.  Exact builtin types
#: are listed here; any other class is classified once, on first sight,
#: by :func:`_sizer_for`.
_SIZERS: Dict[type, Callable[[Any], int]] = {
    bytes: len, bytearray: len, memoryview: len, str: len,
    int: _fixed, bool: _fixed, float: _fixed,
    dict: _mapping,
    list: _items, tuple: _items, set: _items, frozenset: _items,
}


def _sizer_for(cls: type) -> Callable[[Any], int]:
    if issubclass(cls, (bytes, bytearray, memoryview, str)):
        sizer = len
    elif issubclass(cls, dict):
        sizer = _mapping
    elif issubclass(cls, (list, tuple, set, frozenset)):
        sizer = _items
    elif dataclasses.is_dataclass(cls):
        sizer = _record(tuple(f.name for f in dataclasses.fields(cls)))
    else:
        sizer = _fixed
    _SIZERS[cls] = sizer
    return sizer


def estimate_size(obj: Any) -> int:
    """Rough wire size of a payload object, in bytes.

    bytes/bytearray count in full; strings count their encoded length;
    containers and dataclasses (attribute records, handles) recurse;
    everything else (ints, flags, enums, classes) costs a fixed 8 bytes.
    A pure function of the payload: the per-class table only remembers
    which of those rules a class falls under.
    """
    if obj is None:
        return 0
    cls = type(obj)
    return (_SIZERS.get(cls) or _sizer_for(cls))(obj)


@dataclass
class RpcConfig:
    timeout: float = 1.0  # initial retransmission timeout, seconds
    backoff: float = 2.0  # timeout multiplier per retry
    max_retries: int = 5  # retransmissions before giving up
    server_threads: int = 8  # service thread pool size
    dup_cache_size: int = 512  # retained completed replies
    cpu_per_call: float = 0.0  # seconds of CPU per RPC on each side


@dataclass
class _Call:
    xid: int
    src: str
    proc: str
    args: tuple = ()
    is_reply: bool = False
    result: Any = None
    error: Optional[BaseException] = None
    #: trace context (trace id, parent span id) shipped with the request
    #: so the server-side handler joins the caller's causal tree; not
    #: counted in estimate_size (metadata, not payload)
    ctx: Optional[tuple] = None
    #: what probe.serve_end returned, for the caller's probe.reply;
    #: metadata like ctx, not counted in estimate_size
    srv_phases: Optional[tuple] = None


class _DupCache:
    """Duplicate-request cache: (src, xid) -> in-progress or done-reply."""

    _IN_PROGRESS = object()

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._done: "OrderedDict[Tuple[str, int], _Call]" = OrderedDict()
        self._in_progress: set = set()

    def begin(self, key: Tuple[str, int]) -> Optional[_Call]:
        """Register a request.  Returns a cached reply to resend, or
        None if the request should execute.  Raises _Busy if already
        executing (caller drops the duplicate)."""
        if key in self._in_progress:
            raise _Busy()
        cached = self._done.get(key)
        if cached is not None:
            return cached
        self._in_progress.add(key)
        return None

    def finish(self, key: Tuple[str, int], reply: _Call) -> None:
        self._in_progress.discard(key)
        self._done[key] = reply
        while len(self._done) > self.capacity:
            self._done.popitem(last=False)

    def clear(self) -> None:
        self._done.clear()
        self._in_progress.clear()


class _Busy(Exception):
    pass


#: sentinel value a retransmit timer delivers into the reply event; the
#: call loop distinguishes it from a real _Call reply by identity
_TIMED_OUT = object()


Handler = Callable[..., Generator]


class RpcEndpoint:
    """One host's RPC stack: client stubs plus a procedure server.

    Handlers are registered with :meth:`register`; each handler is a
    simulation coroutine ``handler(src_addr, *args)`` whose return value
    becomes the reply.  Exceptions raised by handlers are shipped back
    and re-raised at the caller.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str,
        config: Optional[RpcConfig] = None,
        cpu=None,
        port: int = RPC_PORT,
        keep_call_times: bool = False,
    ):
        self.sim = sim
        self.network = network
        self.address = address
        self.config = config or RpcConfig()
        self.cpu = cpu  # object with consume(seconds) coroutine, or None
        self.port = port
        self.iface: Interface = network.attach(address)
        self.iface.bind(port, self._on_packet)
        self._handlers: Dict[str, Handler] = {}
        self._pending: Dict[int, Event] = {}
        self._xids = itertools.count(1)
        self._dup_cache = _DupCache(self.config.dup_cache_size)
        self.threads = Resource(
            sim, capacity=self.config.server_threads, name="rpcthreads:%s" % address
        )
        self.threads.obs_kind = "threads"
        # client_stats: calls issued from here; server_stats: calls served here
        self.client_stats = Tally()
        self.server_stats = Tally()
        #: (time, proc) per request executed here, in order (figures 5-1/5-2)
        self.call_log: Optional[list] = [] if keep_call_times else None
        # observers called once per *executed* (not duplicate-cached)
        # request, after its handler completes:
        #   listener(proc, src, args, result, error, now)
        # The consistency oracle records server-acknowledged writes here;
        # the SNFS keepalive sweep tracks when each client was last heard.
        self.serve_listeners: list = []
        #: bumped by crash(): lets a _serve coroutine that was mid-handler
        #: when the power failed recognize that its world is gone
        self.boot_epoch = 0

    # -- server side -----------------------------------------------------

    def register(self, proc: str, handler: Handler) -> None:
        if proc in self._handlers:
            raise RpcError("procedure %r already registered on %s" % (proc, self.address))
        self._handlers[proc] = handler

    def register_service(self, service: object, procs: Dict[str, str]) -> None:
        """Register ``procs`` mapping RPC name -> method name on service."""
        for proc, method in procs.items():
            self.register(proc, getattr(service, method))

    def _on_packet(self, packet: Packet) -> None:
        """The port's receiver, run inside the delivery (which a crashed
        host's interface never gets to): wake a caller or start a service."""
        msg: _Call = packet.payload
        if msg.is_reply:
            waiter = self._pending.pop(msg.xid, None)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(msg)
        else:
            self.sim.spawn(
                self._serve(msg, self.boot_epoch),
                name="serve:%s:%s" % (self.address, msg.proc),
            )

    def _serve(self, msg: _Call, epoch: int):
        if epoch != self.boot_epoch:
            return  # crashed in the instant the request arrived
        probe = self.sim.probe
        key = (msg.src, msg.xid)
        try:
            cached = self._dup_cache.begin(key)
        except _Busy:
            if probe is not None:
                probe.dup_hit(self.address, msg.proc, msg.src, "busy", msg.ctx)
            return  # retransmission of an executing request: drop it
        if cached is not None:
            if probe is not None:
                probe.dup_hit(self.address, msg.proc, msg.src, "done", msg.ctx)
            yield from self._send_reply(msg.src, cached)
            return

        token = None
        if probe is not None:
            token = probe.serve_begin(self.address, msg.proc, msg.src, msg.ctx)
        handler = self._handlers.get(msg.proc)
        reply = _Call(xid=msg.xid, src=self.address, proc=msg.proc, is_reply=True)
        try:
            if handler is None:
                reply.error = RpcProcedureError("no such procedure: %s" % msg.proc)
            else:
                if not self.threads.try_acquire():
                    yield self.threads.acquire()
                try:
                    if self.cpu is not None and self.config.cpu_per_call > 0:
                        yield from self.cpu.consume(self.config.cpu_per_call)
                    self.server_stats[msg.proc] += 1
                    if self.call_log is not None:
                        self.call_log.append((self.sim.now, msg.proc))
                    if token is not None:
                        probe.serve_execute(msg.proc, msg.src)
                    reply.result = yield from handler(msg.src, *msg.args)
                except GeneratorExit:
                    raise  # service process torn down, not a handler error
                except BaseException as exc:  # noqa: BLE001 - shipped to caller
                    reply.error = exc
                finally:
                    self.threads.release()
                if epoch != self.boot_epoch:
                    # the endpoint crashed (and maybe rebooted) while
                    # the handler ran: this reply reflects pre-crash
                    # state.  crash() already emptied the duplicate
                    # cache; caching or sending this reply would
                    # repopulate the *post-reboot* cache with it, and a
                    # retransmission would then be answered instead of
                    # re-executed — silently breaking at-least-once
                    # semantics.  The request was never acknowledged,
                    # so observers must not see it either.
                    return
                for listener in self.serve_listeners:
                    listener(
                        msg.proc, msg.src, msg.args, reply.result, reply.error, self.sim.now
                    )
            if token is not None:
                reply.srv_phases = probe.serve_end(token)
                probe.dup_record(self.address, key, self._dup_cache._done.get(key), reply)
            self._dup_cache.finish(key, reply)
            yield from self._send_reply(msg.src, reply)
        finally:
            if token is not None:
                probe.serve_exit(token, reply.error)

    def _send_reply(self, dst: str, reply: _Call):
        size = _HEADER_BYTES + estimate_size(reply.result)
        yield from self.iface.send(dst, self.port, reply, size)

    # -- client side -----------------------------------------------------

    def call(
        self,
        dst: str,
        proc: str,
        *args: Any,
        timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        hard: bool = False,
    ):
        """Coroutine: invoke ``proc`` on ``dst``, with retransmission.

        Returns the remote handler's return value, re-raises its
        exception, or raises :class:`RpcTimeout` after the retry budget
        is exhausted.  ``hard=True`` gives hard-mount semantics: retry
        forever (backoff capped at 30 s) — an NFS client never gives up
        on its server.
        """
        probe = self.sim.probe
        token = ctx = None
        if probe is not None:
            token, ctx = probe.call_begin(self.address, dst, proc)
        xid = next(self._xids)
        msg = _Call(xid=xid, src=self.address, proc=proc, args=args, ctx=ctx)
        size = _HEADER_BYTES + estimate_size(args)
        wait = self.config.timeout if timeout is None else timeout
        self.client_stats[proc] += 1

        retries = self.config.max_retries if max_retries is None else max_retries
        attempts = 1 << 62 if hard else retries + 1
        attempt = -1
        try:
            while (attempt := attempt + 1) < attempts:
                if self.cpu is not None and self.config.cpu_per_call > 0:
                    yield from self.cpu.consume(self.config.cpu_per_call)
                # One event serves both outcomes per attempt: _on_packet
                # succeeds it with the reply _Call; a bare cancellable timer
                # (no Timeout event, no AnyOf condition) succeeds it with the
                # _TIMED_OUT sentinel.  Whichever fires first wins; the
                # loser is cancelled or sees the event already triggered.
                reply_ev = Event(self.sim, "rpc-reply")
                self._pending[xid] = reply_ev
                yield from self.iface.send(dst, self.port, msg, size)
                timer = self.sim.after(wait, self._expire, reply_ev)
                reply = yield reply_ev
                if reply is not _TIMED_OUT:
                    timer.cancel()
                    if token is not None:
                        probe.reply(reply.srv_phases)
                    if self.cpu is not None and self.config.cpu_per_call > 0:
                        yield from self.cpu.consume(self.config.cpu_per_call)
                    if reply.error is not None:
                        raise reply.error
                    if token is not None:
                        probe.call_end(token)
                    return reply.result
                # timed out: forget this attempt's waiter, back off, resend
                self._pending.pop(xid, None)  # lint: ok=ATOM002 — xids are unique per attempt; each in-flight call owns its own _pending slot
                if token is not None:
                    probe.spent("retrans.wait", wait)
                wait = min(wait * self.config.backoff, 30.0)
                if attempt + 1 < attempts:
                    self.client_stats["%s.retransmit" % proc] += 1  # lint: ok=ATOM001 — a tally bump reads and writes in one step; nothing read before the yield is written back
                    if token is not None:
                        probe.retransmit(self.address, proc, attempt + 1)
            raise RpcTimeout(
                "%s -> %s %s: no reply after %d attempts"
                % (self.address, dst, proc, attempts)
            )
        except BaseException as exc:
            if token is not None:
                probe.call_end(token, exc)
            raise

    @staticmethod
    def _expire(reply_ev: Event) -> None:
        if not reply_ev.triggered:
            reply_ev.succeed(_TIMED_OUT)

    # -- crash modelling ---------------------------------------------------

    def crash(self) -> None:
        """Lose all volatile RPC state (host crash)."""
        self.boot_epoch += 1
        self.iface.up = False
        self.iface.flush_ports()
        for ev in list(self._pending.values()):
            if not ev.triggered:
                ev.defuse()
        self._pending.clear()
        self._dup_cache.clear()

    def reboot(self) -> None:
        self.iface.up = True
