"""Latency attribution: decompose per-operation latency into phases.

The paper's quantitative argument is resource attribution (Table 5-5
explains protocol differences via server CPU per op), so the obs layer
answers "where did this operation's time go?" for every remote-FS call:

``client_cpu``
    CPU consumed (and queued for) on the calling host inside the call.
``net``
    Network transit, both directions — computed as the *residual*
    ``e2e − client_cpu − retrans_wait − server_wall``, so time that no
    other phase claims (serialization, propagation, fault-injected
    latency) lands here by construction.
``retrans_wait``
    Time spent waiting on retransmission timers that fired (the wasted
    window between sending an attempt and giving up on it).
``server_queue``
    Queue-wait on the server: RPC thread-pool admission plus CPU queue.
``server_cpu``
    CPU service time on the server while handling the request.
``disk``
    Disk queue-wait plus mechanical service time under the handler.
``server_other``
    Server wall time no server phase claims (blocking on locks,
    callbacks to other clients, cache internals).

Because ``net`` and ``server_other`` are residuals, the seven phases sum
**exactly** to the measured end-to-end latency — the report's phase
budget is an identity, not an approximation.

Mechanically: each in-flight operation is a :class:`_Frame` pushed on
the current :class:`~repro.sim.process.Process`'s ``obs_frames`` stack.
Instrumented layers contribute ``(kind, seconds)`` pairs to the top
frame; queue waits are stamped at ``Resource.acquire`` time (the waiter
frame is captured *then*, because the grant later runs in the releasing
process's context).  The server ships its closed frame's phase tuple
back piggybacked on the RPC reply, so the client can fold server time
out of its residual.  No new simulation events, timeouts, or processes
are created: with obs enabled, schedules — and therefore golden trace
digests — are byte-identical to obs-off runs.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from .digest import QuantileDigest

__all__ = ["ObsCollector", "PHASES"]

#: phase names, in report order
PHASES = (
    "client_cpu",
    "net",
    "retrans_wait",
    "server_queue",
    "server_cpu",
    "disk",
    "server_other",
)


class _Frame:
    """One in-flight operation's accumulator (client or server side)."""

    __slots__ = ("side", "t0", "t1", "acc", "srv_phases")

    def __init__(self, side: str, t0: float):
        self.side = side
        self.t0 = t0
        self.t1: Optional[float] = None
        #: raw contribution kinds: "cpu.queue", "cpu.service",
        #: "disk.queue", "disk.service", "threads.queue", "retrans.wait"
        self.acc: Dict[str, float] = {}
        #: (queue, cpu, disk, other, wall) shipped back by the server
        self.srv_phases: Optional[Tuple[float, ...]] = None

    def add(self, kind: str, dt: float) -> None:
        self.acc[kind] = self.acc.get(kind, 0.0) + dt


class ObsCollector:
    """Accumulates phase attribution; attach via ``sim.enable_obs()``.

    All accumulation is pure floats and integer counts keyed by sorted
    strings, so :func:`repro.obs.report.obs_document` exports are
    byte-identical across same-seed runs.
    """

    def __init__(self, sim):
        self.sim = sim
        #: per-RPC-proc records: count, per-phase totals, e2e digest
        self.ops: Dict[str, Dict[str, Any]] = {}
        #: calls that raised at the client (timeout, remote error)
        self.failed: Dict[str, int] = {}
        #: global queue-wait accounting per resource kind (cpu/disk/threads)
        self.waits: Dict[str, Dict[str, float]] = {}
        #: global service-time totals per contribution kind
        self.totals: Dict[str, float] = {}
        #: hot-file accounting, keyed "server:fsid:inum"
        self.hot_files: Dict[str, Dict[str, int]] = {}
        #: executed (non-duplicate) requests per calling host
        self.hot_clients: Dict[str, int] = {}
        #: per-server attribution rollup, keyed by server address
        self.servers: Dict[str, Dict[str, float]] = {}
        #: open queue-wait stamps: id(event) -> (event, frame, kind, t0)
        self._stamps: Dict[int, tuple] = {}

    # -- frames -------------------------------------------------------------

    def frame_begin(self, side: str) -> _Frame:
        frame = _Frame(side, self.sim.now)
        proc = self.sim.current_process
        if proc is not None:
            stack = proc.obs_frames
            if stack is None:
                stack = proc.obs_frames = []
            stack.append(frame)
        return frame

    def frame_end(self, frame: _Frame) -> _Frame:
        frame.t1 = self.sim.now
        proc = self.sim.current_process
        if proc is not None and proc.obs_frames:
            try:
                proc.obs_frames.remove(frame)
            except ValueError:
                pass
        return frame

    def frame_abort(self, frame: _Frame) -> None:
        """Discard a frame without recording (crashed epoch, failed call)."""
        self.frame_end(frame)

    def add(self, kind: str, dt: float) -> None:
        """Contribute ``dt`` seconds of ``kind`` to the innermost frame."""
        self.totals[kind] = self.totals.get(kind, 0.0) + dt
        proc = self.sim.current_process
        if proc is not None:
            stack = proc.obs_frames
            if stack:
                stack[-1].add(kind, dt)

    def attach_server_phases(self, phases: Tuple[float, ...]) -> None:
        """Record the server's piggybacked phase tuple on the open call."""
        proc = self.sim.current_process
        if proc is not None:
            stack = proc.obs_frames
            if stack:
                stack[-1].srv_phases = phases

    # -- queue-wait stamping (called from Resource) -------------------------

    def wait_begin(self, resource, ev) -> None:
        kind = resource.obs_kind
        if kind is None:
            return
        proc = self.sim.current_process
        frame = None
        if proc is not None and proc.obs_frames:
            frame = proc.obs_frames[-1]
        # keep the event itself so id() stays unique while stamped
        self._stamps[id(ev)] = (ev, frame, kind, self.sim.now)

    def wait_end(self, resource, ev) -> None:
        entry = self._stamps.pop(id(ev), None)
        if entry is None:
            return
        _, frame, kind, t0 = entry
        dt = self.sim.now - t0
        cell = self.waits.get(kind)
        if cell is None:
            cell = self.waits[kind] = {"waits": 0, "wait_s": 0.0}
        cell["waits"] += 1
        cell["wait_s"] += dt
        if frame is not None:
            frame.add(kind + ".queue", dt)

    def wait_abandoned(self, ev) -> None:
        """The waiter gave up (interrupted, timed out): no grant, no count."""
        self._stamps.pop(id(ev), None)

    # -- server-side hooks --------------------------------------------------

    def note_request(self, proc_name: str, src: str) -> None:
        """One *executed* (non-duplicate) request from ``src``."""
        self.hot_clients[src] = self.hot_clients.get(src, 0) + 1

    def tag_file(self, key: str, read_bytes: int = 0, write_bytes: int = 0) -> None:
        cell = self.hot_files.get(key)
        if cell is None:
            cell = self.hot_files[key] = {
                "reads": 0, "writes": 0, "bytes_read": 0, "bytes_written": 0,
            }
        if read_bytes or not write_bytes:
            cell["reads"] += 1
            cell["bytes_read"] += read_bytes
        if write_bytes:
            cell["writes"] += 1
            cell["bytes_written"] += write_bytes

    def close_server_frame(self, frame: _Frame) -> Tuple[float, ...]:
        """Close a server frame; returns the (queue, cpu, disk, other,
        wall) tuple the endpoint piggybacks on the reply."""
        self.frame_end(frame)
        acc = frame.acc
        wall = frame.t1 - frame.t0
        queue = acc.get("threads.queue", 0.0) + acc.get("cpu.queue", 0.0)
        cpu = acc.get("cpu.service", 0.0)
        disk = acc.get("disk.queue", 0.0) + acc.get("disk.service", 0.0)
        other = wall - queue - cpu - disk
        return (queue, cpu, disk, other, wall)

    # -- client-side recording ----------------------------------------------

    def record_client_op(
        self, proc_name: str, frame: _Frame, server: Optional[str] = None
    ) -> None:
        """Close a client call frame and fold it into the per-op table.

        ``server`` is the destination address; sharded namespaces spread
        calls over several servers, and the per-server rollup shows which
        machine carried the time."""
        self.frame_end(frame)
        acc = frame.acc
        e2e = frame.t1 - frame.t0
        client_cpu = acc.get("cpu.queue", 0.0) + acc.get("cpu.service", 0.0)
        retrans = acc.get("retrans.wait", 0.0)
        srv = frame.srv_phases or (0.0, 0.0, 0.0, 0.0, 0.0)
        srv_queue, srv_cpu, srv_disk, srv_other, srv_wall = srv
        # the residual: whatever no instrumented phase claims is transit
        net = e2e - client_cpu - retrans - srv_wall
        if net < 0.0 and retrans > 0.0:
            # a deeply negative residual means the retransmit-wait
            # window overlapped server execution (the client timed out
            # while the server was still working; the retransmission
            # hit the duplicate cache).  That overlap is server time,
            # not wasted waiting — move it out of retrans_wait so the
            # phase sum stays an exact identity without double-counting
            give_back = min(retrans, -net)
            retrans -= give_back
            net += give_back
        op = self.ops.get(proc_name)
        if op is None:
            op = self.ops[proc_name] = {
                "count": 0,
                "e2e_s": 0.0,
                "phases": dict.fromkeys(PHASES, 0.0),
                "digest": QuantileDigest(),
            }
        op["count"] += 1
        op["e2e_s"] += e2e
        phases = op["phases"]
        phases["client_cpu"] += client_cpu
        phases["net"] += net
        phases["retrans_wait"] += retrans
        phases["server_queue"] += srv_queue
        phases["server_cpu"] += srv_cpu
        phases["disk"] += srv_disk
        phases["server_other"] += srv_other
        op["digest"].add(e2e)
        if server is not None:
            cell = self.servers.get(server)
            if cell is None:
                cell = self.servers[server] = {
                    "count": 0,
                    "e2e_s": 0.0,
                    "server_queue": 0.0,
                    "server_cpu": 0.0,
                    "disk": 0.0,
                    "server_wall": 0.0,
                }
            cell["count"] += 1
            cell["e2e_s"] += e2e
            cell["server_queue"] += srv_queue
            cell["server_cpu"] += srv_cpu
            cell["disk"] += srv_disk
            cell["server_wall"] += srv_wall

    def record_client_failure(self, proc_name: str, frame: _Frame) -> None:
        self.frame_abort(frame)
        self.failed[proc_name] = self.failed.get(proc_name, 0) + 1

    def __repr__(self) -> str:
        n = sum(op["count"] for op in self.ops.values())
        return "<ObsCollector %d ops over %d procs>" % (n, len(self.ops))
