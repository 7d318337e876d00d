"""Exporters for :class:`repro.trace.Tracer` data.

Three formats, all deterministic (stable ordering, ``sort_keys`` JSON,
no wall-clock or environment leakage):

* :func:`chrome_trace` / :func:`chrome_trace_json` — Chrome
  ``trace_event`` JSON, loadable in Perfetto or ``chrome://tracing``.
  Each *track* (host, "net", "sim") becomes a process row and each
  simulated process a thread row; RPC call→serve edges that cross
  tracks are drawn as flow arrows.
* :func:`flamegraph_report` / :func:`collapsed_stacks` — span
  aggregation by call stack (Brendan Gregg's collapsed format plus a
  human-readable self/total time table).
* :func:`run_report` — a machine-readable JSON summary of the run:
  span/event totals by name, per-track time, and (optionally) the
  contents of a :class:`repro.metrics.MetricsRegistry`.

:func:`trace_digest` hashes the canonical Chrome JSON; because traces
are byte-identical across same-seed runs, the digest doubles as a
determinism oracle (see docs/ANALYSIS.md).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional

from .tracer import Tracer

__all__ = [
    "chrome_trace",
    "chrome_trace_json",
    "write_chrome_trace",
    "validate_chrome_trace",
    "collapsed_stacks",
    "flamegraph_report",
    "run_report",
    "trace_digest",
]


def _usec(t: float) -> float:
    """Simulated seconds -> microseconds, rounded for stable text form."""
    return round(t * 1e6, 3)


def _track_layout(tracer: Tracer):
    """Deterministic pid/tid assignment: sorted tracks, sorted threads."""
    tracks: Dict[str, set] = {}
    for span in tracer.spans:
        tracks.setdefault(span.track or "sim", set()).add(span.thread or "-")
    for event in tracer.events:
        tracks.setdefault(event.track or "sim", set()).add(event.thread or "-")
    pids = {track: i + 1 for i, track in enumerate(sorted(tracks))}
    tids = {
        (track, thread): j + 1
        for track, threads in sorted(tracks.items())
        for j, thread in enumerate(sorted(threads))
    }
    return pids, tids


def chrome_trace(tracer: Tracer, close_open: bool = True) -> Dict[str, Any]:
    """Render a tracer as a Chrome ``trace_event`` document (a dict)."""
    if close_open:
        tracer.close_open_spans()
    pids, tids = _track_layout(tracer)
    events: List[Dict[str, Any]] = []

    for track, pid in sorted(pids.items()):
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "ts": 0, "args": {"name": track},
        })
    for (track, thread), tid in sorted(tids.items()):
        events.append({
            "ph": "M", "name": "thread_name", "pid": pids[track], "tid": tid,
            "ts": 0, "args": {"name": thread},
        })

    index = tracer.span_index()
    body: List[Dict[str, Any]] = []
    for span in tracer.spans:
        track = span.track or "sim"
        pid, tid = pids[track], tids[(track, span.thread or "-")]
        args = dict(span.args) if span.args else {}
        args.update({"sid": span.sid, "parent": span.parent, "trace": span.trace})
        body.append({
            "ph": "X", "name": span.name, "cat": span.cat or "span",
            "ts": _usec(span.t0), "dur": _usec(span.duration(tracer.sim.now)),
            "pid": pid, "tid": tid, "args": args,
        })
        parent = index.get(span.parent)
        if parent is not None and (parent.track or "sim") != track:
            # cross-track causal edge (e.g. rpc.call -> rpc.serve): draw
            # a flow arrow from the parent span to this span's start
            ptrack = parent.track or "sim"
            flow = {"ph": "s", "id": span.sid, "name": "causal",
                    "cat": "flow", "ts": _usec(parent.t0),
                    "pid": pids[ptrack], "tid": tids[(ptrack, parent.thread or "-")]}
            body.append(flow)
            body.append({"ph": "f", "id": span.sid, "name": "causal",
                         "cat": "flow", "bp": "e", "ts": _usec(span.t0),
                         "pid": pid, "tid": tid})
    for event in tracer.events:
        track = event.track or "sim"
        args = dict(event.args) if event.args else {}
        args.update({"parent": event.parent, "trace": event.trace})
        body.append({
            "ph": "i", "s": "t", "name": event.name, "cat": event.cat or "event",
            "ts": _usec(event.t), "pid": pids[track],
            "tid": tids[(track, event.thread or "-")], "args": args,
        })
    body.sort(key=lambda e: (e["ts"], e["pid"], e["tid"], e["ph"], e["name"]))
    events.extend(body)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.trace", "clock": "simulated"},
    }


def chrome_trace_json(tracer: Tracer, close_open: bool = True) -> str:
    """Canonical (byte-stable) JSON serialization of the Chrome trace."""
    doc = chrome_trace(tracer, close_open=close_open)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def write_chrome_trace(tracer: Tracer, path: str) -> str:
    text = chrome_trace_json(tracer)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def trace_digest(tracer: Tracer) -> str:
    """sha256 of the canonical Chrome JSON — the determinism oracle."""
    return hashlib.sha256(chrome_trace_json(tracer).encode("utf-8")).hexdigest()


_PHASES = {"X", "i", "M", "s", "f", "B", "E", "b", "e", "n", "C"}


def validate_chrome_trace(doc: Any) -> List[str]:
    """Schema-check a Chrome trace document; returns a list of problems
    (empty when valid).  Covers the subset of the trace_event format we
    emit: every event needs ph/name/ts/pid/tid, "X" needs a numeric
    non-negative dur, "i" needs a scope, flows need an id."""
    problems: List[str] = []
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return ["document is not an object with a traceEvents array"]
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents is not an array"]
    for i, ev in enumerate(events):
        where = "traceEvents[%d]" % i
        if not isinstance(ev, dict):
            problems.append("%s: not an object" % where)
            continue
        ph = ev.get("ph")
        if ph not in _PHASES:
            problems.append("%s: bad ph %r" % (where, ph))
            continue
        for field in ("name", "ts", "pid", "tid"):
            if field not in ev:
                problems.append("%s: missing %r" % (where, field))
        if not isinstance(ev.get("ts"), (int, float)) or ev.get("ts", 0) < 0:
            problems.append("%s: ts must be a non-negative number" % where)
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append("%s: X event needs non-negative dur" % where)
        if ph == "i" and ev.get("s") not in ("t", "p", "g"):
            problems.append("%s: i event needs scope s in t/p/g" % where)
        if ph in ("s", "f") and "id" not in ev:
            problems.append("%s: flow event needs an id" % where)
    return problems


# -- flamegraph ------------------------------------------------------------


def collapsed_stacks(tracer: Tracer, scale: float = 1e6) -> Dict[str, int]:
    """Aggregate span *self time* by ancestry stack.

    Returns ``{"root;child;leaf": microseconds}`` — Brendan Gregg's
    collapsed format (feed to ``flamegraph.pl``, or read directly).
    Self time is a span's duration minus the duration of its direct
    children, clamped at zero (children may overlap their parent tail).
    """
    end = tracer.sim.now
    index = tracer.span_index()
    child_time: Dict[int, float] = {}
    for span in tracer.spans:
        if span.parent:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration(end)
    stacks: Dict[str, int] = {}
    for span in tracer.spans:
        self_time = max(0.0, span.duration(end) - child_time.get(span.sid, 0.0))
        names = [s.name for s in tracer.ancestors(span, index)]
        names.reverse()
        names.append(span.name)
        key = ";".join(names)
        stacks[key] = stacks.get(key, 0) + int(round(self_time * scale))
    return stacks


def flamegraph_report(tracer: Tracer, top: int = 40) -> str:
    """Human-readable span aggregation: per-stack self time, widest first."""
    stacks = collapsed_stacks(tracer)
    total = sum(stacks.values()) or 1
    lines = ["flamegraph (self time, simulated us)", "=" * 36]
    ranked = sorted(stacks.items(), key=lambda kv: (-kv[1], kv[0]))
    for key, usec in ranked[:top]:
        lines.append("%10d us  %5.1f%%  %s" % (usec, 100.0 * usec / total, key))
    if len(ranked) > top:
        rest = sum(v for _, v in ranked[top:])
        lines.append("%10d us  %5.1f%%  (%d more stacks)"
                     % (rest, 100.0 * rest / total, len(ranked) - top))
    lines.append("%10d us  total" % total)
    return "\n".join(lines) + "\n"


# -- run report ------------------------------------------------------------


def run_report(
    tracer: Tracer,
    metrics=None,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Machine-readable JSON-able summary of a traced run."""
    end = tracer.sim.now
    span_agg: Dict[str, Dict[str, float]] = {}
    for span in tracer.spans:
        agg = span_agg.setdefault(span.name, {"count": 0, "total_s": 0.0})
        agg["count"] += 1
        agg["total_s"] += span.duration(end)
    for agg in span_agg.values():
        agg["total_s"] = round(agg["total_s"], 9)
    event_agg: Dict[str, int] = {}
    for event in tracer.events:
        event_agg[event.name] = event_agg.get(event.name, 0) + 1
    track_time: Dict[str, float] = {}
    for span in tracer.spans:
        track = span.track or "sim"
        track_time[track] = round(track_time.get(track, 0.0) + span.duration(end), 9)
    report: Dict[str, Any] = {
        "sim_end_s": end,
        "n_spans": len(tracer.spans),
        "n_events": len(tracer.events),
        "spans": span_agg,
        "events": event_agg,
        "track_busy_s": track_time,
        "trace_digest": trace_digest(tracer),
    }
    if metrics is not None:
        report["metrics"] = metrics.as_dict()
    if meta:
        report["meta"] = meta
    return report
