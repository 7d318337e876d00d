"""Tests for the Chrome-trace / flamegraph / run-report exporters."""

import json

import pytest

from repro.document import write_json
from repro.sim import Simulator
from repro.trace import (
    Tracer,
    chrome_trace,
    chrome_trace_json,
    collapsed_stacks,
    flamegraph_report,
    run_report,
    trace_digest,
    validate_chrome_trace,
    write_chrome_trace,
)


def _sample_tracer(runner):
    """A tiny two-track trace with a cross-track parent edge."""
    sim = runner.sim
    tracer = sim.enable_tracer()

    def serve(shipped):
        tracer.adopt(shipped)
        span = tracer.begin("rpc.serve:read", cat="rpc", track="server")
        yield sim.timeout(2.0)
        tracer.end(span)
        tracer.adopt(None)

    def client():
        span = tracer.begin("rpc.call:read", cat="rpc", track="client")
        tracer.instant("net.xmit", cat="net", track="net", size=128)
        yield sim.spawn(serve(Tracer.context_of(span)), name="srv")
        tracer.end(span)

    runner.run(client())
    return tracer


def test_chrome_trace_structure(runner):
    tracer = _sample_tracer(runner)
    doc = chrome_trace(tracer)
    events = doc["traceEvents"]
    phases = [e["ph"] for e in events]
    assert "M" in phases and "X" in phases and "i" in phases
    # one process row per track, named
    meta = [e for e in events if e["ph"] == "M" and e["name"] == "process_name"]
    # "sim" holds the proc.spawn/finish instants of the driver processes
    assert sorted(m["args"]["name"] for m in meta) == ["client", "net", "server", "sim"]
    # spans carry causal ids in args
    xs = {e["name"]: e for e in events if e["ph"] == "X"}
    call, serve = xs["rpc.call:read"], xs["rpc.serve:read"]
    assert serve["args"]["parent"] == call["args"]["sid"]
    assert call["pid"] != serve["pid"]
    assert serve["dur"] == pytest.approx(2e6)


def test_cross_track_edges_become_flow_arrows(runner):
    tracer = _sample_tracer(runner)
    events = chrome_trace(tracer)["traceEvents"]
    starts = [e for e in events if e["ph"] == "s"]
    finishes = [e for e in events if e["ph"] == "f"]
    assert len(starts) == len(finishes) == 1
    assert starts[0]["id"] == finishes[0]["id"]


def test_validate_accepts_our_output(runner):
    tracer = _sample_tracer(runner)
    doc = json.loads(chrome_trace_json(tracer))
    assert validate_chrome_trace(doc) == []


def test_validate_rejects_malformed_documents():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({"nope": 1}) != []
    bad = {"traceEvents": [
        {"ph": "Z", "name": "x", "ts": 0, "pid": 1, "tid": 1},
        {"ph": "X", "name": "x", "ts": -1, "pid": 1, "tid": 1},
        {"ph": "X", "name": "x", "ts": 0, "pid": 1, "tid": 1},   # no dur
        {"ph": "i", "name": "x", "ts": 0, "pid": 1, "tid": 1},   # no scope
        {"ph": "s", "name": "x", "ts": 0, "pid": 1, "tid": 1},   # no id
        "not-an-object",
    ]}
    problems = validate_chrome_trace(bad)
    # the ts=-1 X event is doubly wrong (negative ts AND missing dur)
    assert len(problems) == 7


def test_chrome_trace_json_is_canonical(runner):
    tracer = _sample_tracer(runner)
    a = chrome_trace_json(tracer)
    b = chrome_trace_json(tracer)
    assert a == b
    assert trace_digest(tracer) == trace_digest(tracer)
    # canonical form: no whitespace, sorted keys
    assert ": " not in a


def test_write_chrome_trace_roundtrips(runner, tmp_path):
    tracer = _sample_tracer(runner)
    path = write_chrome_trace(tracer, str(tmp_path / "t.json"))
    with open(path) as fh:
        doc = json.load(fh)
    assert validate_chrome_trace(doc) == []


def test_collapsed_stacks_self_time(runner):
    sim = runner.sim
    tracer = sim.enable_tracer()

    def work():
        outer = tracer.begin("outer")
        yield sim.timeout(1.0)
        inner = tracer.begin("inner")
        yield sim.timeout(3.0)
        tracer.end(inner)
        yield sim.timeout(1.0)
        tracer.end(outer)

    runner.run(work())
    stacks = collapsed_stacks(tracer)
    # outer: 5s total - 3s child = 2s self; inner: 3s self
    assert stacks["outer"] == pytest.approx(2e6)
    assert stacks["outer;inner"] == pytest.approx(3e6)


def test_flamegraph_report_readable(runner):
    tracer = _sample_tracer(runner)
    text = flamegraph_report(tracer)
    assert "flamegraph" in text
    assert "rpc.call:read" in text
    assert text.endswith("total\n")


def test_run_report_contents(runner):
    tracer = _sample_tracer(runner)
    metrics = runner.sim.enable_metrics()
    metrics.counter("rpc.retrans").inc(proc="read")
    report = run_report(tracer, metrics=metrics, meta={"seed": 7})
    assert report["n_spans"] == 2
    assert report["spans"]["rpc.serve:read"]["count"] == 1
    assert report["events"]["net.xmit"] == 1
    assert set(report["track_busy_s"]) == {"client", "server"}
    assert report["meta"] == {"seed": 7}
    assert report["metrics"]["rpc.retrans"]["kind"] == "counter"
    assert len(report["trace_digest"]) == 64


def test_write_run_report_is_json(runner, tmp_path):
    tracer = _sample_tracer(runner)
    path = write_json(run_report(tracer), str(tmp_path / "r.json"))
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["n_spans"] == 2


def test_empty_tracer_exports_cleanly():
    sim = Simulator()
    tracer = sim.enable_tracer()
    doc = chrome_trace(tracer)
    assert validate_chrome_trace(doc) == []
    assert collapsed_stacks(tracer) == {}
    assert run_report(tracer)["n_spans"] == 0
