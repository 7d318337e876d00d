"""Unit tests for the Tracer: spans, events, context propagation."""

import gc
import os
import weakref

import pytest

from repro.sim import Simulator
from repro.trace import Tracer


def test_tracing_is_off_by_default(no_observers):
    sim = Simulator()
    assert sim.tracer is None
    assert sim.metrics is None


def test_repro_trace_env_enables_both(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "1")
    sim = Simulator()
    assert sim.tracer is not None
    assert sim.metrics is not None


def test_enable_tracer_registers_instance():
    # with the capture that is active, and with nothing else
    def build():
        sim = Simulator()
        return sim, sim.enable_tracer()

    (sim, tracer), captured = Tracer.capture(build)
    assert tracer is sim.tracer
    assert captured == [tracer]


def test_tracer_enabled_outside_capture_dies_with_its_simulator():
    # regression: Tracer.__init__ used to append every tracer to a
    # class-level list only capture() drained, so a process tracing
    # outside capture (REPRO_TRACE=1 CI job, a pool worker) kept every
    # span of every simulator alive
    sim = Simulator()
    ref = weakref.ref(sim.enable_tracer())
    del sim
    gc.collect()
    assert ref() is None


def test_captures_see_exactly_their_own_tracers(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    before = Simulator().enable_tracer()  # outside any capture
    inner_seen = []

    def inner():
        return Simulator().tracer

    def outer():
        first = Simulator().tracer
        inner_seen.append(Tracer.capture(inner))
        return first, Simulator().tracer

    (first, last), mine = Tracer.capture(outer)
    nested, nested_tracers = inner_seen[0]
    assert mine == [first, last]
    assert nested_tracers == [nested]
    assert os.environ.get("REPRO_TRACE") is None  # restored after both
    _, later = Tracer.capture(inner)  # sequential: starts empty again
    assert len(later) == 1 and later[0] not in mine + [nested, before]


def test_begin_end_nesting_links_parents(runner):
    tracer = runner.sim.enable_tracer()

    def work():
        outer = tracer.begin("outer", track="h")
        yield runner.sim.timeout(1.0)
        inner = tracer.begin("inner", track="h")
        yield runner.sim.timeout(2.0)
        tracer.end(inner)
        tracer.end(outer)

    runner.run(work())
    outer, inner = tracer.spans
    assert inner.parent == outer.sid
    assert inner.trace == outer.trace
    assert outer.parent == 0
    assert outer.duration() == pytest.approx(3.0)
    assert inner.duration() == pytest.approx(2.0)


def test_end_restores_enclosing_context(runner):
    tracer = runner.sim.enable_tracer()

    def work():
        a = tracer.begin("a")
        b = tracer.begin("b")
        tracer.end(b)
        assert tracer.current_context() == (a.trace, a.sid)
        tracer.end(a)
        assert tracer.current_context() is None
        yield runner.sim.timeout(0)

    runner.run(work())


def test_spawned_child_inherits_context(runner):
    sim = runner.sim
    tracer = sim.enable_tracer()
    child_ctx = {}

    def child():
        child_ctx["ctx"] = tracer.current_context()
        span = tracer.begin("child-op")
        yield sim.timeout(1.0)
        tracer.end(span)

    def parent():
        span = tracer.begin("parent-op")
        proc = sim.spawn(child(), name="kid")
        yield proc
        tracer.end(span)

    runner.run(parent())
    parent_span = next(s for s in tracer.spans if s.name == "parent-op")
    child_span = next(s for s in tracer.spans if s.name == "child-op")
    assert child_ctx["ctx"] == (parent_span.trace, parent_span.sid)
    assert child_span.parent == parent_span.sid
    assert child_span.trace == parent_span.trace


def test_spawn_and_finish_instants_recorded(runner):
    sim = runner.sim
    tracer = sim.enable_tracer()

    def noop():
        yield sim.timeout(0)

    def work():
        yield sim.spawn(noop(), name="kid")

    runner.run(work())
    names = [e.name for e in tracer.events]
    assert "proc.spawn" in names
    assert "proc.finish" in names
    assert any(
        e.args["child"] == "kid" for e in tracer.find_events("proc.spawn")
    )


def test_resume_instants_only_when_enabled(runner):
    tracer = runner.sim.enable_tracer()
    assert not tracer.trace_resumes

    def work():
        yield runner.sim.timeout(1.0)

    runner.run(work())
    assert tracer.find_events("proc.resume") == []


def test_adopt_ships_context_across_processes(runner):
    sim = runner.sim
    tracer = sim.enable_tracer()

    def server(shipped):
        # the spawned process already inherited the caller's context;
        # adopt() re-establishes the *shipped* one (same here) and
        # returns what was in place
        prev = tracer.adopt(shipped)
        assert prev == tuple(shipped)
        span = tracer.begin("serve")
        yield sim.timeout(1.0)
        tracer.end(span)
        tracer.adopt(prev)

    def client():
        span = tracer.begin("call")
        shipped = Tracer.context_of(span)
        yield sim.spawn(server(shipped), name="srv")
        tracer.end(span)

    runner.run(client())
    call = next(s for s in tracer.spans if s.name == "call")
    serve = next(s for s in tracer.spans if s.name == "serve")
    assert serve.parent == call.sid
    assert serve.trace == call.trace


def test_ambient_context_outside_processes():
    sim = Simulator()
    tracer = sim.enable_tracer()
    assert sim.current_process is None
    span = tracer.begin("ambient")
    assert tracer.current_context() == (span.trace, span.sid)
    tracer.end(span)
    assert tracer.current_context() is None


def test_instant_attaches_to_active_span(runner):
    tracer = runner.sim.enable_tracer()

    def work():
        span = tracer.begin("op")
        event = tracer.instant("tick", cat="test", flavor="x")
        assert event.parent == span.sid
        assert event.args == {"flavor": "x"}
        tracer.end(span)
        orphan = tracer.instant("lonely")
        assert orphan.parent == 0
        yield runner.sim.timeout(0)

    runner.run(work())


def test_close_open_spans_stamps_now(runner):
    sim = runner.sim
    tracer = sim.enable_tracer()

    def work():
        tracer.begin("left-open")
        yield sim.timeout(5.0)

    runner.run(work())
    assert tracer.spans[0].t1 is None
    assert tracer.close_open_spans() == 1
    assert tracer.spans[0].t1 == sim.now
    assert tracer.close_open_spans() == 0


def test_ancestors_walks_to_root(runner):
    tracer = runner.sim.enable_tracer()

    def work():
        a = tracer.begin("a")
        b = tracer.begin("b")
        c = tracer.begin("c")
        event = tracer.instant("leaf")
        chain = [s.name for s in tracer.ancestors(event)]
        assert chain == ["c", "b", "a"]
        chain = [s.name for s in tracer.ancestors(c)]
        assert chain == ["b", "a"]
        tracer.end(c)
        tracer.end(b)
        tracer.end(a)
        yield runner.sim.timeout(0)

    runner.run(work())


def test_find_spans_and_events_filter(runner):
    tracer = runner.sim.enable_tracer()

    def work():
        s1 = tracer.begin("rpc.call:read", track="h1")
        tracer.end(s1)
        s2 = tracer.begin("rpc.call:write", track="h2")
        tracer.end(s2)
        tracer.instant("net.drop", track="net")
        yield runner.sim.timeout(0)

    runner.run(work())
    assert len(tracer.find_spans("rpc.call:")) == 2
    assert len(tracer.find_spans("rpc.call:", track="h1")) == 1
    assert len(tracer.find_events("net.")) == 1
    assert tracer.find_events("net.", track="elsewhere") == []


def test_separate_roots_get_separate_traces(runner):
    tracer = runner.sim.enable_tracer()

    def work():
        a = tracer.begin("first-root")
        tracer.end(a)
        b = tracer.begin("second-root")
        tracer.end(b)
        assert a.trace != b.trace
        yield runner.sim.timeout(0)

    runner.run(work())
