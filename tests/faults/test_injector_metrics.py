"""The injector's observability routing: every fault event lands in the
metrics registry as a labeled ``faults.events`` counter, and — opt-in —
on the trace timeline as a ``fault.*`` instant.

Trace instants are opt-in (``FaultInjector(trace=True)``) because the
pinned golden traces of historical faulted scenarios predate fault
instants and must stay byte-identical; the metrics counter is
unconditional because no golden digest covers metrics.
"""

from repro.faults import FaultInjector, FaultPlan, LatencyBurst, LossBurst, Partition
from repro.net import Network, NetworkConfig


def make_net(runner, seed=0):
    return Network(runner.sim, NetworkConfig(seed=seed))


PLAN = FaultPlan(
    events=(
        Partition(start=1.0, duration=2.0, a="a", b="b"),
        LossBurst(start=1.5, duration=1.0, rate=0.1),
        LatencyBurst(start=2.0, duration=1.0, extra=0.01),
    )
)


def drain(runner, until=10.0):
    def idle():
        yield runner.sim.timeout(until)

    runner.run(idle())


def test_fault_events_feed_the_metrics_registry(runner):
    metrics = runner.sim.enable_metrics()
    inj = FaultInjector(runner.sim, network=make_net(runner))
    inj.install(PLAN)
    drain(runner)
    counts = metrics.counter("faults.events").as_dict()
    assert counts == {
        "kind=heal": 1,
        "kind=latency": 1,
        "kind=latency_end": 1,
        "kind=loss": 1,
        "kind=loss_end": 1,
        "kind=partition": 1,
    }
    # the log stays the authoritative ordered record
    assert len(inj.log) == 6


def test_fault_events_without_metrics_enabled_still_log(no_observers, runner):
    assert runner.sim.metrics is None
    inj = FaultInjector(runner.sim, network=make_net(runner))
    inj.install(PLAN)
    drain(runner)
    assert len(inj.log) == 6


def test_trace_instants_are_opt_in(runner):
    runner.sim.enable_tracer()
    inj = FaultInjector(runner.sim, network=make_net(runner))
    assert inj.trace is False
    inj.install(PLAN)
    drain(runner)
    names = [ev.name for ev in runner.sim.tracer.events if ev.name.startswith("fault.")]
    assert names == []


def test_trace_instants_when_enabled(runner):
    runner.sim.enable_tracer()
    inj = FaultInjector(runner.sim, network=make_net(runner), trace=True)
    inj.install(PLAN)
    drain(runner)
    names = sorted(
        ev.name for ev in runner.sim.tracer.events if ev.name.startswith("fault.")
    )
    assert names == [
        "fault.heal",
        "fault.latency",
        "fault.latency_end",
        "fault.loss",
        "fault.loss_end",
        "fault.partition",
    ]
