"""rpc.retrans / rpc.dup_hits registry counters under injected loss.

The fault-injection scenarios land in the unified MetricsRegistry (fed
through ``sim.probe``) with per-proc labels, and agree with the
always-on per-endpoint ``Tally``.
"""

import pytest

from repro.faults import FaultInjector, FaultPlan, LossBurst
from repro.host import Host, HostConfig
from repro.net import Network, NetworkConfig, RpcTimeout


def _ping_cluster(runner, seed=11):
    sim = runner.sim
    metrics = sim.enable_metrics()
    net = Network(sim, NetworkConfig(seed=seed))
    a = Host(sim, net, "a", HostConfig.titan_client())
    b = Host(sim, net, "b", HostConfig.titan_client())

    def pong(src):
        yield sim.timeout(0.0001)
        return "pong"

    b.rpc.register("ping", pong)
    return metrics, net, a, b


def _hammer(runner, a, n=60, tolerate_timeouts=False):
    def caller():
        for _ in range(n):
            try:
                yield from a.rpc.call("b", "ping")
            except RpcTimeout:
                if not tolerate_timeouts:
                    raise

    runner.run(caller(), limit=1e6)


def test_loss_burst_lands_in_retrans_counter(runner):
    metrics, net, a, b = _ping_cluster(runner)
    inj = FaultInjector(runner.sim, network=net)
    inj.install(
        FaultPlan(events=(LossBurst(start=0.0, duration=600.0, rate=0.4),), seed=11)
    )
    _hammer(runner, a, tolerate_timeouts=True)
    retrans = metrics.counter("rpc.retrans")
    assert retrans.total() > 0
    assert retrans.get(proc="ping", endpoint="a") == retrans.total()
    # the always-on per-endpoint tally agrees
    assert a.rpc.client_stats.get("ping.retransmit") == retrans.total()


def test_dup_hits_counted_when_replies_are_lost(runner):
    # drop many packets: some retransmissions arrive while (or after)
    # the original executed, hitting the server's duplicate cache
    metrics, net, a, b = _ping_cluster(runner, seed=5)
    inj = FaultInjector(runner.sim, network=net)
    inj.install(
        FaultPlan(events=(LossBurst(start=0.0, duration=3000.0, rate=0.45),), seed=5)
    )
    _hammer(runner, a, n=120, tolerate_timeouts=True)
    dup = metrics.counter("rpc.dup_hits")
    assert dup.total() > 0
    by_kind = {
        kind: dup.get(proc="ping", endpoint="b", kind=kind)
        for kind in ("busy", "done")
    }
    assert sum(by_kind.values()) == dup.total()


def test_clean_network_records_no_retrans(runner):
    metrics, net, a, b = _ping_cluster(runner)
    _hammer(runner, a, n=20)
    assert metrics.counter("rpc.retrans").total() == 0
    assert metrics.counter("rpc.dup_hits").total() == 0
    latency = metrics.histogram("rpc.latency")
    assert latency.count(proc="ping", endpoint="a", server="b") == 20
    assert latency.mean(proc="ping", endpoint="a", server="b") > 0


def test_metrics_off_means_no_registry(no_observers, runner):
    sim = runner.sim
    net = Network(sim, NetworkConfig(seed=1))
    a = Host(sim, net, "a", HostConfig.titan_client())
    b = Host(sim, net, "b", HostConfig.titan_client())

    def pong(src):
        yield sim.timeout(0.0001)
        return "pong"

    b.rpc.register("ping", pong)
    _hammer(runner, a, n=5)
    assert sim.metrics is None  # nothing was silently enabled
