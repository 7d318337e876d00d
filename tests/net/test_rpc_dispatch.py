"""Packets are dispatched by callback: the interface hands each delivered
packet to the one callable bound to its port, inside the delivery.  An
``RpcEndpoint`` binds ``_on_packet`` — there is no dispatcher process and
no inbox between the wire and ``_serve``.  These are the fault paths the
dispatcher loop used to own."""

import pytest

from repro.net import Network, NetworkConfig, RpcConfig, RpcEndpoint, RpcTimeout
from repro.net.network import NetworkError
from repro.sim import Simulator

#: a call with no arguments is a bare header on the wire
SERIALIZE = 160 / NetworkConfig().bandwidth
LATENCY = NetworkConfig().latency


def make_pair(rpc_kw=None, observe=False):
    sim = Simulator()
    if observe:
        sim.enable_tracer()
        sim.enable_metrics()
    net = Network(sim, NetworkConfig())
    cfg = RpcConfig(**(rpc_kw or {}))
    client = RpcEndpoint(sim, net, "client", config=cfg)
    server = RpcEndpoint(sim, net, "server", config=cfg)
    return sim, net, client, server


def start_call(sim, client, *call_args, **call_kw):
    result = {}

    def caller():
        try:
            result["value"] = yield from client.call(*call_args, **call_kw)
        except RpcTimeout as exc:
            result["error"] = exc

    sim.spawn(caller(), name="caller")
    return result


def counting_handler(sim, calls, seconds=0.0):
    def handler(src):
        calls.append(sim.now)
        if seconds:
            yield seconds
        return len(calls)
        yield  # a handler is a coroutine even when it never waits

    return handler


def spawned(sim):
    return [e.args["child"] for e in sim.tracer.events if e.name == "proc.spawn"]


def test_an_endpoint_owns_no_process_until_a_request_arrives():
    sim, _net, client, server = make_pair(observe=True)
    assert spawned(sim) == [] and sim.peek() is None
    server.register("ping", counting_handler(sim, []))
    result = start_call(sim, client, "server", "ping")
    sim.run()
    assert result == {"value": 1}
    assert spawned(sim) == ["caller", "serve:server:ping"]


def test_packet_for_a_crashed_endpoint_is_dropped_and_serves_nothing():
    sim, net, client, server = make_pair(observe=True)
    calls = []
    server.register("ping", counting_handler(sim, calls))
    server.crash()
    result = start_call(sim, client, "server", "ping", timeout=0.5, max_retries=1)
    sim.run()
    assert isinstance(result["error"], RpcTimeout)
    assert calls == [] and "serve:server:ping" not in spawned(sim)
    drops = [e for e in sim.tracer.events if e.name == "net.drop"]
    assert [e.args["reason"] for e in drops] == ["host-down", "host-down"]
    assert net.stats.get("packets") == 2 and server.threads.in_use == 0


def test_reply_for_an_xid_no_longer_pending_is_ignored():
    sim, _net, client, server = make_pair()
    calls = []
    server.register("slow", counting_handler(sim, calls, seconds=2.0))
    result = start_call(sim, client, "server", "slow", timeout=0.5, max_retries=0)
    sim.run()
    # the caller gave up at 0.5 s; the reply that came at 2 s found no
    # waiter, woke nobody and raised nothing
    assert isinstance(result["error"], RpcTimeout)
    assert len(calls) == 1 and sim.now >= 2.0
    assert client._pending == {}


def test_retransmissions_hit_the_duplicate_cache_busy_then_done():
    sim, net, client, server = make_pair(observe=True)
    calls = []
    server.register("slow", counting_handler(sim, calls, seconds=1.5))
    # replies are lost until 3.5 s: the attempt at 1 s finds the original
    # still executing, the one at 3 s finds its cached reply (lost
    # again), the one at 7 s is answered from the cache
    net.partition("server", "client", symmetric=False)
    sim.after(3.5, net.heal, "server", "client", False)
    result = start_call(sim, client, "server", "slow")
    sim.run()
    assert result == {"value": 1} and len(calls) == 1
    hits = [
        (round(e.t, 2), e.args["kind"], e.args["proc"], e.args["src"])
        for e in sim.tracer.events if e.name == "rpc.dup_hit"
    ]
    assert hits == [
        (1.0, "busy", "slow", "client"),
        (3.0, "done", "slow", "client"),
        (7.0, "done", "slow", "client"),
    ]
    dup_hits = sim.metrics.counter("rpc.dup_hits")
    assert dup_hits.total() == 3
    assert dup_hits.get(proc="slow", endpoint="server", kind="busy") == 1
    assert dup_hits.get(proc="slow", endpoint="server", kind="done") == 2
    assert sim.metrics.counter("rpc.retrans").total() == 3
    assert server.threads.in_use == 0


@pytest.mark.parametrize("crash_first", [True, False])
def test_crash_in_the_instant_of_a_delivery(crash_first):
    # whichever of the two entries of that instant runs first, a request
    # arriving as the power fails is never executed and never answered
    sim, net, client, server = make_pair(observe=True)
    calls = []
    server.register("ping", counting_handler(sim, calls))

    def arm():
        # runs when the packet leaves the NIC; the crash lands exactly
        # one propagation delay later, like the delivery
        sim.after(LATENCY, server.crash)

    if crash_first:
        sim.after(SERIALIZE, arm)  # ahead of the sender's own entry
    result = start_call(sim, client, "server", "ping", timeout=0.5, max_retries=0)
    if not crash_first:

        def later():
            sim.after(SERIALIZE, arm)  # behind it
            yield 0.0

        sim.spawn(later(), name="later")
    sim.run()
    assert isinstance(result["error"], RpcTimeout)
    assert calls == [] and server.boot_epoch == 1
    assert net.stats.get("packets") == 1  # no reply left the server
    drops = [e.args["reason"] for e in sim.tracer.events if e.name == "net.drop"]
    if crash_first:
        assert drops == ["host-down"]
        assert "serve:server:ping" not in spawned(sim)
    else:
        # delivered to a live endpoint, whose service process then
        # found the epoch it was spawned in gone
        assert drops == [] and "serve:server:ping" in spawned(sim)
    assert server.threads.in_use == 0 and server._dup_cache._done == {}


# -- the interface's port table -------------------------------------------------


def test_bound_receiver_gets_each_packet_at_the_instant_it_arrives():
    sim = Simulator()
    net = Network(sim, NetworkConfig(bandwidth=1000.0, latency=0.5))
    a, b = net.attach("a"), net.attach("b")
    seen = []
    b.bind(5, lambda packet: seen.append((sim.now, packet.payload)))

    def sender():
        yield from a.send("b", 5, "one", 1000)
        yield from a.send("b", 5, "two", 1000)
        yield from a.send("b", 6, "nobody listens", 1000)

    sim.spawn(sender())
    sim.run()
    assert seen == [(1.5, "one"), (2.5, "two")]


def test_a_port_has_one_owner_whichever_way_it_was_claimed():
    sim = Simulator()
    iface = Network(sim).attach("a")
    iface.bind(1, lambda packet: None)
    iface.listen(2)
    for port in (1, 2):
        with pytest.raises(NetworkError):
            iface.bind(port, lambda packet: None)
        with pytest.raises(NetworkError):
            iface.listen(port)


def test_flush_ports_empties_store_listeners_and_leaves_receivers_alone():
    sim = Simulator()
    net = Network(sim, NetworkConfig(bandwidth=1000.0, latency=0.5))
    a, b = net.attach("a"), net.attach("b")
    inbox = b.listen(1)
    seen = []
    b.bind(2, seen.append)

    def sender():
        yield from a.send("b", 1, "queued", 100)
        yield from a.send("b", 1, "queued too", 100)
        yield from a.send("b", 2, "handed over", 100)

    sim.spawn(sender())
    sim.run()
    assert len(inbox) == 2 and len(seen) == 1
    b.flush_ports()
    assert len(inbox) == 0 and len(seen) == 1


# -- what a round trip costs ------------------------------------------------------


def test_an_uncontended_nfs_getattr_round_trip_draws_eleven_sequence_numbers():
    # the caller's first slice; client CPU, NIC, the retransmit timer,
    # the delivery; the service process's first slice, server CPU, NIC,
    # the delivery; the reply event's resume; client CPU.  (24 when each
    # hold was three entries, each packet crossed an inbox and a
    # dispatcher, and each sleep queued its resume.)
    from repro.experiments.bed import build_bed
    from repro.nfs.protocol import PROC

    bed = build_bed("nfs", 1, update_daemons=False)
    host, sim = bed.client_hosts[0], bed.sim
    before = next(sim._counter)
    attr = bed.run(host.rpc.call("server", PROC.GETATTR, bed.mounts[0].root().fid))
    assert attr.size >= 0
    assert next(sim._counter) - before - 1 == 11
