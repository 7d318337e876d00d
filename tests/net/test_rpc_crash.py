"""Crash semantics of the RPC endpoint: the duplicate-request cache
and in-flight handlers across a power cycle.

The subtle case: a ``_serve`` coroutine survives ``crash()`` (the
simulator does not kill processes), finishes its handler after
``reboot()``, and must then recognize that its world is gone — its
reply reflects pre-crash state, was never acknowledged, and must not
repopulate the post-reboot duplicate cache (a retransmission would be
answered from the cache instead of re-executed, silently breaking
at-least-once semantics).
"""

from repro.net import Network, NetworkConfig, RpcConfig, RpcEndpoint
from repro.sim import Simulator


def make_pair():
    sim = Simulator()
    net = Network(sim, NetworkConfig())
    client = RpcEndpoint(sim, net, "client", config=RpcConfig())
    server = RpcEndpoint(sim, net, "server", config=RpcConfig())
    return sim, net, client, server


def run_call(sim, client, *call_args, **call_kw):
    result = {}

    def caller():
        result["value"] = yield from client.call(*call_args, **call_kw)

    sim.spawn(caller())
    sim.run()
    return result


def test_crash_flushes_dup_cache_and_discards_dead_epoch_reply():
    sim, net, client, server = make_pair()
    calls = {"n": 0}

    def slow(src):
        calls["n"] += 1
        mine = calls["n"]
        yield sim.timeout(1.0)
        return "execution-%d" % mine

    server.register("slow", slow)
    served = []
    server.serve_listeners.append(
        lambda proc, src, args, result, error, now: served.append(result)
    )

    def nemesis():
        # crash mid-handler, reboot before the handler's timeout fires
        yield sim.timeout(0.5)
        server.crash()
        yield sim.timeout(0.2)
        server.reboot()

    sim.spawn(nemesis())
    result = run_call(sim, client, "server", "slow", hard=True)

    # the retransmission re-executed the handler (dup cache was really
    # flushed) and the client saw the post-reboot execution
    assert calls["n"] == 2
    assert result["value"] == "execution-2"
    # the dead-epoch execution was never acknowledged: observers (the
    # consistency oracle, keepalive) saw exactly one serve
    assert served == ["execution-2"]


def test_crash_bumps_boot_epoch_and_clears_pending():
    sim, net, client, server = make_pair()
    assert server.boot_epoch == 0
    server.crash()
    assert server.boot_epoch == 1
    server.reboot()
    server.crash()
    assert server.boot_epoch == 2


def test_dup_cache_still_suppresses_reexecution_without_a_crash():
    """Control: with no crash, a retransmitted request is answered from
    the cache, not re-executed."""
    sim, net, client, server = make_pair()
    calls = {"n": 0}

    def once(src):
        calls["n"] += 1
        yield sim.timeout(0.001)
        return calls["n"]

    server.register("once", once)
    first = run_call(sim, client, "server", "once")
    assert first["value"] == 1

    # resend the same xid by hand: the dup cache must answer it
    replies = []

    def resend():
        msg_xid = 1  # the first call's xid
        from repro.net.rpc import _Call

        msg = _Call(xid=msg_xid, src="client", proc="once", args=())
        yield from server._serve(msg, server.boot_epoch)
        replies.append(server._dup_cache._done[("client", msg_xid)].result)

    sim.spawn(resend())
    sim.run()
    assert calls["n"] == 1
    assert replies == [1]
