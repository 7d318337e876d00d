"""The always-on op counts (``Tally``) and the endpoint's ``call_log``.

These replaced ``Counters``: totals are a ``defaultdict(int)`` bumped in
place, and the one consumer of timestamps (figures 5-1/5-2) reads a
plain ``(time, proc)`` list kept when ``keep_call_times`` is set.
"""

from repro.experiments.andrew import rates_from_times
from repro.metrics import Tally
from repro.net import Network, RpcEndpoint


def test_record_and_get():
    c = Tally()
    c["read"] += 1
    c["read"] += 1
    c["write"] += 5
    assert c.get("read") == 2
    assert c.get("write") == 5
    assert c.get("missing") == 0  # unlike dict.get
    assert "missing" not in c  # and reading inserted nothing


def test_total_all_and_subset():
    c = Tally()
    c["a"] += 1
    c["b"] += 2
    c["c"] += 3
    assert c.total() == 6
    assert c.total(["a", "c"]) == 4
    assert c.total(["nope"]) == 0


def test_as_dict_is_a_copy():
    c = Tally()
    c["x"] += 1
    d = c.as_dict()
    d["x"] = 99
    assert type(d) is dict
    assert c.get("x") == 1


def test_reset_clears_everything():
    c = Tally()
    c["op"] += 1
    c.reset()
    assert c.get("op") == 0
    assert c.as_dict() == {}


def test_repr_readable():
    c = Tally()
    c["x"] += 1
    assert "'x': 1" in repr(c)


# -- the call-time log ---------------------------------------------------------


def _endpoints(sim, keep_call_times):
    net = Network(sim)
    server = RpcEndpoint(sim, net, "srv", keep_call_times=keep_call_times)
    client = RpcEndpoint(sim, net, "cli", keep_call_times=keep_call_times)

    def slow(src):
        yield sim.timeout(1.0)
        return "ok"

    def fast(src):
        return "ok"
        yield  # pragma: no cover

    server.register("slow", slow)
    server.register("fast", fast)
    return server, client


def _calls_at(runner, client, schedule):
    def caller():
        for t, proc in schedule:
            yield runner.sim.timeout(t - runner.sim.now)
            yield from client.call("srv", proc)

    runner.run(caller())


def test_times_not_kept_by_default(runner):
    server, client = _endpoints(runner.sim, keep_call_times=False)
    _calls_at(runner, client, [(1.5, "fast")])
    assert server.call_log is None
    assert server.server_stats.get("fast") == 1  # the count is always on


def test_times_kept_when_enabled(runner):
    server, client = _endpoints(runner.sim, keep_call_times=True)
    _calls_at(runner, client, [(1.5, "fast"), (2.5, "fast"), (9.0, "slow")])
    assert [proc for _t, proc in server.call_log] == ["fast", "fast", "slow"]
    times = [t for t, _proc in server.call_log]
    assert times == sorted(times)
    assert client.call_log == []  # calls *served* here, and it served none


def test_timed_record_without_t_defaults_to_sim_clock(runner):
    # the log stamps sim.now when the request executes: after transit,
    # not when the caller issued it and not when the handler finished
    server, client = _endpoints(runner.sim, keep_call_times=True)
    _calls_at(runner, client, [(2.5, "slow")])
    ((t, proc),) = server.call_log
    assert proc == "slow"
    assert 2.5 < t < 2.6
    assert runner.sim.now > 3.5


def test_rate_series_buckets(runner):
    # the log is what figures 5-1/5-2 bucket into calls per second
    server, client = _endpoints(runner.sim, keep_call_times=True)
    _calls_at(
        runner, client,
        [(0.1, "fast"), (0.2, "fast"), (0.3, "fast"), (5.5, "fast"), (5.6, "fast")],
    )
    times = [t for t, _proc in server.call_log]
    assert rates_from_times(times, bucket=5.0, t_end=10.0) == [
        (0.0, 3 / 5.0), (5.0, 2 / 5.0),
    ]


def test_rate_series_empty(runner):
    server, _client = _endpoints(runner.sim, keep_call_times=True)
    assert rates_from_times(
        [t for t, _proc in server.call_log], bucket=1.0, t_end=1.0
    ) == [(0.0, 0.0)]
