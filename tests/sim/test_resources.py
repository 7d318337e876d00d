"""Tests for Resource, Lock, Semaphore, Store, and Broadcast."""

import pytest

from repro.sim import (
    Broadcast, Interrupt, Lock, Resource, Semaphore, SimulationError, Simulator,
    Store,
)


# -- Resource ---------------------------------------------------------------


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    log = []

    def worker(sim, tag, hold):
        yield res.acquire()
        log.append(("start", tag, sim.now))
        yield sim.timeout(hold)
        res.release()
        log.append(("end", tag, sim.now))

    sim.spawn(worker(sim, "a", 5))
    sim.spawn(worker(sim, "b", 5))
    sim.spawn(worker(sim, "c", 5))
    sim.run()
    starts = {tag: t for kind, tag, t in log if kind == "start"}
    assert starts["a"] == 0.0
    assert starts["b"] == 0.0
    assert starts["c"] == 5.0  # had to wait for a unit


def test_resource_fifo_ordering():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(sim, tag):
        yield res.acquire()
        order.append(tag)
        yield sim.timeout(1)
        res.release()

    for tag in "abcd":
        sim.spawn(worker(sim, tag))
    sim.run()
    assert order == list("abcd")


def test_resource_release_without_acquire_raises():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_try_acquire():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    assert res.try_acquire()
    assert not res.try_acquire()
    res.release()
    assert res.try_acquire()


def test_resource_busy_time_accounting():
    sim = Simulator()
    res = Resource(sim, capacity=2)

    def worker(sim, start, hold):
        yield sim.timeout(start)
        yield res.acquire()
        yield sim.timeout(hold)
        res.release()

    # busy [0, 4) from first worker, [10, 12) from second: total 6
    sim.spawn(worker(sim, 0, 4))
    sim.spawn(worker(sim, 10, 2))
    sim.run()
    assert res.busy_time() == pytest.approx(6.0)


def test_resource_busy_time_overlapping_holders_count_once():
    sim = Simulator()
    res = Resource(sim, capacity=2)

    def worker(sim, start, hold):
        yield sim.timeout(start)
        yield res.acquire()
        yield sim.timeout(hold)
        res.release()

    # holder A [0, 10), holder B [5, 8): busy time is 10, not 13
    sim.spawn(worker(sim, 0, 10))
    sim.spawn(worker(sim, 5, 3))
    sim.run()
    assert res.busy_time() == pytest.approx(10.0)


def test_waiter_interrupted_while_queued_does_not_swallow_the_unit():
    # the holder holds 1 s; the victim queues behind it and is interrupted
    # at 0.5 s (Host.crash() stopping an update daemon whose sync waits
    # for the disk arm); nobody will ever release a unit granted to the
    # victim's abandoned request, so release() must pass it over
    sim = Simulator()
    res = Resource(sim, capacity=1, name="arm")
    log = []

    def holder():
        yield res.acquire()
        yield 1.0
        res.release()

    def victim():
        try:
            yield res.acquire()
            log.append("victim got the unit")
        except Interrupt as intr:
            log.append(("victim interrupted", sim.now, intr.cause))

    def third():
        yield 2.0
        yield res.acquire()
        log.append(("third got the unit", sim.now))
        res.release()

    sim.spawn(holder())
    doomed = sim.spawn(victim())
    sim.spawn(third())
    sim.after(0.5, doomed.interrupt, "crash")
    sim.run()
    assert log == [("victim interrupted", 0.5, "crash"), ("third got the unit", 2.0)]
    assert res.in_use == 0 and res.queue_length == 0
    assert res.busy_time() == 1.0


def test_abandoned_waiter_is_passed_over_for_the_next_live_one():
    # the unit goes to the first waiter somebody still waits on, at the
    # instant of the release — an any_of that timed out abandons its
    # request just as an interrupt does
    sim = Simulator()
    res = Resource(sim, capacity=1, name="arm")
    log = []

    def holder():
        yield res.acquire()
        yield 1.0
        res.release()

    def impatient():
        timer = sim.timeout(0.25)
        winner, _ = yield sim.any_of([res.acquire(), timer])
        log.append(("impatient", sim.now, winner is timer))

    def patient():
        yield res.acquire()
        log.append(("patient", sim.now))
        yield 1.0
        res.release()

    sim.spawn(holder())
    sim.spawn(impatient())
    sim.spawn(patient())
    assert sim.run() == 2.0
    assert log == [("impatient", 0.25, True), ("patient", 1.0)]
    assert res.in_use == 0 and res.busy_time() == 2.0


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_lock_mutual_exclusion():
    sim = Simulator()
    lock = Lock(sim)
    inside = []

    def critical(sim, tag):
        yield lock.acquire()
        assert lock.locked
        inside.append(tag)
        assert len(inside) == 1
        yield sim.timeout(1)
        inside.remove(tag)
        lock.release()

    for tag in "xyz":
        sim.spawn(critical(sim, tag))
    sim.run()
    assert not lock.locked


# -- Semaphore ---------------------------------------------------------------


def test_semaphore_initial_tokens():
    sim = Simulator()
    sem = Semaphore(sim, value=2)
    got = []

    def taker(sim, tag):
        yield sem.down()
        got.append((tag, sim.now))

    def giver(sim):
        yield sim.timeout(5)
        sem.up()

    for tag in "abc":
        sim.spawn(taker(sim, tag))
    sim.spawn(giver(sim))
    sim.run()
    assert got == [("a", 0.0), ("b", 0.0), ("c", 5.0)]


def test_semaphore_up_beyond_initial():
    sim = Simulator()
    sem = Semaphore(sim, value=0)
    sem.up()
    sem.up()
    assert sem.value == 2


def test_semaphore_negative_value_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Semaphore(sim, value=-1)


# -- Store ---------------------------------------------------------------


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    store.put("x")
    got = []

    def getter(sim):
        item = yield store.get()
        got.append(item)

    sim.spawn(getter(sim))
    sim.run()
    assert got == ["x"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter(sim):
        item = yield store.get()
        got.append((item, sim.now))

    def putter(sim):
        yield sim.timeout(3)
        store.put("late")

    sim.spawn(getter(sim))
    sim.spawn(putter(sim))
    sim.run()
    assert got == [("late", 3.0)]


def test_store_fifo_items_and_getters():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter(sim, tag):
        item = yield store.get()
        got.append((tag, item))

    sim.spawn(getter(sim, "g1"))
    sim.spawn(getter(sim, "g2"))

    def putter(sim):
        yield sim.timeout(1)
        store.put("first")
        store.put("second")

    sim.spawn(putter(sim))
    sim.run()
    assert got == [("g1", "first"), ("g2", "second")]


def test_store_try_get_and_len():
    sim = Simulator()
    store = Store(sim)
    ok, item = store.try_get()
    assert not ok and item is None
    store.put(1)
    store.put(2)
    assert len(store) == 2
    ok, item = store.try_get()
    assert ok and item == 1
    assert len(store) == 1 and store.try_get() == (True, 2)


# -- Broadcast ---------------------------------------------------------------


def test_broadcast_wakes_all_waiters():
    sim = Simulator()
    sig = Broadcast(sim)
    woken = []

    def waiter(sim, tag):
        yield sig.wait()
        woken.append((tag, sim.now))

    def firer(sim):
        yield sim.timeout(2)
        count = sig.fire()
        assert count == 2

    sim.spawn(waiter(sim, "a"))
    sim.spawn(waiter(sim, "b"))
    sim.spawn(firer(sim))
    sim.run()
    assert sorted(woken) == [("a", 2.0), ("b", 2.0)]


def test_broadcast_is_reusable():
    sim = Simulator()
    sig = Broadcast(sim)
    log = []

    def waiter(sim):
        yield sig.wait()
        log.append(sim.now)
        yield sig.wait()
        log.append(sim.now)

    def firer(sim):
        yield sim.timeout(1)
        sig.fire()
        yield sim.timeout(1)
        sig.fire()

    sim.spawn(waiter(sim))
    sim.spawn(firer(sim))
    sim.run()
    assert log == [1.0, 2.0]


def test_broadcast_fire_with_no_waiters():
    sim = Simulator()
    sig = Broadcast(sim)
    assert sig.fire() == 0
