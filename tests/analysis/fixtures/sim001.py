"""SIM001 fixture: yielding non-waitables from process coroutines."""


def bad_proc(sim):
    yield 5  # SIM001: an int is not a number of seconds (5.0 would be)


def bad_proc_str(sim):
    yield "done"  # SIM001


def good_proc(sim):
    yield sim.timeout(1.0)


def good_sleep(sim):
    yield 1.0  # a float literal is a number of seconds to sleep


def good_handler(sim):
    # the non-blocking-handler idiom: return, then a bare yield to make
    # this function a coroutine at all
    return 42
    yield


def suppressed_proc(sim):
    yield 5  # lint: ok=SIM001 — fixture: suppressed occurrence
