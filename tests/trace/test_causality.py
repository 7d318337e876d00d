"""The acceptance-criterion causal chain, asserted on a real traced run.

A client-1 ``snfs.open`` must be the causal ancestor of (a) the server
state-table transition it triggers and (b) the write-back span the
*victim* client (client 0, which holds dirty delayed writes) performs
in response to the server's callback — one tree spanning three hosts.
"""

import json

import pytest

from repro.experiments import run_traced_andrew
from repro.trace import chrome_trace_json, validate_chrome_trace


@pytest.fixture(scope="module")
def snfs_run():
    return run_traced_andrew("snfs", seed=1989)


def test_epilogue_actually_read_data(snfs_run):
    assert snfs_run.epilogue_bytes > 0


def test_open_is_ancestor_of_state_transition(snfs_run):
    tracer = snfs_run.tracer
    index = tracer.span_index()
    # the epilogue read hits a CLOSED_DIRTY file: the writer closed it
    # but still holds delayed writes
    dirty_opens = [
        e for e in tracer.find_events("snfs.transition", track="server")
        if e.args["before"] == "CLOSED_DIRTY" and e.args["event"] == "open-read"
    ]
    assert dirty_opens, "no open of a CLOSED_DIRTY file was traced"
    event = dirty_opens[-1]
    chain = list(tracer.ancestors(event, index))
    opens = [
        s for s in chain
        if s.name == "rpc.call:snfs.open" and s.track == "client1"
    ]
    assert opens, "transition is not rooted in client1's open RPC"


def test_open_is_ancestor_of_remote_writeback(snfs_run):
    tracer = snfs_run.tracer
    index = tracer.span_index()
    writebacks = tracer.find_spans("snfs.writeback", track="client0")
    assert writebacks, "the callback never induced a write-back on client0"
    wb = writebacks[-1]
    chain = list(tracer.ancestors(wb, index))
    names_tracks = [(s.name, s.track) for s in chain]
    # ... the server's callback span, served on client0 ...
    assert ("rpc.serve:snfs.callback", "client0") in names_tracks
    assert ("snfs.callback", "server") in names_tracks
    # ... rooted in the *other* client's open
    assert ("rpc.call:snfs.open", "client1") in names_tracks


def test_transition_and_writeback_share_one_trace(snfs_run):
    tracer = snfs_run.tracer
    wb = tracer.find_spans("snfs.writeback", track="client0")[-1]
    opener = next(
        s for s in tracer.ancestors(wb)
        if s.name == "rpc.call:snfs.open" and s.track == "client1"
    )
    dirty = [
        e for e in tracer.find_events("snfs.transition", track="server")
        if e.args["before"] == "CLOSED_DIRTY" and e.trace == wb.trace
    ]
    assert dirty, "transition and write-back are in different traces"
    # the same open span (same sid) roots both branches
    assert any(
        a.sid == opener.sid for e in dirty for a in tracer.ancestors(e)
    )


def test_exported_trace_validates(snfs_run):
    doc = json.loads(chrome_trace_json(snfs_run.tracer))
    assert validate_chrome_trace(doc) == []


def test_nfs_run_has_no_callback_machinery():
    run = run_traced_andrew("nfs", seed=1989)
    assert run.epilogue_bytes > 0
    assert run.tracer.find_spans("snfs.callback") == []
    assert run.tracer.find_events("snfs.transition") == []
    # but the plain RPC machinery is traced
    assert run.tracer.find_spans("rpc.call:nfs.read")
