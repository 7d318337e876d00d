"""The external sort against its earlier, slice-per-record formulation.

The references below restate, over plain bytes, the algorithm
``ExternalSort`` and ``make_input_records`` ran before records were
split in C and keys drawn without a string per record.  Both rewrites
must change nothing anyone can observe: not the input bytes, not the
sorted output, not the run/merge/temp-byte accounting.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.fs import OpenMode
from repro.host import Host
from repro.net import Network
from repro.workloads import ExternalSort, SortConfig, make_input_records
from repro.workloads.sort import RECORD_LEN, split_records
from tests.conftest import SimRunner

_IO_CHUNK = 8192


def reference_input_records(total_bytes, seed=7):
    rng = random.Random(seed)
    n = max(1, total_bytes // RECORD_LEN)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    records = []
    for _ in range(n):
        key = "".join(rng.choice(alphabet) for _ in range(RECORD_LEN - 1))
        records.append(key + "\n")
    return "".join(records).encode()


def reference_split(blob):
    return [blob[i:i + RECORD_LEN] for i in range(0, len(blob), RECORD_LEN)]


def reference_sort(data, run_bytes, merge_width):
    """(output, runs, merge_passes, temp_bytes_written) of sorting ``data``.

    Runs are formed ``run_bytes`` at a time, cut at the last whole record
    with the tail carried into the next run; runs merge ``merge_width``
    at a time per pass, each file split from its own start.
    """
    temp = 0
    runs = []
    pos = 0
    leftover = b""
    while True:
        blob = leftover + data[pos:pos + run_bytes - len(leftover)]
        pos += run_bytes - len(leftover)
        if not blob:
            break
        usable = len(blob) // RECORD_LEN * RECORD_LEN or len(blob)
        chunk, leftover = blob[:usable], blob[usable:]
        runs.append(b"".join(sorted(reference_split(chunk))))
        temp += len(runs[-1])
        if not leftover and len(blob) < run_bytes:
            break
    level, passes = runs, 0
    while len(level) > 1:
        passes += 1
        next_level = []
        for i in range(0, len(level), merge_width):
            group = level[i:i + merge_width]
            if len(group) == 1:
                next_level.append(group[0])
                continue
            records = []
            for run in group:
                records.extend(reference_split(run))
            next_level.append(b"".join(sorted(records)))
            temp += len(next_level[-1])
        level = next_level
    return (level[0] if level else b""), len(runs), passes, temp


@pytest.mark.parametrize("seed", [3, 7, 1989])
@pytest.mark.parametrize("size", [0, 31, 32, 4 * 1024 + 5, 281 * 1024])
def test_input_records_are_the_choice_drawn_bytes(size, seed):
    assert make_input_records(size, seed) == reference_input_records(size, seed)


@pytest.mark.parametrize(
    "size", [0, 1, 31, 32, 33, 8191, 8192, 8193, 3 * 8192 + 40]
)
def test_split_records_cuts_like_slicing(size):
    blob = bytes(random.Random(size).getrandbits(8) for _ in range(size))
    assert split_records(blob) == reference_split(blob)


def sort_on_a_local_disk(data, config):
    runner = SimRunner()
    host = Host(runner.sim, Network(runner.sim), "machine")
    host.add_local_fs("/", fsid="rootfs")
    k = host.kernel

    def scenario():
        yield from k.mkdir("/tmpdir")
        fd = yield from k.open("/unsorted", OpenMode.WRITE, create=True)
        for offset in range(0, len(data), _IO_CHUNK):
            yield from k.write(fd, data[offset:offset + _IO_CHUNK])
        yield from k.close(fd)
        result = yield from ExternalSort(
            k, "/unsorted", "/sorted", "/tmpdir", config=config
        ).run()
        fd = yield from k.open("/sorted", OpenMode.READ)
        chunks = []
        while True:
            piece = yield from k.read(fd, _IO_CHUNK)
            if not piece:
                break
            chunks.append(piece)
        yield from k.close(fd)
        leftovers = yield from k.readdir("/tmpdir")
        return result, b"".join(chunks), leftovers

    return runner.run(scenario())


@given(
    data=st.one_of(
        st.binary(max_size=3000),
        st.binary(max_size=40).map(lambda b: b * 64),  # long runs of equal keys
    ),
    # small runs half the time, so that many inputs take several passes
    run_bytes=st.one_of(st.integers(32, 96), st.integers(32, 4096)),
    merge_width=st.integers(min_value=2, max_value=5),
)
@example(data=make_input_records(3000, seed=1) + b"\0\n\0", run_bytes=33, merge_width=2)
@example(data=b"\n\0" * 2500 + b"tail", run_bytes=100, merge_width=3)
@settings(max_examples=60, deadline=None)
def test_external_sort_equals_the_reference(data, run_bytes, merge_width):
    result, output, leftovers = sort_on_a_local_disk(
        data, SortConfig(run_bytes=run_bytes, merge_width=merge_width)
    )
    expected, runs, passes, temp = reference_sort(data, run_bytes, merge_width)
    assert output == expected
    assert (result.runs, result.merge_passes, result.temp_bytes_written) == (
        runs, passes, temp,
    )
    assert leftovers == []
