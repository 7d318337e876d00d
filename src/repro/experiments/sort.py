"""Sort benchmark experiment runners (Tables 5-3, 5-4, 5-5, 5-6).

The sort's input is staged on a client-local disk (/input); the
temporaries and output live on the measured filesystem (/tmp: the
client's local disk, or a remote NFS/SNFS mount — the paper's
"/usr/tmp" configurations).  Table 5-5/5-6 disable the periodic update
sync ("infinite write-delay").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..fs.types import OpenMode
from ..metrics import format_table
from ..workloads import ExternalSort, SortConfig, SortResult, make_input_records
from ..workloads.sort import split_records
from .cluster import build_testbed
from .memo import shared_run
from .window import Window, rpc_rows_table

__all__ = [
    "SortRun",
    "run_sort",
    "sort_table_5_3",
    "sort_table_5_4",
    "sort_table_5_5",
    "sort_table_5_6",
    "SORT_SIZES",
]

#: the paper's three input sizes (bytes)
SORT_SIZES = [281 * 1024, 1408 * 1024, 2816 * 1024]

_IO_CHUNK = 8192


@dataclass
class SortRun:
    label: str
    protocol: str
    input_bytes: int
    update_enabled: bool
    result: SortResult
    rpc_rows: Dict[str, int] = field(default_factory=dict)
    output_ok: bool = False
    server_disk: Dict[str, int] = field(default_factory=dict)
    client_disk: Dict[str, int] = field(default_factory=dict)


def run_sort(
    protocol: str = "nfs",
    input_bytes: int = SORT_SIZES[-1],
    update_enabled: bool = True,
    sort_config: Optional[SortConfig] = None,
    client_config=None,
    verify_output: bool = True,
) -> SortRun:
    """Run the external sort once in the given configuration."""
    bed = build_testbed(
        protocol,
        remote_tmp=True,  # ignored by the local column
        client_config=client_config,
        update_daemons=update_enabled,
    )
    k = bed.client.kernel
    input_data = make_input_records(input_bytes)

    def stage_input():
        fd = yield from k.open("/input/unsorted", OpenMode.WRITE, create=True)
        offset = 0
        while offset < len(input_data):
            yield from k.write(fd, input_data[offset:offset + _IO_CHUNK])
            offset += _IO_CHUNK
        yield from k.close(fd)
        yield from k.sync()

    bed.run(stage_input())
    window = Window(bed)

    sorter = ExternalSort(
        k,
        input_path="/input/unsorted",
        output_path="/tmp/sorted",
        tmp_dir="/tmp",
        config=sort_config or SortConfig(run_bytes=512 * 1024, merge_width=4),
    )
    result = bed.run(sorter.run())

    run = SortRun(
        label="%s%s" % (protocol, "" if update_enabled else " no-update"),
        protocol=protocol,
        input_bytes=input_bytes,
        update_enabled=update_enabled,
        result=result,
        rpc_rows=window.rpc_rows(),
        server_disk=window.disk_stats(window.server_hosts),
        client_disk=window.disk_stats(window.client_hosts),
    )
    if verify_output:
        run.output_ok = bed.run(_check_sorted(k, "/tmp/sorted", input_data))
    return run


def _check_sorted(k, path: str, input_data: bytes):
    fd = yield from k.open(path, OpenMode.READ)
    chunks = []
    while True:
        data = yield from k.read(fd, 65536)
        if not data:
            break
        chunks.append(data)
    yield from k.close(fd)
    return split_records(b"".join(chunks)) == sorted(split_records(input_data))


# -- table builders ------------------------------------------------------------
#
# Tables 5-3..5-6 draw on twelve configurations, six of them more than
# once (and the sort ablations' baselines on two of the same), so every
# run is a ``shared_run(run_sort, protocol, size, update_enabled)``.


def sort_table_5_3(sizes: Optional[List[int]] = None) -> Tuple[str, List[SortRun]]:
    """Table 5-3: elapsed times for three input sizes x three mounts."""
    sizes = sizes or SORT_SIZES
    runs: List[SortRun] = []
    rows = []
    for size in sizes:
        row_runs = [shared_run(run_sort, p, size, True) for p in ("local", "nfs", "snfs")]
        runs.extend(row_runs)
        rows.append(
            [
                "%dk" % (size // 1024),
                "%dk" % (row_runs[0].result.temp_bytes_written // 1024),
            ]
            + ["%.0f sec" % r.result.elapsed for r in row_runs]
        )
    headers = ["File size", "Temp storage", "local /tmp", "NFS /tmp", "SNFS /tmp"]
    table = format_table(
        headers, rows, title="Table 5-3: Sort benchmark elapsed time", align_left_cols=2
    )
    return table, runs


def sort_table_5_4(size: int = SORT_SIZES[-1]) -> Tuple[str, List[SortRun]]:
    """Table 5-4: RPC calls for the sort benchmark (largest input)."""
    runs = [shared_run(run_sort, p, size, True) for p in ("nfs", "snfs")]
    return rpc_rows_table(runs, "Table 5-4: RPC calls for Sort benchmark"), runs


def sort_table_5_5(size: int = SORT_SIZES[-1]) -> Tuple[str, List[SortRun]]:
    """Table 5-5: sort with infinite write-delay (update daemon off)."""
    runs = [shared_run(run_sort, p, size, False) for p in ("local", "nfs", "snfs")]
    headers = ["Version", "Elapsed"]
    rows = [[r.label, "%.0f sec" % r.result.elapsed] for r in runs]
    table = format_table(
        headers, rows, title="Table 5-5: Sort benchmark, infinite write-delay"
    )
    return table, runs


def sort_table_5_6(size: int = SORT_SIZES[-1]) -> Tuple[str, List[SortRun]]:
    """Table 5-6: RPC calls with and without the update daemon."""
    runs = [
        shared_run(run_sort, p, size, u) for p in ("nfs", "snfs") for u in (True, False)
    ]
    headers = ["Version", "update?", "Reads", "Writes", "Others"]
    rows = []
    for r in runs:
        others = r.rpc_rows.get("total", 0) - r.rpc_rows.get("read", 0) - r.rpc_rows.get("write", 0)
        rows.append(
            [
                r.protocol.upper(),
                "Yes" if r.update_enabled else "No",
                str(r.rpc_rows.get("read", 0)),
                str(r.rpc_rows.get("write", 0)),
                str(others),
            ]
        )
    table = format_table(
        headers,
        rows,
        title="Table 5-6: RPC calls for Sort benchmark, infinite write-delay",
        align_left_cols=2,
    )
    return table, runs
