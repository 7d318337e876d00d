"""External sort benchmark (§5.3): heavy temporary-file traffic.

Models the Unix ``sort`` program: the input is split into memory-sized
runs, each sorted and written to a temporary file; runs are then merged
``merge_width`` at a time, writing intermediate temporaries, until one
sorted output remains.  "The important parameter is the amount of
temporary storage used, which grows faster than the input file" — the
multi-pass merge is what makes temp bytes grow super-linearly, matching
Table 5-3's 304 k / 2170 k / 7764 k temp traffic for 281 k / 1408 k /
2816 k inputs.

The sort is *real*: records actually get ordered, and the tests verify
the output, so the benchmark doubles as an end-to-end correctness check
of whichever filesystem it runs over.
"""

from __future__ import annotations

import posixpath
import random
import struct
from dataclasses import dataclass
from itertools import chain
from typing import List, Optional

from ..fs.types import OpenMode

__all__ = ["SortConfig", "SortResult", "ExternalSort", "make_input_records"]

_IO_CHUNK = 8192
RECORD_LEN = 32  # bytes per record, newline-terminated
_ALPHABET = b"abcdefghijklmnopqrstuvwxyz0123456789"
_BLOCK = struct.Struct("%ds" % RECORD_LEN * 256)  # 8 KB of records per unpack


@dataclass
class SortConfig:
    run_bytes: int = 512 * 1024  # in-memory run size (sort's buffer)
    merge_width: int = 4  # streams merged per pass
    # CPU costs calibrated so the local-disk column of Table 5-3 lands
    # near the paper's 4 / 33 / 74 seconds — which also makes the runs
    # long enough for the 30 s update sync to matter (Table 5-5/5-6)
    cpu_per_byte_sort: float = 1.2e-5  # comparison work while run-sorting
    cpu_per_byte_merge: float = 4e-6  # comparison work while merging


@dataclass
class SortResult:
    elapsed: float = 0.0
    temp_bytes_written: int = 0
    runs: int = 0
    merge_passes: int = 0


def make_input_records(total_bytes: int, seed: int = 7) -> bytes:
    """Deterministic unsorted input of fixed-size records.

    Each key character is the one ``Random.choice(_ALPHABET)`` would
    return: the same rejection loop (``getrandbits(6)`` until the result
    is below 36) draws it from the same generator.
    """
    getrandbits = random.Random(seed).getrandbits
    n = len(_ALPHABET)
    bits = n.bit_length()
    out = bytearray()
    append = out.append
    for _ in range(max(1, total_bytes // RECORD_LEN)):
        for _ in range(RECORD_LEN - 1):
            r = getrandbits(bits)
            while r >= n:
                r = getrandbits(bits)
            append(_ALPHABET[r])
        append(10)  # b"\n"
    return bytes(out)


def split_records(data: bytes) -> List[bytes]:
    """``data`` cut into ``RECORD_LEN``-byte records; a short tail, if
    any, is the last record, as slicing every ``RECORD_LEN`` bytes gives.

    Whole blocks of records are unpacked in C.  A format sized to the
    whole buffer would cost a 32-byte format code per record, more memory
    than the records themselves.
    """
    whole = len(data) - len(data) % _BLOCK.size
    records = list(chain.from_iterable(_BLOCK.iter_unpack(memoryview(data)[:whole])))
    records.extend(data[i:i + RECORD_LEN] for i in range(whole, len(data), RECORD_LEN))
    return records


class ExternalSort:
    """One external sort run on one client host."""

    def __init__(
        self,
        kernel,
        input_path: str,
        output_path: str,
        tmp_dir: str,
        config: Optional[SortConfig] = None,
    ):
        self.kernel = kernel
        self.sim = kernel.sim
        self.cpu = kernel.host.cpu
        self.input_path = input_path
        self.output_path = output_path
        self.tmp = tmp_dir.rstrip("/") or "/"
        self.config = config or SortConfig()
        self.result = SortResult()
        self._tmp_seq = 0

    def run(self):
        """Coroutine: sort input -> output; returns SortResult."""
        start = self.sim.now
        runs = yield from self._make_runs()
        self.result.runs = len(runs)
        if runs:
            final = yield from self._merge_all(runs)
            yield from self._deliver(final)
        else:  # an empty input sorts to an empty output, as with Unix sort
            yield from self._write_whole(self.output_path, b"", count_temp=False)
        self.result.elapsed = self.sim.now - start  # lint: ok=ATOM002 — one driver process per workload instance owns self.result
        return self.result

    # -- phase 1: run formation ---------------------------------------------

    def _make_runs(self) -> "list":
        k = self.kernel
        cfg = self.config
        runs: List[str] = []
        fd = yield from k.open(self.input_path, OpenMode.READ)
        leftover = b""
        while True:
            buf = [leftover]
            size = len(leftover)
            while size < cfg.run_bytes:
                want = min(_IO_CHUNK, cfg.run_bytes - size)
                data = yield from k.read(fd, want)
                if not data:
                    break
                buf.append(data)
                size += len(data)
            blob = b"".join(buf)
            if not blob:
                break
            # split at a record boundary; carry the tail to the next run
            usable = (len(blob) // RECORD_LEN) * RECORD_LEN
            if usable == 0:
                usable = len(blob)
            chunk, leftover = blob[:usable], blob[usable:]
            if not chunk:
                break
            records = split_records(chunk)
            records.sort()
            sorted_run = b"".join(records)
            del records
            yield from self.cpu.consume(len(chunk) * cfg.cpu_per_byte_sort)
            run_path = self._tmp_name("run")
            yield from self._write_whole(run_path, sorted_run)
            runs.append(run_path)
            if not leftover and size < cfg.run_bytes:
                break
        yield from k.close(fd)
        return runs

    # -- phase 2: iterative merge ----------------------------------------------

    def _merge_all(self, runs: List[str]) -> str:
        level = list(runs)
        while len(level) > 1:
            self.result.merge_passes += 1
            next_level: List[str] = []
            for i in range(0, len(level), self.config.merge_width):
                group = level[i:i + self.config.merge_width]
                if len(group) == 1:
                    next_level.append(group[0])
                    continue
                merged = yield from self._merge_group(group)
                next_level.append(merged)
            level = next_level
        return level[0]

    def _merge_group(self, group: List[str]) -> str:
        k = self.kernel
        records: List[bytes] = []
        total = 0
        for path in group:
            data = yield from self._read_whole(path)
            # each file is split from its own start (a short tail stays a
            # record of its own), and its buffer is freed once split
            records += split_records(data)
            total += len(data)
            del data
            yield from k.unlink(path)  # consumed: delete the temporary
        records.sort()  # stand-in for the k-way merge
        merged = b"".join(records)
        del records
        yield from self.cpu.consume(total * self.config.cpu_per_byte_merge)
        out = self._tmp_name("merge")
        yield from self._write_whole(out, merged)
        return out

    def _deliver(self, final_tmp: str):
        """Copy the final temporary to the output path, then delete it."""
        k = self.kernel
        data = yield from self._read_whole(final_tmp)
        yield from k.unlink(final_tmp)
        yield from self._write_whole(self.output_path, data, count_temp=False)

    # -- helpers ------------------------------------------------------------

    def _tmp_name(self, kind: str) -> str:
        self._tmp_seq += 1
        return posixpath.join(self.tmp, "sort_%s_%d" % (kind, self._tmp_seq))

    def _read_whole(self, path: str):
        k = self.kernel
        fd = yield from k.open(path, OpenMode.READ)
        chunks = []
        while True:
            data = yield from k.read(fd, _IO_CHUNK)
            if not data:
                break
            chunks.append(data)
        yield from k.close(fd)
        return b"".join(chunks)

    def _write_whole(self, path: str, data: bytes, count_temp: bool = True):
        k = self.kernel
        fd = yield from k.open(path, OpenMode.WRITE, create=True, truncate=True)
        offset = 0
        while offset < len(data):
            chunk = data[offset:offset + _IO_CHUNK]
            yield from k.write(fd, chunk)
            offset += len(chunk)
        yield from k.close(fd)
        if count_temp:
            self.result.temp_bytes_written += len(data)
