"""NFS protocol definitions: procedure names and accounting categories.

The wire protocol approximates NFS version 2 (RFC 1094, which the paper
cites): ``lookup`` returns attributes along with the handle, ``read``
and ``write`` return fresh attributes, writes reach stable storage
before the reply.  Procedure names carry the ``nfs.`` prefix so that an
SNFS service can coexist on the same endpoint (§6.1); the accounting
helpers strip the prefix so both protocols report comparable rows in
Table 5-2.
"""

from __future__ import annotations

from typing import Dict

from ..proto.procs import proc_namespace

__all__ = [
    "PROC",
    "DATA_TRANSFER_OPS",
    "classify_ops",
    "proc_basename",
]


PROC = proc_namespace(
    "nfs", doc="NFS procedure names (shared by SNFS for the unchanged calls)."
)


#: operations that move file data (Table 5-2's "data transfer" rows)
DATA_TRANSFER_OPS = ("read", "write")


def proc_basename(proc: str) -> str:
    """``nfs.read`` / ``snfs.read`` -> ``read``."""
    return proc.rsplit(".", 1)[-1]


def classify_ops(totals: Dict[str, int]) -> Dict[str, int]:
    """Aggregate raw per-procedure counters into the paper's table rows.

    Returns a dict with keys: lookup, read, write, getattr, open,
    close, callback, other, total — zero-filled so tables align.
    """
    rows = {
        "lookup": 0,
        "read": 0,
        "write": 0,
        "getattr": 0,
        "open": 0,
        "close": 0,
        "callback": 0,
        "other": 0,
        "total": 0,
    }
    for proc, count in totals.items():
        base = proc_basename(proc)
        if base == "retransmit" or proc.endswith(".retransmit"):
            continue  # retries are transport artifacts, not table rows
        if base in rows and base != "other" and base != "total":
            rows[base] += count
        else:
            rows["other"] += count
        rows["total"] += count
    return rows
