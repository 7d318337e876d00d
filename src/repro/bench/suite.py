"""How a bench suite runs: its named scenarios as one pool sweep."""

from __future__ import annotations

import fnmatch
from typing import Dict, Iterable, List, Optional

from ..parallel import CellSpec, sweep

__all__ = ["run_suite"]


def run_suite(
    kind: str,
    names: Iterable[str],
    params: Dict,
    only: Optional[str] = None,
    jobs: int = 1,
    progress=None,
    accounting: Optional[Dict] = None,
) -> List[Dict]:
    """Run the scenarios ``names`` (those matching the fnmatch pattern
    or exact name ``only``, when given) as ``kind`` cells with shared
    ``params``; returns their result dicts in order.

    ``jobs`` farms them to the :mod:`repro.parallel` pool (``1``
    executes in-process, byte-identically); ``progress`` is the pool's
    per-completion callback.  When ``accounting`` is a dict it receives
    the pool timing block, the caller sees error rows there and owns
    the exit code; a bare API call raises on the first failed scenario.
    """
    specs = [
        CellSpec(kind=kind, name=name, params=params)
        for name in names
        if only is None or fnmatch.fnmatch(name, only)
    ]
    rows, timing = sweep(specs, jobs=jobs, progress=progress)
    if accounting is not None:
        accounting.update(timing)
    results = []
    for row in rows:
        if not row["error"]:
            results.append(row["result"])
        elif accounting is None:
            raise RuntimeError(
                "%s scenario %r failed: %s" % (kind, row["name"], row["error"])
            )
    return results
