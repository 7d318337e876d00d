"""Cell specs and the kind registry the worker processes dispatch on.

A :class:`CellSpec` is deliberately plain data — strings, ints, and a
JSON-shaped params dict — so it pickles across a ``spawn`` start
method as well as ``fork``, and so a failing cell's spec can be
printed verbatim as a standalone repro recipe.

Kind functions take the spec and return ``(result, digest)`` where
``result`` is JSON-shaped and ``digest`` is the cell's determinism
digest (or ``None`` for scenarios that have no digest variant).  They
import the heavy machinery lazily so that merely pickling a spec never
drags the protocol stacks into the worker before it needs them.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = ["CellSpec", "CELL_KINDS", "run_cell_spec"]


@dataclass(frozen=True)
class CellSpec:
    """One unit of sweep work: executed by any process, same answer."""

    kind: str
    name: str
    params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0


def blank_row(spec: CellSpec, error: Optional[str] = None) -> Dict[str, Any]:
    """The row of a cell that produced nothing (yet)."""
    return {
        "kind": spec.kind,
        "name": spec.name,
        "result": None,
        "digest": None,
        "wall_seconds": 0.0,
        "error": error,
    }


def run_cell_spec(spec: CellSpec) -> Dict[str, Any]:
    """Execute one cell; never raises — errors become the row.

    This is the function the pool ships to workers AND the in-process
    ``-j1`` path calls directly, so serial and parallel runs execute
    byte-identical per-cell code.
    """
    row = blank_row(spec)
    t0 = time.perf_counter()  # lint: ok=DET002 — wall-clock cell accounting, not sim logic
    try:
        fn = CELL_KINDS.get(spec.kind)
        if fn is None:
            raise KeyError("unknown cell kind %r" % spec.kind)
        result, digest = fn(spec)
        row["result"] = result
        row["digest"] = digest
    except BaseException as exc:  # noqa: BLE001 - the error IS the row
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        row["error"] = "%s: %s" % (type(exc).__name__, exc)
        row["traceback"] = traceback.format_exc(limit=8)
    row["wall_seconds"] = round(time.perf_counter() - t0, 6)  # lint: ok=DET002 — wall-clock cell accounting, not sim logic
    return row


# -- built-in kinds -----------------------------------------------------------


def _nemesis_cell(spec: CellSpec):
    from ..nemesis.matrix import run_cell

    return run_cell(seed=spec.seed, **spec.params).as_dict(), None


def _golden_output(spec: CellSpec):
    from ..bench.golden import compute_output_digests

    digest = compute_output_digests([spec.name])[spec.name]
    return digest, digest


def _golden_traced(spec: CellSpec):
    from ..bench.golden import compute_trace_digests

    digests = compute_trace_digests([spec.name])[spec.name]
    return digests, digests[0] if digests else None


def _test_echo(spec: CellSpec):
    time.sleep(spec.params.get("sleep", 0.0))
    return dict(spec.params), spec.params.get("digest")


def _test_raise(spec: CellSpec):
    raise ValueError(spec.params.get("message", "deliberate cell failure"))


def _test_crash(spec: CellSpec):
    import os

    os._exit(int(spec.params.get("code", 3)))


#: kind -> fn(spec) -> (result, digest); the ``_test-`` kinds are
#: exercised by tests/parallel/ only
CELL_KINDS: Dict[str, Callable[[CellSpec], Tuple[Any, Optional[Any]]]] = {
    "nemesis-cell": _nemesis_cell,
    "golden-output": _golden_output,
    "golden-traced": _golden_traced,
    "_test-echo": _test_echo,
    "_test-raise": _test_raise,
    "_test-crash": _test_crash,
}
