"""repro.parallel: the deterministic process-pool cell runner.

Every fan-out surface in this repository — the nemesis conformance
matrix and the golden-digest regeneration —
decomposes into independent **cells**: a
pickle-safe ``(kind, name, params, seed)`` spec whose execution builds
a fresh simulator, runs one seeded scenario, and returns a result plus
(usually) a determinism digest.  Because every cell derives all of its
randomness from its own spec, a cell's digest is the same no matter
which process computed it — which is what makes embarrassing
parallelism *safe*: ``-jN`` may reorder wall-clock execution, but the
ordered result collection and the per-cell digests guarantee the
emitted artifacts are byte-identical to a serial run (modulo the
wall-clock fields, which are honest measurements either way).

The contract:

* ``-j1`` (or a single cell) executes in-process through the exact
  same per-cell functions — byte-identical output, zero pool overhead;
* ``-jN`` farms cells to a ``concurrent.futures`` process pool with
  ordered collection, so reports and JSON artifacts are independent of
  completion order;
* a **raising** cell becomes an ``error`` row (the sweep continues and
  the caller exits non-zero); a **crashed** worker process breaks the
  pool, and the unfinished cells are bisected over fresh pools until
  the one that kills its worker runs alone — only that cell is charged
  a break, and after three it becomes an ``error`` row too;
* every row carries the cell's wall-clock seconds; :func:`sweep` is
  :func:`run_cells` under a stopwatch and returns the rows with the
  :func:`pool_accounting` block (aggregate speedup) that the
  ``repro-nemesis/1`` artifacts embed and ``golden`` prints.
"""

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "CELL_KINDS": ".cells",
    "CellSpec": ".cells",
    "run_cell_spec": ".cells",
    "default_jobs": ".pool",
    "make_progress_printer": ".pool",
    "pool_accounting": ".pool",
    "resolve_jobs": ".pool",
    "run_cells": ".pool",
    "sweep": ".pool",
    "sweep_summary": ".pool",
})
