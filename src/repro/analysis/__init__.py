"""Static and runtime analysis for the simulation (see docs/ANALYSIS.md).

* :mod:`~repro.analysis.linter` — the static linter behind
  ``python -m repro lint``: one project index
  (:mod:`~repro.analysis.callgraph`), one rule table, one emit path;
* :mod:`~repro.analysis.table41` — a machine-readable spec of the
  paper's Table 4-1 plus a conformance diff against the live
  state table (TBL41);
* :mod:`~repro.analysis.sanitizer` — SimTSan, the runtime race/leak
  sanitizer the engine enables under ``REPRO_SANITIZE=1``.
"""

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "Finding": ".linter",
    "lint_paths": ".linter",
    "lint_source": ".linter",
    "Sanitizer": ".sanitizer",
    "SanitizerError": ".sanitizer",
    "RuntimeFinding": ".sanitizer",
    "conformance_findings": ".table41",
    "CALLBACK_LEGALITY": ".table41",
    "EXPECTED": ".table41",
    "IMPOSSIBLE": ".table41",
})
