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

from .linter import Finding, lint_paths, lint_source
from .sanitizer import RuntimeFinding, Sanitizer, SanitizerError
from .table41 import CALLBACK_LEGALITY, EXPECTED, IMPOSSIBLE, conformance_findings

__all__ = [
    "Finding",
    "lint_paths",
    "lint_source",
    "Sanitizer",
    "SanitizerError",
    "RuntimeFinding",
    "conformance_findings",
    "CALLBACK_LEGALITY",
    "EXPECTED",
    "IMPOSSIBLE",
]
