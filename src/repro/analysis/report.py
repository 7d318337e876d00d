"""The machine-readable lint report (schema ``repro-lint/2``).

Schema history:

* ``repro-lint/1`` — implicit: the line-oriented text output only.
* ``repro-lint/2`` — this document: findings carry ``function``,
  ``subject`` and a line-independent ``fingerprint``; the document
  records which passes ran, baseline accounting (matched entries,
  stale entries), and a severity summary.  CI uploads it as an
  artifact and validates it against :func:`validate_lint_document`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..document import check
from .linter import Finding

__all__ = ["LINT_SCHEMA", "lint_document", "validate_lint_document"]

LINT_SCHEMA = "repro-lint/2"

_FINDING = {
    "rule": str, "severity": str, "path": str, "line": int, "col": int,
    "message": str, "function": str, "subject": str, "fingerprint": str,
    "baselined": bool,
}

_SPEC = {
    "schema": {LINT_SCHEMA},
    "paths": list,
    "passes": list,
    "strict": bool,
    "findings": [_FINDING],
    "conformance_diffs": list,
    "baseline": {"matched": int, "stale": list},
    "summary": {"errors": int, "warnings": int, "conformance": int, "baselined": int},
}


def _finding_dict(finding: Finding, baselined: bool) -> Dict:
    """``finding`` as the document spells it: ``_FINDING`` key order."""
    entry = {f: getattr(finding, f) for f in _FINDING if f != "baselined"}
    entry["baselined"] = baselined
    return entry


def lint_document(
    paths: Sequence[str],
    passes: Sequence[str],
    strict: bool,
    active: Sequence[Finding],
    baselined: Sequence[Finding] = (),
    stale_baseline: Sequence[Dict] = (),
    conformance_diffs: Sequence[str] = (),
    baseline_path: Optional[str] = None,
) -> Dict:
    """Assemble the ``repro-lint/2`` document."""
    findings = [_finding_dict(f, False) for f in active]
    findings += [_finding_dict(f, True) for f in baselined]
    findings.sort(key=lambda d: (d["path"], d["line"], d["col"], d["rule"]))
    errors = sum(1 for f in active if f.severity == "error")
    warnings = sum(1 for f in active if f.severity == "warning")
    return {
        "schema": LINT_SCHEMA,
        "paths": list(paths),
        "passes": list(passes),
        "strict": bool(strict),
        "findings": findings,
        "conformance_diffs": list(conformance_diffs),
        "baseline": {
            "path": baseline_path,
            "matched": len(baselined),
            "stale": [dict(e) for e in stale_baseline],
        },
        "summary": {
            "errors": errors,
            "warnings": warnings,
            "conformance": len(conformance_diffs),
            "baselined": len(baselined),
            "stale_baseline": len(stale_baseline),
        },
    }


def validate_lint_document(doc) -> List[str]:
    """Structural validation; returns a list of problems (empty = ok)."""
    return check(doc, _SPEC)
