"""The accepted-findings baseline (``lint-baseline.json``).

The atomicity/seam passes are heuristic: some findings are reviewed
and accepted (a helper that only runs under a caller-held lock, a
best-effort sweep whose staleness is self-healing).  Rather than
sprinkle suppressions through code that is otherwise untouched, a
reviewed finding can live in a committed baseline file:

.. code-block:: json

    {
      "schema": "repro-lint-baseline/1",
      "findings": [
        {
          "fingerprint": "0123456789abcdef",
          "rule": "ATOM001",
          "path": "repro/kent/server.py",
          "function": "KentServer._downgrade_other_blocks",
          "subject": "self._tokens",
          "reason": "cross-block downgrade is best-effort by design"
        }
      ]
    }

Every entry **must** carry a reason — the baseline is a review log,
not a mute button.  Matching is by fingerprint (rule + normalized
path + function + subject; see
:func:`~repro.analysis.linter.finding_fingerprint`), so entries
survive unrelated line churn.  An entry no longer matched by any
finding is *stale* and reported as a warning: fix the baseline when
you fix the code.  (Only a run that could have matched an entry may
call it stale: :func:`~repro.analysis.cli.run_lint` asks that the
entry's rule belong to a pass that ran and its ``path`` to a linted
file.)
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..document import check, read_json
from .linter import RULES, Finding

__all__ = ["BASELINE_SCHEMA", "load_baseline", "apply_baseline"]

BASELINE_SCHEMA = "repro-lint-baseline/1"


_ENTRY_FIELDS = ("fingerprint", "rule", "reason")
_SPEC = {
    "schema": {BASELINE_SCHEMA},
    "findings": [dict.fromkeys(_ENTRY_FIELDS, str)],
}


def load_baseline(path: str) -> Dict:
    """Read and validate a baseline document."""
    doc = read_json(path)
    problems = check(doc, _SPEC) or [
        "findings[%d] has an empty %r (every accepted finding needs a "
        "review reason)" % (i, field)
        for i, entry in enumerate(doc["findings"])
        for field in _ENTRY_FIELDS
        if not entry[field]
    ] + [
        "findings[%d] names no known rule: %r" % (i, entry["rule"])
        for i, entry in enumerate(doc["findings"])
        if entry["rule"] not in RULES
    ]
    if problems:
        raise ValueError("baseline %s: %s" % (path, "; ".join(problems)))
    return doc


def apply_baseline(
    findings: Sequence[Finding], doc: Dict
) -> Tuple[List[Finding], List[Finding], List[Dict]]:
    """Split findings into (active, baselined) and return the entries
    no finding matched.

    A baseline entry absorbs every finding with its fingerprint (the
    fingerprint is line-independent, so one reviewed hazard that the
    analyzer reports from two anchors stays one entry).
    """
    by_fp = {entry["fingerprint"]: entry for entry in doc.get("findings", [])}
    matched = set()
    active: List[Finding] = []
    baselined: List[Finding] = []
    for finding in findings:
        entry = by_fp.get(finding.fingerprint)
        if entry is not None:
            matched.add(finding.fingerprint)
            baselined.append(finding)
        else:
            active.append(finding)
    unmatched = [entry for fp, entry in sorted(by_fp.items()) if fp not in matched]
    return active, baselined, unmatched
