"""The sim-aware linter: one rule table, one emit path (stdlib only).

Every static pass consumes one :class:`~repro.analysis.callgraph.ProjectIndex`
(each file parsed once, walked once) and yields raw findings as
``(rule, module, node, message, function, subject)``; this module is the
only place those become :class:`Finding` objects.  :data:`RULES` is the
only place a severity, or the pass a rule belongs to, is written down —
docs/ANALYSIS.md's catalogue is checked against it.

A finding is suppressed by a comment on the flagged line, with a
justifying reason after an em-dash (or ``--``)::

    x = random.random()  # lint: ok — seeding the demo, not the sim
    y = time.time()      # lint: ok=DET002 — wall-clock bench harness

The bare form suppresses every rule on that line; the ``=`` form names
the rule ids it covers.  A suppression without a reason draws a
``SUP001`` warning (which only an explicit ``ok=SUP001`` can silence —
a bare ``ok`` never suppresses its own audit).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import atomicity, seam
from .callgraph import Module, ProjectIndex, index_paths
from .rules_determinism import DETERMINISM_CHECKS
from .rules_sim import SIM_CHECKS

__all__ = [
    "Finding",
    "RULES",
    "lint_paths",
    "lint_source",
    "raw_findings",
    "findings",
    "flagged_regions",
    "site_in_regions",
    "finding_fingerprint",
]


@dataclass
class Finding:
    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"  # or "warning"
    #: qualified name of the enclosing function ("" when module-level)
    function: str = ""
    #: what the finding is about (a shared location, a hook name...)
    subject: str = ""
    #: stable line-independent identity, for the baseline file
    fingerprint: str = ""

    def format(self) -> str:
        return "%s:%d:%d: %s [%s] %s" % (
            self.path,
            self.line,
            self.col,
            self.severity,
            self.rule,
            self.message,
        )


class Rule(NamedTuple):
    severity: str
    #: the pass that reports it: a key of ``_PASSES``
    pass_name: str
    summary: str


RULES: Dict[str, Rule] = {
    "PARSE": Rule("error", "det-sim", "the file does not parse"),
    "SUP001": Rule("warning", "det-sim", "a '# lint: ok' suppression with no reason"),
    "DET001": Rule("error", "det-sim", "call through the process-global random module"),
    "DET002": Rule("error", "det-sim", "wall-clock time or OS entropy"),
    "DET003": Rule("error", "det-sim", "iteration over a set in model code"),
    "DET004": Rule("error", "det-sim", "an RNG constructed without a seed"),
    "SIM001": Rule("error", "det-sim", "a process yields a non-float literal"),
    "SIM002": Rule("error", "det-sim", "a generator function called and discarded"),
    "SIM003": Rule("error", "det-sim", "real blocking I/O inside a process"),
    "SIM004": Rule("warning", "det-sim", "an event failed with no defuse() in sight"),
    "ATOM001": Rule("error", "atomicity", "read, unguarded yield, write: lost update"),
    "ATOM002": Rule("error", "atomicity", "write, unguarded yield, write: torn update"),
    "ATOM003": Rule("warning", "atomicity", "write, unguarded yield, read: stale re-read"),
    "ATOM004": Rule("warning", "atomicity", "snapshot loop yields while its container mutates"),
    "SEAM001": Rule("error", "seam", "policy hook or server proc_* of the wrong shape"),
    "SEAM002": Rule("error", "seam", "crash-recovery declaration drift or rpc.call bypass"),
    "SEAM003": Rule("error", "seam", "server overrides host lifecycle or resets crash state"),
    "SEAM004": Rule("error", "seam", "model code reaches past the probe seam"),
}


def normalize_path(path: str) -> str:
    """A checkout-independent form of ``path`` (from ``repro/`` down)."""
    norm = path.replace(os.sep, "/")
    marker = "/repro/"
    if marker in norm:
        return "repro/" + norm.rsplit(marker, 1)[1]
    return norm.rsplit("/", 1)[-1]


def finding_fingerprint(rule: str, path: str, function: str, subject: str) -> str:
    """Line-number-independent identity of a finding.

    Hashes (rule, normalized path, enclosing function, subject) so a
    baseline entry survives unrelated edits to the file.
    """
    blob = "|".join((rule, normalize_path(path), function, subject))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# -- the det-sim pass: per-module checkers ------------------------------------


class _Anchor:
    """A bare location for findings with no natural AST node."""

    def __init__(self, lineno: int, col_offset: int = 0):
        self.lineno = lineno
        self.col_offset = col_offset


def _parse_error(module: Module) -> Iterator[Tuple]:
    exc = module.syntax_error
    if exc is not None:
        at = _Anchor(exc.lineno or 0, exc.offset or 0)
        yield "PARSE", at, "could not parse: %s" % exc.msg


def _suppression_reasons(module: Module) -> Iterator[Tuple]:
    """A suppression is a reviewed decision; the reason is the review.
    Reasonless suppressions rot — nobody can tell a considered waiver
    from a silenced mistake."""
    for line, (rules, reason) in sorted(module.suppressions.items()):
        if reason:
            continue
        what = "ok" if rules is None else "ok=%s" % ",".join(sorted(rules))
        yield (
            "SUP001",
            _Anchor(line),
            "suppression '# lint: %s' has no justifying '— reason'" % what,
        )


_MODULE_CHECKS = (
    (_parse_error,) + DETERMINISM_CHECKS + SIM_CHECKS + (_suppression_reasons,)
)


def _det_sim(index: ProjectIndex) -> Iterator[Tuple]:
    for module in index.modules:
        for check in _MODULE_CHECKS:
            for rule, node, message in check(module):
                yield rule, module, node, message, module.qualname_at(node), ""


_PASSES = {"det-sim": _det_sim, "atomicity": atomicity.check, "seam": seam.check}


# -- the one emit path ---------------------------------------------------------


def raw_findings(index: ProjectIndex, pass_name: str) -> List[Finding]:
    """One pass's findings **before** suppression, in report order.

    Each pass runs at most once per index: the list is kept on
    ``index.raw`` for whoever asks next.
    """
    if pass_name not in index.raw:
        out = []
        for rule, module, node, message, function, subject in _PASSES[pass_name](index):
            out.append(
                Finding(
                    rule=rule,
                    path=module.path,
                    line=getattr(node, "lineno", 0),
                    col=getattr(node, "col_offset", 0),
                    message=message,
                    severity=RULES[rule].severity,
                    function=function,
                    subject=subject,
                    fingerprint=finding_fingerprint(rule, module.path, function, subject),
                )
            )
        out.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        index.raw[pass_name] = out
    return index.raw[pass_name]


def findings(index: ProjectIndex, pass_name: str) -> List[Finding]:
    """One pass's findings with ``# lint: ok`` suppressions applied."""
    return [
        f
        for f in raw_findings(index, pass_name)
        if not index.by_path[f.path].suppressed(f.rule, f.line)
    ]


def lint_paths(paths: Sequence[str], package_root: Optional[str] = None) -> List[Finding]:
    """The determinism and sim-discipline findings for files or trees."""
    return findings(index_paths(paths, package_root=package_root), "det-sim")


def lint_source(
    source: str, path: str = "<string>", package_root: Optional[str] = None
) -> List[Finding]:
    module = Module(path, source, package_root=package_root)
    return findings(ProjectIndex([module]), "det-sim")


# -- static <-> runtime cross-validation -----------------------------------------


def flagged_regions(index: ProjectIndex) -> List[Tuple[str, str, int, int]]:
    """Function regions with at least one *raw* ATOM finding.

    Suppressed and baselined findings still contribute a region: a
    suppression documents a reviewed hazard, it does not unmark the
    code — this is what the static-vs-runtime cross-validation
    contract checks SimTSan findings against.
    """
    flagged = dict.fromkeys(
        (f.path, f.function) for f in raw_findings(index, "atomicity")
    )
    return [index.functions[key].region() for key in flagged]


def site_in_regions(
    site: Tuple[str, int], regions: Sequence[Tuple[str, str, int, int]]
) -> bool:
    """Is a runtime (filename, lineno) inside any flagged region?"""
    filename, lineno = site
    real = os.path.realpath(filename)
    for path, _qualname, first, last in regions:
        if os.path.realpath(path) == real and first <= lineno <= last:
            return True
    return False
