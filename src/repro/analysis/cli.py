"""``python -m repro lint``: run the static passes over the tree.

Runs the determinism and sim-discipline rules over ``src/repro`` (or
explicit paths), then — with ``--atomicity``/``--seam`` — the
interprocedural atomicity and policy-seam passes, then the Table 4-1
conformance pass against the live
:class:`~repro.snfs.state_table.StateTable`.  Exit status 0 means
clean; 1 means errors (or, with ``--strict``, any finding at all).

Reviewed atomicity/seam findings live in a committed baseline file
(``lint-baseline.json`` at the repository root, auto-discovered;
``--baseline PATH`` overrides, ``--no-baseline`` disables).  With
``--json PATH`` the run writes a ``repro-lint/2`` document (see
:mod:`~repro.analysis.report`).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

__all__ = ["register", "run_lint", "default_target", "discover_baseline"]


def default_target() -> str:
    """The repro package directory this module was imported from."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def discover_baseline() -> Optional[str]:
    """The committed ``lint-baseline.json``, if the checkout has one.

    Anchored at the package location (``<root>/src/repro`` →
    ``<root>/lint-baseline.json``) so the lint runs clean from any
    working directory.
    """
    root = os.path.dirname(os.path.dirname(default_target()))
    candidate = os.path.join(root, "lint-baseline.json")
    return candidate if os.path.isfile(candidate) else None


def run_lint(
    paths: Optional[Sequence[str]] = None,
    strict: bool = False,
    conformance: bool = True,
    atomicity: bool = False,
    seam: bool = False,
    baseline: Optional[str] = None,
    no_baseline: bool = False,
    json_out: Optional[str] = None,
    out=None,
) -> int:
    from ..document import write_json
    from .baseline import apply_baseline, load_baseline
    from .callgraph import index_paths
    from .linter import RULES, Finding, findings, normalize_path
    from .report import lint_document
    from .table41 import conformance_findings

    if not paths:
        paths = [default_target()]
        package_root = paths[0]
    else:
        paths = list(paths)
        package_root = None

    index = index_paths(paths, package_root=package_root)
    passes = ["det-sim"]
    if atomicity:
        passes.append("atomicity")
    if seam:
        passes.append("seam")
    shallow = findings(index, "det-sim")
    deep: List[Finding] = [f for name in passes[1:] for f in findings(index, name)]

    baseline_path = baseline
    if baseline_path is None and not no_baseline and (atomicity or seam):
        baseline_path = discover_baseline()
    baselined: List[Finding] = []
    stale: List[Dict] = []
    if baseline_path is not None:
        deep, baselined, unmatched = apply_baseline(deep, load_baseline(baseline_path))
        # an entry this run could not have matched is not stale: its
        # rule's pass must have run and its file must have been linted
        linted = {normalize_path(module.path) for module in index.modules}
        stale = [
            entry
            for entry in unmatched
            if RULES[entry["rule"]].pass_name in passes
            and ("path" not in entry or entry["path"] in linted)
        ]

    active = sorted(
        shallow + deep, key=lambda f: (f.path, f.line, f.col, f.rule)
    )
    for finding in active:
        print(finding.format(), file=out)
    for entry in stale:
        print(
            "%s: warning [BASELINE] stale entry %s (%s in %s): the "
            "finding it accepted no longer exists — remove it"
            % (
                entry.get("path", "lint-baseline.json"),
                entry.get("fingerprint", "?"),
                entry.get("rule", "?"),
                entry.get("function", "?"),
            ),
            file=out,
        )

    conformance_diffs: List[str] = conformance_findings() if conformance else []
    for diff in conformance_diffs:
        print("state_table: error [TBL41] %s" % diff, file=out)

    errors = sum(1 for f in active if f.severity == "error") + len(conformance_diffs)
    warnings = sum(1 for f in active if f.severity == "warning") + len(stale)
    print(
        "lint: %d error(s), %d warning(s), %d conformance diff(s), "
        "%d baselined" % (errors, warnings, len(conformance_diffs), len(baselined)),
        file=out,
    )

    if json_out:
        doc = lint_document(
            paths=paths,
            passes=passes + (["conformance"] if conformance else []),
            strict=strict,
            active=active,
            baselined=baselined,
            stale_baseline=stale,
            conformance_diffs=conformance_diffs,
            baseline_path=baseline_path,
        )
        write_json(doc, json_out, sort_keys=False)
        print("wrote %s" % json_out, file=out)

    if errors:
        return 1
    if strict and warnings:
        return 1
    return 0


def register(sub) -> None:
    p_lint = sub.add_parser(
        "lint", help="determinism/sim-discipline lint + Table 4-1 conformance"
    )
    p_lint.add_argument(
        "paths", nargs="*", help="files or directories (default: the repro package)"
    )
    p_lint.add_argument(
        "--strict", action="store_true", help="fail on warnings too"
    )
    p_lint.add_argument(
        "--no-conformance",
        dest="conformance",
        action="store_false",
        help="skip the Table 4-1 conformance pass",
    )
    p_lint.add_argument(
        "--atomicity",
        action="store_true",
        help="run the interprocedural atomicity pass (ATOM001-ATOM004)",
    )
    p_lint.add_argument(
        "--seam",
        action="store_true",
        help="run the policy/server seam contract pass (SEAM001-SEAM004)",
    )
    p_lint.add_argument(
        "--baseline",
        metavar="PATH",
        help="accepted-findings baseline (default: the committed "
        "lint-baseline.json, auto-discovered)",
    )
    p_lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file",
    )
    p_lint.add_argument(
        "--json",
        dest="json_out",
        metavar="PATH",
        help="also write the repro-lint/2 JSON report to PATH",
    )
    # every dest above is a run_lint parameter
    p_lint.set_defaults(
        func=lambda args: run_lint(
            **{k: v for k, v in vars(args).items() if k not in ("command", "func")}
        )
    )
