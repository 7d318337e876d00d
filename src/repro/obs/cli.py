"""CLI plumbing for obs artifacts and ``python -m repro report``.

``repro report RUN.json`` renders a ``repro-obs/1`` document's
bottleneck-attribution table; ``--against BASE.json`` additionally
diffs the run against a baseline with per-metric regression
thresholds, exiting non-zero on any regression (the CI gate).

:func:`obs_from_traced_run` is the bridge ``python -m repro trace``
uses: one traced run in, one schema-valid obs document out,
utilization timelines synthesized post-hoc from the trace (a live
sampler would perturb the schedule and the golden digests).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = ["register", "obs_from_traced_run", "run_report"]


def obs_from_traced_run(run, scenario: str, interval: float = 5.0) -> Dict[str, Any]:
    """Build an obs document from a :class:`TracedRun`-shaped result
    (needs ``.sim.obs``, ``.tracer``, ``.metrics``, ``.protocol``,
    ``.seed``)."""
    from .report import obs_document, utilization_series_from_tracer

    if run.sim.obs is None:
        raise ValueError("run has no obs collector (was obs enabled?)")
    utilization = {}
    if run.tracer is not None:
        for track in ("cpu", "disk"):
            series = utilization_series_from_tracer(run.tracer, track, interval)
            if len(series):
                utilization["server-" + track] = series
    return obs_document(
        run.sim.obs,
        meta={"scenario": scenario, "protocol": run.protocol, "seed": run.seed},
        metrics=run.metrics,
        utilization=utilization,
    )


def _invalid(doc, heading: str) -> bool:
    """Print ``heading`` and the first problems if ``doc`` is not a
    valid obs document."""
    from .report import validate_obs_document

    problems = validate_obs_document(doc)
    if problems:
        print(heading)
        for problem in problems[:20]:
            print("  " + problem)
    return bool(problems)


def run_report(args) -> int:
    """Entry point for ``python -m repro report``.

    ``args.run`` names one or several documents (a parallel sweep's
    per-cell outputs); several are merged into one combined report
    before rendering and any ``--against`` comparison."""
    from ..document import read_json
    from .report import diff_reports, merge_obs_documents, render_report

    docs = []
    for path in args.run:
        docs.append(read_json(path))
        if _invalid(docs[-1], "%s: INVALID repro-obs document:" % path):
            return 1
    doc = docs[0]
    if len(docs) > 1:
        doc = merge_obs_documents(docs)
        if _invalid(doc, "merged document is INVALID:"):
            return 1
        print("merged %d per-cell documents" % len(docs))
    print(render_report(doc, top=args.top))
    if args.against is None:
        return 0
    base = read_json(args.against)
    if _invalid(base, "%s: INVALID baseline document:" % args.against):
        return 1
    thresholds: Optional[Dict[str, float]] = None
    if args.threshold is not None:
        thresholds = {
            k: args.threshold
            for k in ("e2e_s", "p50_s", "p95_s", "p99_s", "phase", "wait_s")
        }
    regressions = diff_reports(doc, base, thresholds)
    print()
    if doc.get("digest") == base.get("digest"):
        print("runs are byte-identical (digest %s)" % doc["digest"][:16])
    if not regressions:
        print("no regressions against %s" % args.against)
        return 0
    print("%d regression(s) against %s:" % (len(regressions), args.against))
    for line in regressions:
        print("  " + line)
    return 1


def register(sub) -> None:
    p_report = sub.add_parser(
        "report",
        help="render a repro-obs/1 latency-attribution report; "
        "--against diffs two runs with regression thresholds",
    )
    p_report.add_argument(
        "run",
        nargs="+",
        help="obs document(s) (RUN.json ...); several documents are "
        "merged into one combined report (per-cell sweep outputs)",
    )
    p_report.add_argument(
        "--against",
        metavar="BASE",
        help="baseline obs document to diff against; non-zero exit on regression",
    )
    p_report.add_argument(
        "--threshold",
        type=float,
        help="override every relative regression threshold (default: per-metric)",
    )
    p_report.add_argument(
        "--top", type=int, default=10, help="rows in the hot-file/client tables"
    )
    p_report.set_defaults(func=run_report)
