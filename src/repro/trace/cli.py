"""CLI plumbing for traced runs.

``python -m repro trace andrew`` runs the two-client Andrew workload
with tracing on and writes, per protocol:

* ``trace-<stem>.json``  — Chrome trace_event JSON (open in Perfetto
  or ``chrome://tracing``);
* ``flame-<stem>.txt``   — span self-time aggregation (flamegraph);
* ``report-<stem>.json`` — machine-readable run report (span/event
  totals, per-track busy time, the metrics registry, trace digest).

:func:`trace_experiment` is the ``--trace DIR`` hook for the existing
experiment subcommands: it arms ``REPRO_TRACE`` so every simulator the
experiment builds records a trace, then exports them all.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

if TYPE_CHECKING:
    from .tracer import Tracer

__all__ = ["register", "export_tracer", "trace_experiment", "run_trace"]


def export_tracer(
    tracer: Tracer,
    out_dir: str,
    stem: str,
    meta: Optional[Dict] = None,
) -> Dict[str, object]:
    """Write the three artifacts for one tracer; returns their paths
    plus any Chrome-trace schema problems (should be none)."""
    from ..document import write_json
    from .export import (
        chrome_trace,
        flamegraph_report,
        run_report,
        validate_chrome_trace,
        write_chrome_trace,
    )

    os.makedirs(out_dir, exist_ok=True)
    trace_path = write_chrome_trace(
        tracer, os.path.join(out_dir, "trace-%s.json" % stem)
    )
    problems = validate_chrome_trace(chrome_trace(tracer))
    flame_path = os.path.join(out_dir, "flame-%s.txt" % stem)
    with open(flame_path, "w") as fh:
        fh.write(flamegraph_report(tracer))
    report_path = os.path.join(out_dir, "report-%s.json" % stem)
    write_json(run_report(tracer, metrics=tracer.sim.metrics, meta=meta), report_path)
    return {
        "trace": trace_path,
        "flame": flame_path,
        "report": report_path,
        "problems": problems,
    }


def trace_experiment(run_fn: Callable[[], object], out_dir: str, prefix: str = "sim"):
    """Run ``run_fn`` with ``REPRO_TRACE=1`` armed, then export every
    tracer (one per simulator the experiment built) into ``out_dir``.

    Returns ``(result, export_dicts)``.
    """
    from .tracer import Tracer

    result, tracers = Tracer.capture(run_fn)
    exports = []
    for i, tracer in enumerate(tracers):
        exports.append(export_tracer(tracer, out_dir, "%s%02d" % (prefix, i)))
    return result, exports


def _causal_chain_summary(tracer: Tracer) -> str:
    """One-line proof (or refutation) of the open->callback->writeback
    causal chain in an SNFS trace."""
    writebacks = tracer.find_spans("snfs.writeback")
    if not writebacks:
        return "no write-back spans in this trace"
    index = tracer.span_index()
    for wb in writebacks:
        ancestors = list(tracer.ancestors(wb, index))
        opener = next(
            (s for s in ancestors if s.name.startswith("rpc.call:") and
             s.name.endswith(".open") and s.track != wb.track),
            None,
        )
        if opener is not None:
            return (
                "causal chain intact: %s on %s is an ancestor of %s on %s "
                "(%d spans apart)"
                % (opener.name, opener.track, wb.name, wb.track, len(ancestors))
            )
    return "write-back spans exist but none is rooted in a remote open"


def run_trace(args) -> int:
    """Entry point for ``python -m repro trace <workload>``."""
    if args.workload != "andrew":
        raise SystemExit("unknown traced workload %r (try: andrew)" % args.workload)
    from ..document import write_json
    from ..experiments.traced import run_traced_andrew

    protocols: List[str] = (
        ["nfs", "snfs"] if args.protocol == "both" else [args.protocol]
    )
    status = 0
    for protocol in protocols:
        run = run_traced_andrew(
            protocol, seed=args.seed, drop_rate=args.drop_rate
        )
        stem = "andrew-%s-seed%d" % (protocol, args.seed)
        out = export_tracer(
            run.tracer,
            args.out,
            stem,
            meta={"workload": "andrew", "protocol": protocol, "seed": args.seed},
        )
        print("[%s] trace:  %s" % (protocol, out["trace"]))
        print("[%s] flame:  %s" % (protocol, out["flame"]))
        print("[%s] report: %s" % (protocol, out["report"]))
        if run.sim.obs is not None:
            from ..obs import OBS_INDENT
            from ..obs.cli import obs_from_traced_run

            obs_path = write_json(
                obs_from_traced_run(run, scenario="andrew-2client"),
                os.path.join(args.out, "obs-%s.json" % stem),
                indent=OBS_INDENT,
            )
            print("[%s] obs:    %s" % (protocol, obs_path))
        if out["problems"]:
            status = 1
            for problem in out["problems"][:10]:
                print("[%s] SCHEMA PROBLEM: %s" % (protocol, problem))
        if protocol == "snfs":
            print("[snfs] %s" % _causal_chain_summary(run.tracer))
    return status


def register(sub) -> None:
    p_tr = sub.add_parser(
        "trace", help="run a workload traced; export Chrome trace/flamegraph/report"
    )
    p_tr.add_argument("workload", help="workload to trace (andrew)")
    p_tr.add_argument(
        "--protocol",
        choices=["nfs", "snfs", "both"],
        default="both",
        help="protocol(s) to run (default: both)",
    )
    p_tr.add_argument("--seed", type=int, default=1989, help="run seed")
    p_tr.add_argument(
        "--drop-rate", type=float, default=0.0, help="network packet loss rate"
    )
    p_tr.add_argument(
        "--out", metavar="DIR", default="traces", help="output directory"
    )
    p_tr.set_defaults(func=run_trace)
