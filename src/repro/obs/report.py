"""The ``repro-obs/1`` run-report artifact: build, validate, render, diff.

An obs document is the schema-versioned JSON record of one run's latency
attribution: the phase-budget table per RPC procedure, queueing
accounting per resource kind, top-K hot files/clients, utilization
timelines, and per-op streaming-quantile digests.  Everything in it is
simulated-time only and deterministically ordered, so two same-seed runs
produce **byte-identical** documents — which is what lets
``python -m repro report RUN.json --against BASE.json`` gate regressions
with a plain threshold compare (and prove "no regression" exactly when
the digests match).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Tuple

from ..document import NUMBER, MapOf, Maybe, check
from .collector import PHASES, ObsCollector
from .digest import QuantileDigest

__all__ = [
    "OBS_SCHEMA",
    "OBS_INDENT",
    "obs_document",
    "merge_obs_documents",
    "validate_obs_document",
    "render_report",
    "diff_reports",
    "utilization_series_from_tracer",
    "DEFAULT_THRESHOLDS",
]

OBS_SCHEMA = "repro-obs/1"

#: the ``indent`` obs documents are written with (the committed
#: ``OBS_andrew-*.json`` baselines are compared byte for byte)
OBS_INDENT = 1

#: per-metric relative regression thresholds (fraction of the baseline);
#: ``count`` is exact because same-seed runs must issue identical calls
DEFAULT_THRESHOLDS: Dict[str, float] = {
    "count": 0.0,
    "e2e_s": 0.1,
    "p50_s": 0.1,
    "p95_s": 0.1,
    "p99_s": 0.1,
    "phase": 0.1,
    "wait_s": 0.1,
}

_R = 9  # rounding digits for exported seconds


def _r(x: float) -> float:
    return round(x, _R)


def utilization_series_from_tracer(tracer, track: str, interval: float = 5.0):
    """Synthesize a utilization :class:`~repro.metrics.TimeSeries` for a
    resource ``track`` from its closed busy spans (``cpu.busy``,
    ``disk.read``/``disk.write``) after the run.

    A live :class:`UtilizationSampler` is a simulation *process* — arming
    one changes the schedule and the golden trace digests.  Post-hoc
    synthesis from the tracer's span log gives the same per-interval
    fractions with zero effect on the run.
    """
    from ..metrics import TimeSeries

    spans = [
        s for s in tracer.spans
        if s.track == track and s.t1 is not None and s.t1 > s.t0
    ]
    series = TimeSeries(track)
    if not spans:
        return series
    end = max(s.t1 for s in spans)
    n_bins = int(end / interval) + 1
    busy = [0.0] * n_bins
    for s in spans:
        lo, hi = s.t0, s.t1
        first = int(lo / interval)
        last = min(int(hi / interval), n_bins - 1)
        for b in range(first, last + 1):
            b0, b1 = b * interval, (b + 1) * interval
            overlap = min(hi, b1) - max(lo, b0)
            if overlap > 0:
                busy[b] += overlap
    for b, amount in enumerate(busy):
        series.append((b + 1) * interval, min(1.0, amount / interval))
    return series


# -- document construction ----------------------------------------------------


def _op_entry(count: int, e2e_s: float, phases: Dict[str, float],
              digest: QuantileDigest) -> Dict[str, Any]:
    return {
        "count": count,
        "e2e_s": _r(e2e_s),
        "phases": {p: _r(phases[p]) for p in PHASES},
        "p50_s": _r(digest.quantile(0.50)),
        "p95_s": _r(digest.quantile(0.95)),
        "p99_s": _r(digest.quantile(0.99)),
        "digest": digest.state_digest(),
        "quantiles": digest.state(),
    }


def _top_k(table: Dict[str, Dict[str, int]], by: Tuple[str, ...], k: int) -> List[Dict]:
    def weight(item):
        key, cell = item
        return (-sum(cell.get(f, 0) for f in by), key)

    out = []
    for key, cell in sorted(table.items(), key=weight)[:k]:
        entry = {"key": key}
        entry.update(cell)
        out.append(entry)
    return out


def obs_document(
    collector: ObsCollector,
    meta: Optional[Dict[str, Any]] = None,
    metrics=None,
    utilization: Optional[Dict[str, Any]] = None,
    top_k: int = 10,
) -> Dict[str, Any]:
    """Build a ``repro-obs/1`` document from a collector.

    ``metrics`` (a :class:`MetricsRegistry`) contributes the
    ``sampler.clamped`` accounting; ``utilization`` maps track name to a
    :class:`TimeSeries` (see :func:`utilization_series_from_tracer`).
    """
    phases_total = dict.fromkeys(PHASES, 0.0)
    for op in collector.ops.values():
        for p in PHASES:
            phases_total[p] += op["phases"][p]

    clamps: Dict[str, float] = {}
    if metrics is not None and "sampler.clamped" in metrics.names():
        clamps = metrics.counter("sampler.clamped").as_dict()

    util_out: Dict[str, Any] = {}
    for track, series in sorted((utilization or {}).items()):
        util_out[track] = {
            "points": [[_r(t), round(v, 6)] for t, v in series.points],
            "time_mean": round(series.time_mean(), 6),
            "max": round(series.maximum(), 6),
        }

    return _assemble(
        meta or {},
        phases_total,
        {
            name: _op_entry(op["count"], op["e2e_s"], op["phases"], op["digest"])
            for name, op in sorted(collector.ops.items())
        },
        collector.failed, collector.waits, collector.hot_files,
        collector.hot_clients, collector.servers, clamps, util_out, top_k,
    )


def _assemble(meta, phases, ops, failed, waits, hot_files, hot_clients,
              servers, clamps, utilization, top_k: int) -> Dict[str, Any]:
    """The document over already-aggregated tables — one run's
    collector or several documents' sums: canonical order and rounding,
    the top-K cuts, and the digest."""
    doc: Dict[str, Any] = {
        "schema": OBS_SCHEMA,
        "meta": dict(sorted(meta.items())),
        "phases": {p: _r(phases[p]) for p in PHASES},
        "ops": ops,
        "failed_calls": dict(sorted(failed.items())),
        "queueing": {
            kind: {"waits": int(cell["waits"]), "wait_s": _r(cell["wait_s"])}
            for kind, cell in sorted(waits.items())
        },
        "hot_files": _top_k(hot_files, ("bytes_read", "bytes_written"), top_k),
        "hot_clients": [
            {"key": key, "requests": n}
            for key, n in sorted(hot_clients.items(), key=lambda kv: (-kv[1], kv[0]))[
                :top_k
            ]
        ],
        "servers": {
            addr: {
                "count": int(cell["count"]),
                "e2e_s": _r(cell["e2e_s"]),
                "server_queue": _r(cell["server_queue"]),
                "server_cpu": _r(cell["server_cpu"]),
                "disk": _r(cell["disk"]),
                "server_wall": _r(cell["server_wall"]),
            }
            for addr, cell in sorted(servers.items())
        },
        "sampler_clamps": clamps,
        "utilization": utilization,
    }
    doc["digest"] = _document_digest(doc)
    return doc


def _document_digest(doc: Dict[str, Any]) -> str:
    body = {k: v for k, v in doc.items() if k != "digest"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- merging per-cell documents -----------------------------------------------


def _merged_op(entries: List[Dict[str, Any]]) -> Dict[str, Any]:
    merged = QuantileDigest.from_state(entries[0]["quantiles"])
    for entry in entries[1:]:
        merged.merge(QuantileDigest.from_state(entry["quantiles"]))
    return _op_entry(
        sum(e["count"] for e in entries),
        sum(e["e2e_s"] for e in entries),
        {p: sum(e["phases"].get(p, 0.0) for e in entries) for p in PHASES},
        merged,
    )


def _sum_tables(
    tables: List[Dict[str, Dict[str, Any]]],
) -> Dict[str, Dict[str, Any]]:
    out: Dict[str, Dict[str, Any]] = {}
    for table in tables:
        for key, cell in table.items():
            acc = out.setdefault(key, {})
            for field, value in cell.items():
                acc[field] = acc.get(field, 0) + value
    return out


def merge_obs_documents(
    docs: List[Dict[str, Any]], top_k: int = 10
) -> Dict[str, Any]:
    """Combine per-cell ``repro-obs/1`` documents into one document.

    This is how a parallel sweep's obs outputs — one document per pool
    cell — roll up into a single report: counts, latency sums, and
    phase budgets add; the per-op streaming-quantile digests merge
    exactly (same fixed breakpoints, integer counts), so the combined
    quantiles are what one collector observing every cell would have
    produced.  Deterministic given deterministic inputs: merging the
    same documents in the same order always yields the same digest.

    Utilization timelines describe disjoint simulations and are kept
    side by side, namespaced by each document's scenario.
    """
    if not docs:
        raise ValueError("nothing to merge")
    for i, doc in enumerate(docs):
        if doc.get("schema") != OBS_SCHEMA:
            raise ValueError(
                "document %d has schema %r, expected %r"
                % (i, doc.get("schema"), OBS_SCHEMA)
            )
    if len(docs) == 1:
        return json.loads(json.dumps(docs[0]))

    op_names = sorted({name for doc in docs for name in doc["ops"]})
    ops = {
        name: _merged_op([doc["ops"][name] for doc in docs if name in doc["ops"]])
        for name in op_names
    }
    hot_files = _sum_tables(
        [
            {cell["key"]: {f: v for f, v in cell.items() if f != "key"}
             for cell in doc.get("hot_files", [])}
            for doc in docs
        ]
    )
    hot_clients: Dict[str, int] = {}
    failed: Dict[str, int] = {}
    clamps: Dict[str, float] = {}
    for doc in docs:
        for cell in doc.get("hot_clients", []):
            hot_clients[cell["key"]] = hot_clients.get(cell["key"], 0) + cell["requests"]
        for key, n in doc.get("failed_calls", {}).items():
            failed[key] = failed.get(key, 0) + n
        for key, n in (doc.get("sampler_clamps") or {}).items():
            clamps[key] = clamps.get(key, 0) + n

    utilization: Dict[str, Any] = {}
    for i, doc in enumerate(docs):
        prefix = str(doc.get("meta", {}).get("scenario") or "cell%d" % i)
        for track, cell in sorted((doc.get("utilization") or {}).items()):
            utilization["%s/%s" % (prefix, track)] = cell

    merged_meta: Dict[str, Any] = {
        "merged_cells": [
            str(doc.get("meta", {}).get("scenario") or "cell%d" % i)
            for i, doc in enumerate(docs)
        ],
    }
    for key in ("protocol", "seed"):
        values = {json.dumps(doc.get("meta", {}).get(key)) for doc in docs}
        if len(values) == 1 and docs[0].get("meta", {}).get(key) is not None:
            merged_meta[key] = docs[0]["meta"][key]

    return _assemble(
        merged_meta,
        {p: sum(op["phases"][p] for op in ops.values()) for p in PHASES},
        ops, failed,
        _sum_tables([doc.get("queueing", {}) for doc in docs]),
        hot_files, hot_clients,
        _sum_tables([doc.get("servers") or {} for doc in docs]),
        clamps, utilization, top_k,
    )


# -- validation ---------------------------------------------------------------


_OP_SPEC = {
    "count": int,
    "e2e_s": NUMBER,
    "phases": {p: NUMBER for p in PHASES},
    "p50_s": NUMBER,
    "p95_s": NUMBER,
    "p99_s": NUMBER,
    "digest": str,
    "quantiles": {
        "breaks": (str, list), "cells": MapOf(int), "count": int,
        "total_s": NUMBER, "min_s": Maybe(NUMBER), "max_s": Maybe(NUMBER),
    },
}

_SPEC = {
    "schema": {OBS_SCHEMA},
    "meta": dict,
    "phases": {p: NUMBER for p in PHASES},
    "ops": MapOf(_OP_SPEC),
    "queueing": MapOf({"waits": int, "wait_s": NUMBER}),
    "digest": str,
    # what the renderer reads of the optional sections
    "failed_calls": Maybe(MapOf(int)),
    "hot_files": Maybe(
        [dict.fromkeys(("reads", "writes", "bytes_read", "bytes_written"), int)]
    ),
    "hot_clients": Maybe([{"requests": int}]),
    "sampler_clamps": Maybe(MapOf(NUMBER)),
    "utilization": Maybe(MapOf({"time_mean": NUMBER, "max": NUMBER})),
    # optional (documents predating the sharded-namespace layer omit
    # it), but present entries must be complete
    "servers": Maybe(
        MapOf(
            {
                "count": int, "e2e_s": NUMBER, "server_queue": NUMBER,
                "server_cpu": NUMBER, "disk": NUMBER, "server_wall": NUMBER,
            }
        )
    ),
}


def validate_obs_document(doc) -> List[str]:
    """Structural validation; returns a list of problems (empty = ok)."""
    problems = check(doc, _SPEC)
    if problems:
        return problems
    if doc["digest"] != _document_digest(doc):
        problems.append("document digest does not match contents")
    for name, op in doc["ops"].items():
        total = sum(op["phases"][p] for p in PHASES)
        e2e = op["e2e_s"]
        if abs(total - e2e) > max(1e-6, abs(e2e) * 0.01):
            problems.append("op %s: phase sum %.9f != e2e %.9f" % (name, total, e2e))
        try:
            restored = QuantileDigest.from_state(op["quantiles"]).state_digest()
        except (TypeError, ValueError, IndexError):
            restored = None  # not a state QuantileDigest.state() wrote
        if restored != op["digest"]:
            problems.append("op %s: quantile state does not match digest" % name)
    return problems


# -- rendering ----------------------------------------------------------------

_PHASE_HEADS = {
    "client_cpu": "clnt-cpu",
    "net": "net",
    "retrans_wait": "retrans",
    "server_queue": "srv-queue",
    "server_cpu": "srv-cpu",
    "disk": "disk",
    "server_other": "srv-other",
}


def render_report(doc: Dict[str, Any], top: int = 10) -> str:
    """Render the bottleneck-attribution view of one obs document."""
    lines: List[str] = []
    meta = doc.get("meta", {})
    head = " ".join("%s=%s" % kv for kv in sorted(meta.items()))
    lines.append("obs report (%s)%s" % (doc["schema"], (" " + head) if head else ""))
    lines.append("document digest %s" % doc["digest"][:16])
    lines.append("")

    # phase-budget table: per op, share of latency per phase
    ops = sorted(doc["ops"].items(), key=lambda kv: (-kv[1]["e2e_s"], kv[0]))
    name_w = max([len("op")] + [len(name) for name, _ in ops])
    header = (
        "%-*s %7s %10s" % (name_w, "op", "count", "e2e(s)")
        + "".join(" %9s" % _PHASE_HEADS[p] for p in PHASES)
        + "   %9s %9s" % ("p95(ms)", "p99(ms)")
    )
    def _share(part: float, whole: float) -> float:
        share = 100.0 * part / whole if whole else 0.0
        return 0.0 if abs(share) < 0.05 else share  # avoid "-0.0%"

    lines.append(header)
    lines.append("-" * len(header))
    for name, op in ops:
        e2e = op["e2e_s"]
        shares = "".join(
            " %8.1f%%" % _share(op["phases"][p], e2e) for p in PHASES
        )
        lines.append(
            "%-*s %7d %10.4f%s   %9.3f %9.3f"
            % (name_w, name, op["count"], e2e, shares,
               op["p95_s"] * 1e3, op["p99_s"] * 1e3)
        )
    totals = doc["phases"]
    grand = sum(totals[p] for p in PHASES)
    shares = "".join(" %8.1f%%" % _share(totals[p], grand) for p in PHASES)
    lines.append("-" * len(header))
    lines.append(
        "%-*s %7s %10.4f%s" % (name_w, "all ops", "", grand, shares)
    )

    if doc.get("queueing"):
        lines.append("")
        lines.append("queueing (request -> grant):")
        for kind, cell in sorted(doc["queueing"].items()):
            lines.append(
                "  %-8s %6d waits, %10.4f s total" % (kind, cell["waits"], cell["wait_s"])
            )
    if doc.get("hot_files"):
        lines.append("")
        lines.append("hot files (top %d by bytes):" % top)
        for cell in doc["hot_files"][:top]:
            lines.append(
                "  %-16s %5d r / %5d w, %8d B read, %8d B written"
                % (cell["key"], cell["reads"], cell["writes"],
                   cell["bytes_read"], cell["bytes_written"])
            )
    if doc.get("hot_clients"):
        lines.append("")
        lines.append("hot clients (executed requests):")
        for cell in doc["hot_clients"][:top]:
            lines.append("  %-16s %6d" % (cell["key"], cell["requests"]))
    if doc.get("servers"):
        lines.append("")
        lines.append("per-server attribution:")
        lines.append(
            "  %-16s %7s %10s %10s %10s %10s"
            % ("server", "calls", "e2e(s)", "srv-cpu", "srv-queue", "disk")
        )
        for addr, cell in sorted(doc["servers"].items()):
            lines.append(
                "  %-16s %7d %10.4f %10.4f %10.4f %10.4f"
                % (addr, cell["count"], cell["e2e_s"], cell["server_cpu"],
                   cell["server_queue"], cell["disk"])
            )
    if doc.get("utilization"):
        lines.append("")
        lines.append("utilization (time-weighted mean / max):")
        for track, cell in sorted(doc["utilization"].items()):
            lines.append(
                "  %-16s %5.1f%% / %5.1f%%"
                % (track, 100 * cell["time_mean"], 100 * cell["max"])
            )
    clamps = doc.get("sampler_clamps") or {}
    total_clamps = sum(clamps.values())
    if total_clamps:
        lines.append("")
        lines.append(
            "WARNING: %d utilization sample(s) clamped to [0,1] — "
            "possible accounting bug:" % total_clamps
        )
        for key, n in sorted(clamps.items()):
            lines.append("  %-24s %6d" % (key or "(unlabeled)", int(n)))
    if doc.get("failed_calls"):
        lines.append("")
        lines.append("failed calls (timeout / remote error):")
        for name, n in sorted(doc["failed_calls"].items()):
            lines.append("  %-24s %6d" % (name, n))
    return "\n".join(lines)


# -- cross-run diff -----------------------------------------------------------


def diff_reports(
    run: Dict[str, Any],
    base: Dict[str, Any],
    thresholds: Optional[Dict[str, float]] = None,
) -> List[str]:
    """Compare ``run`` against ``base``; returns regression strings.

    A regression is a metric that *worsened* beyond its relative
    threshold (improvements never flag).  Byte-identical documents — or
    per-op byte-identical quantile digests — short-circuit to zero
    regressions, which is the determinism guarantee two same-seed runs
    must meet.
    """
    tol = dict(DEFAULT_THRESHOLDS)
    tol.update(thresholds or {})
    out: List[str] = []
    if run.get("digest") == base.get("digest"):
        return out

    def worse(metric: str, new: float, old: float) -> bool:
        limit = tol.get(metric, tol["phase"])
        floor = max(abs(old) * limit, 1e-9)
        return new - old > floor

    run_ops = run.get("ops", {})
    base_ops = base.get("ops", {})
    for name in sorted(base_ops):
        if name not in run_ops:
            out.append("op %s: present in baseline, missing in run" % name)
            continue
        new, old = run_ops[name], base_ops[name]
        if new.get("digest") == old.get("digest") and new.get("count") == old.get("count"):
            continue  # identical latency distribution: nothing to flag
        if abs(new["count"] - old["count"]) > old["count"] * tol["count"]:
            out.append(
                "op %s: count %d -> %d (threshold %.0f%%)"
                % (name, old["count"], new["count"], tol["count"] * 100)
            )
        for metric in ("e2e_s", "p50_s", "p95_s", "p99_s"):
            if worse(metric, new.get(metric, 0.0), old.get(metric, 0.0)):
                out.append(
                    "op %s: %s %.6f -> %.6f (threshold %.0f%%)"
                    % (name, metric, old[metric], new[metric], tol[metric] * 100)
                )
        for p in PHASES:
            if worse("phase", new["phases"].get(p, 0.0), old["phases"].get(p, 0.0)):
                out.append(
                    "op %s: phase %s %.6f -> %.6f (threshold %.0f%%)"
                    % (name, p, old["phases"][p], new["phases"][p],
                       tol["phase"] * 100)
                )
    for name in sorted(run_ops):
        if name not in base_ops:
            out.append("op %s: new in run (not in baseline)" % name)
    for kind in sorted(base.get("queueing", {})):
        old = base["queueing"][kind]
        new = run.get("queueing", {}).get(kind)
        if new is None:
            continue
        if worse("wait_s", new.get("wait_s", 0.0), old.get("wait_s", 0.0)):
            out.append(
                "queueing %s: wait_s %.6f -> %.6f (threshold %.0f%%)"
                % (kind, old["wait_s"], new["wait_s"], tol["wait_s"] * 100)
            )
    new_clamps = sum((run.get("sampler_clamps") or {}).values())
    old_clamps = sum((base.get("sampler_clamps") or {}).values())
    if new_clamps > old_clamps:
        out.append(
            "sampler clamps: %d -> %d (over-unity utilization deltas)"
            % (old_clamps, new_clamps)
        )
    return out
