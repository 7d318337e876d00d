"""The nemesis conformance matrix: workloads × fault plans × protocols.

Every cell builds a two-client :class:`ResilienceBed` for one
protocol, installs one named fault plan, drives one workload, and has
the :class:`ConsistencyOracle` pass judgement.  The verdicts are
scored against each protocol's *documented* guarantees:

* ``pass`` — zero oracle violations;
* ``expected`` — violations occurred, but every kind is documented as
  allowed for this protocol under this plan (NFS's attribute-cache
  staleness window always; RFS/Kent close-to-open after a server
  crash, since their tables vanish with no recovery protocol);
* ``fail`` — an undocumented violation, a lost acknowledged write
  (never allowed, for any protocol), a state-table mismatch, or an
  exception escaping the run.

Determinism: every cell derives its own seed from the matrix seed and
the cell id (``crc32(cell_id) ^ seed``), so any cell reproduces
standalone — a failing cell's record carries the exact
``python -m repro nemesis --only CELL`` command that replays it.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..experiments.bed import PROTOCOL_REGISTRY
from ..experiments.resilience import ResilienceBed, sharing_client_config
from ..faults import FaultPlan
from ..metrics import format_table
from .plans import NEMESIS_PLANS, plan_events
from .workloads import NEMESIS_WORKLOADS, run_workload

__all__ = [
    "NEMESIS_SCHEMA",
    "NemesisCell",
    "ALL_PROTOCOLS",
    "cell_id",
    "cell_seed",
    "run_cell",
    "run_matrix",
    "nemesis_obs_artifact",
    "nemesis_document",
    "validate_nemesis_document",
    "render_matrix",
]

NEMESIS_SCHEMA = "repro-nemesis/1"

ALL_PROTOCOLS = tuple(PROTOCOL_REGISTRY)

#: violation kinds documented as allowed per protocol, always
_ALLOWED_ALWAYS: Dict[str, frozenset] = {
    # the era-accurate attribute-cache open check admits a staleness
    # window under sequential sharing — the paper's core complaint
    "nfs": frozenset({"close-to-open"}),
}

#: additionally allowed when the plan crashes the server: these
#: protocols lose their consistency tables with no recovery protocol
_ALLOWED_UNDER_CRASH: Dict[str, frozenset] = {
    "rfs": frozenset({"close-to-open"}),
    "kent": frozenset({"close-to-open"}),
}


@dataclass
class NemesisCell:
    """One scored matrix cell."""

    id: str
    protocol: str
    workload: str
    plan: str
    seed: int
    verdict: str  # "pass" | "expected" | "fail"
    elapsed: float = 0.0
    violations: Dict[str, int] = field(default_factory=dict)
    allowed: List[str] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)
    fault_events: int = 0
    recovery_rejections: float = 0.0
    error: Optional[str] = None

    @property
    def repro_command(self) -> str:
        return "python -m repro nemesis --seed SEED --only %s" % self.id

    def as_dict(self) -> Dict:
        return {
            "id": self.id,
            "protocol": self.protocol,
            "workload": self.workload,
            "plan": self.plan,
            "seed": self.seed,
            "verdict": self.verdict,
            "elapsed": round(self.elapsed, 6),
            "violations": dict(sorted(self.violations.items())),
            "allowed": sorted(self.allowed),
            "stats": dict(sorted(self.stats.items())),
            "fault_events": self.fault_events,
            "recovery_rejections": self.recovery_rejections,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "NemesisCell":
        """Rebuild a cell from its :meth:`as_dict` form (the shape a
        pool worker ships back); round-trips exactly."""
        return cls(
            id=data["id"], protocol=data["protocol"],
            workload=data["workload"], plan=data["plan"],
            seed=data["seed"], verdict=data["verdict"],
            elapsed=data["elapsed"], violations=dict(data["violations"]),
            allowed=list(data["allowed"]), stats=dict(data["stats"]),
            fault_events=data["fault_events"],
            recovery_rejections=data["recovery_rejections"],
            error=data.get("error"),
        )


def cell_id(protocol: str, workload: str, plan: str) -> str:
    return "%s/%s/%s" % (protocol, workload, plan)


def cell_seed(cid: str, seed: int) -> int:
    """Deterministic per-cell seed: stable across runs and processes
    (crc32, not ``hash()``, which is salted per interpreter)."""
    return (zlib.crc32(cid.encode()) ^ seed) & 0x7FFFFFFF


def _allowed_kinds(protocol: str, plan: str) -> frozenset:
    allowed = _ALLOWED_ALWAYS.get(protocol, frozenset())
    if NEMESIS_PLANS[plan].crashes_server:
        allowed = allowed | _ALLOWED_UNDER_CRASH.get(protocol, frozenset())
    return allowed


def run_cell(protocol: str, workload: str, plan: str, seed: int) -> NemesisCell:
    """Build, fault, drive, and judge one matrix cell."""
    cid = cell_id(protocol, workload, plan)
    cseed = cell_seed(cid, seed)
    allowed = _allowed_kinds(protocol, plan)
    cell = NemesisCell(
        id=cid, protocol=protocol, workload=workload, plan=plan,
        seed=cseed, verdict="fail", allowed=sorted(allowed),
    )

    try:
        # NFS mounts with the era-accurate configuration whose staleness
        # window §2.1/§2.3 argue against — the matrix documents it
        bed = ResilienceBed(
            protocol, n_clients=2, seed=cseed,
            client_config=sharing_client_config(protocol),
        )
        metrics = bed.sim.enable_metrics()
        bed.injector.trace = True
        bed.injector.install(FaultPlan(events=plan_events(plan), seed=cseed))
        t0 = bed.sim.now
        cell.stats = run_workload(workload, bed)
        bed.final_checks()
        cell.elapsed = bed.sim.now - t0
    except Exception as exc:  # noqa: BLE001 - a crash IS the verdict
        cell.error = "%s: %s" % (type(exc).__name__, exc)
        cell.verdict = "fail"
        return cell

    cell.violations = bed.oracle.summary()
    cell.fault_events = len(bed.injector.log)
    cell.recovery_rejections = metrics.counter("recovery.rejections").total()
    if not cell.violations:
        cell.verdict = "pass"
    elif set(cell.violations) <= allowed:
        cell.verdict = "expected"
    else:
        cell.verdict = "fail"
    return cell


def run_matrix(
    seed: int = 1,
    protocols: Tuple[str, ...] = ALL_PROTOCOLS,
    workloads: Optional[Tuple[str, ...]] = None,
    plans: Optional[Tuple[str, ...]] = None,
    only: Optional[str] = None,
    progress=None,
    jobs: int = 1,
    pool_progress=None,
    timing: Optional[Dict] = None,
) -> List[NemesisCell]:
    """Run the matrix (or the ``only`` subset); returns cells in
    deterministic (protocol, workload, plan) declaration order.

    ``only`` accepts an fnmatch pattern (``snfs/*/crash-*``) or an
    exact cell id.  ``jobs`` farms cells to the :mod:`repro.parallel`
    pool — cells are already independently seeded via
    ``crc32(cell_id) ^ seed``, so the verdicts and the document digest
    are identical at any job count.  ``timing`` (a dict) receives the
    pool's per-cell + speedup accounting block.
    """
    from ..parallel import CellSpec, pool_accounting, run_cells

    workloads = tuple(workloads or NEMESIS_WORKLOADS)
    plans = tuple(plans or NEMESIS_PLANS)
    for p in protocols:
        if p not in ALL_PROTOCOLS:
            raise ValueError("unknown protocol %r" % p)
    for w in workloads:
        if w not in NEMESIS_WORKLOADS:
            raise ValueError("unknown workload %r" % w)
    for pl in plans:
        if pl not in NEMESIS_PLANS:
            raise ValueError("unknown plan %r" % pl)
    triples = []
    for protocol in protocols:
        for workload in workloads:
            for plan in plans:
                cid = cell_id(protocol, workload, plan)
                if only is not None and not fnmatch.fnmatch(cid, only):
                    continue
                triples.append((cid, protocol, workload, plan))
    if only is not None and not triples:
        raise ValueError(
            "no cell matches %r (format: protocol/workload/plan, "
            "fnmatch patterns allowed)" % only
        )
    if jobs <= 1:
        t0 = time.perf_counter()  # lint: ok=DET002 — wall-clock sweep accounting, not sim logic
        cells = []
        rows = []
        for i, (cid, protocol, workload, plan) in enumerate(triples):
            if progress is not None:
                progress(cid)
            c0 = time.perf_counter()  # lint: ok=DET002 — wall-clock sweep accounting, not sim logic
            cell = run_cell(protocol, workload, plan, seed)
            wall = time.perf_counter() - c0  # lint: ok=DET002 — wall-clock sweep accounting, not sim logic
            cells.append(cell)
            rows.append(
                {
                    "kind": "nemesis-cell", "name": cid,
                    "wall_seconds": round(wall, 6),
                    "error": None if cell.error is None else cell.error,
                }
            )
            if pool_progress is not None:
                pool_progress(i + 1, len(triples), rows[-1])
        if timing is not None:
            timing.update(
                pool_accounting(rows, time.perf_counter() - t0, 1)  # lint: ok=DET002 — wall-clock sweep accounting, not sim logic
            )
        return cells
    specs = [
        CellSpec(
            kind="nemesis-cell",
            name=cid,
            params={"protocol": protocol, "workload": workload, "plan": plan},
            seed=seed,
        )
        for cid, protocol, workload, plan in triples
    ]
    t0 = time.perf_counter()  # lint: ok=DET002 — wall-clock sweep accounting, not sim logic
    rows = run_cells(specs, jobs=jobs, progress=pool_progress)
    total = time.perf_counter() - t0  # lint: ok=DET002 — wall-clock sweep accounting, not sim logic
    if timing is not None:
        timing.update(pool_accounting(rows, total, jobs))
    cells = []
    for row, (cid, protocol, workload, plan) in zip(rows, triples):
        if row["error"] is not None and row["result"] is None:
            # the worker process died: synthesize the fail row run_cell
            # would have produced had the exception stayed in-process
            cseed = cell_seed(cid, seed)
            cells.append(
                NemesisCell(
                    id=cid, protocol=protocol, workload=workload, plan=plan,
                    seed=cseed, verdict="fail",
                    allowed=sorted(_allowed_kinds(protocol, plan)),
                    error=row["error"],
                )
            )
        else:
            cells.append(NemesisCell.from_dict(row["result"]))
    return cells


def nemesis_obs_artifact(path: str, seed: int = 1) -> str:
    """Run one dedicated obs-enabled cell and write its ``repro-obs/1``
    document to ``path``.

    Uses snfs / seq-sharing / flaky-net — the cell where latency
    attribution earns its keep: packet loss and latency bursts must
    show up in the ``net``/``retrans_wait`` phases, not in server
    queueing.  A *separate* run (rather than instrumenting the matrix
    cells) keeps the matrix's own digests untouched by obs wiring.
    """
    from ..obs import obs_document
    from ..obs.cli import write_obs_document

    cid = cell_id("snfs", "seq-sharing", "flaky-net")
    cseed = cell_seed(cid, seed)
    bed = ResilienceBed("snfs", n_clients=2, seed=cseed)
    bed.sim.enable_obs()
    bed.injector.install(FaultPlan(events=plan_events("flaky-net"), seed=cseed))
    stats = run_workload("seq-sharing", bed)
    bed.final_checks()
    doc = obs_document(
        bed.sim.obs,
        meta={
            "scenario": "nemesis:" + cid,
            "protocol": "snfs",
            "seed": cseed,
            "workload_stats": dict(sorted(stats.items())),
        },
        metrics=bed.sim.metrics,
    )
    return write_obs_document(doc, path)


# -- the machine-readable document -------------------------------------------


def nemesis_document(
    cells: List[NemesisCell], seed: int, timing: Optional[Dict] = None
) -> Dict:
    """Schema-versioned JSON document; digest-stable at a fixed seed.

    The digest hashes the canonical serialization of the cells alone,
    so two same-seed runs — any machine, any day — produce the same
    digest unless scored behavior changed.  ``timing`` (the pool's
    per-cell wall-clock/speedup block) rides along **outside** the
    digest: wall clock is honest measurement, never part of identity.
    """
    cell_dicts = [c.as_dict() for c in cells]
    canon = json.dumps(cell_dicts, sort_keys=True, separators=(",", ":"))
    summary = {"pass": 0, "expected": 0, "fail": 0}
    for c in cells:
        summary[c.verdict] += 1
    doc = {
        "schema": NEMESIS_SCHEMA,
        "seed": seed,
        "protocols": sorted({c.protocol for c in cells}),
        "workloads": sorted({c.workload for c in cells}),
        "plans": sorted({c.plan for c in cells}),
        "summary": summary,
        "cells": cell_dicts,
        "digest": hashlib.sha256(canon.encode()).hexdigest(),
    }
    if timing:
        doc["timing"] = timing
    return doc


_CELL_REQUIRED = {
    "id": str, "protocol": str, "workload": str, "plan": str,
    "seed": int, "verdict": str, "elapsed": (int, float),
    "violations": dict, "allowed": list, "stats": dict,
    "fault_events": int, "recovery_rejections": (int, float),
}


def validate_nemesis_document(doc) -> List[str]:
    """Schema-check a nemesis document; returns problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    if doc.get("schema") != NEMESIS_SCHEMA:
        problems.append(
            "schema is %r, expected %r" % (doc.get("schema"), NEMESIS_SCHEMA)
        )
    for key in ("seed", "protocols", "workloads", "plans", "summary", "cells", "digest"):
        if key not in doc:
            problems.append("missing top-level key %r" % key)
    cells = doc.get("cells", [])
    if not isinstance(cells, list):
        problems.append("cells is not an array")
        cells = []
    for i, cell in enumerate(cells):
        where = "cells[%d]" % i
        if not isinstance(cell, dict):
            problems.append("%s is not an object" % where)
            continue
        for key, types in _CELL_REQUIRED.items():
            if key not in cell:
                problems.append("%s missing %r" % (where, key))
            elif not isinstance(cell[key], types):
                problems.append("%s.%s has wrong type" % (where, key))
        if cell.get("verdict") not in ("pass", "expected", "fail"):
            problems.append("%s.verdict not pass/expected/fail" % where)
    # the digest must actually match the cells it claims to cover
    if isinstance(cells, list) and "digest" in doc:
        canon = json.dumps(cells, sort_keys=True, separators=(",", ":"))
        if hashlib.sha256(canon.encode()).hexdigest() != doc["digest"]:
            problems.append("digest does not match cells")
    return problems


# -- the rendered table -------------------------------------------------------


def render_matrix(cells: List[NemesisCell], seed: int) -> str:
    headers = [
        "Cell", "Elapsed(s)", "CtO", "Lost", "State",
        "AppErr", "Faults", "Verdict",
    ]
    rows = []
    for c in cells:
        rows.append(
            [
                c.id,
                "-" if c.error else "%.1f" % c.elapsed,
                str(c.violations.get("close-to-open", 0)),
                str(c.violations.get("lost-acked-write", 0)),
                str(c.violations.get("state-mismatch", 0)),
                str(c.stats.get("app_errors", 0)),
                str(c.fault_events),
                c.verdict.upper() if c.verdict == "fail" else c.verdict,
            ]
        )
    table = format_table(
        headers,
        rows,
        title="Nemesis conformance matrix: oracle verdicts per "
        "protocol x workload x fault plan (seed %d)" % seed,
        align_left_cols=1,
    )
    lines = [table]
    for c in cells:
        if c.verdict != "fail":
            continue
        detail = c.error or ", ".join(
            "%s x%d" % kv for kv in sorted(c.violations.items())
        )
        lines.append(
            "FAIL %s: %s\n  reproduce: %s"
            % (c.id, detail, c.repro_command.replace("SEED", str(seed)))
        )
    return "\n".join(lines)
