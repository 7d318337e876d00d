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

import dataclasses
import fnmatch
import hashlib
import json
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..experiments.bed import PROTOCOL_REGISTRY
from ..experiments.resilience import ResilienceBed, sharing_client_config
from ..faults import FaultPlan
from ..metrics import format_table
from .plans import NEMESIS_PLANS, plan_events
from .sharded import SHARDED_PROTOCOLS, SHARDED_ROWS
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
        row_set = "--sharded " if (self.workload, self.plan) in SHARDED_ROWS else ""
        return "python -m repro nemesis %s--seed SEED --only %s" % (row_set, self.id)

    def as_dict(self) -> Dict:
        """The JSON form: fields in declaration order, maps sorted."""
        data = dataclasses.asdict(self)
        data.update(
            elapsed=round(self.elapsed, 6),
            violations=dict(sorted(self.violations.items())),
            allowed=sorted(self.allowed),
            stats=dict(sorted(self.stats.items())),
        )
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "NemesisCell":
        """Rebuild a cell from its :meth:`as_dict` form (the shape a
        pool worker ships back); round-trips exactly."""
        return cls(**data)


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


def _unscored_cell(protocol: str, workload: str, plan: str, seed: int) -> NemesisCell:
    """The cell before anything ran (``fail`` until judged) and what
    its protocol is allowed."""
    cid = cell_id(protocol, workload, plan)
    row = SHARDED_ROWS.get((workload, plan))
    allowed = _allowed_kinds(protocol, plan if row is None else row.schedule)
    return NemesisCell(
        id=cid, protocol=protocol, workload=workload, plan=plan,
        seed=cell_seed(cid, seed), verdict="fail", allowed=sorted(allowed),
    )


def run_cell(protocol: str, workload: str, plan: str, seed: int) -> NemesisCell:
    """Build, fault, drive, and judge one cell: a matrix cell on the
    two-client one-server bed, or — when ``(workload, plan)`` names one
    of :data:`SHARDED_ROWS` — that row's topology, with its two extra
    pass conditions."""
    cell = _unscored_cell(protocol, workload, plan, seed)
    cseed = cell.seed
    row = SHARDED_ROWS.get((workload, plan))

    try:
        if row is None:
            # NFS mounts with the era-accurate configuration whose
            # staleness window §2.1/§2.3 argue against — the matrix
            # documents it
            bed = ResilienceBed(
                protocol, n_clients=2, seed=cseed,
                client_config=sharing_client_config(protocol),
            )
            events = plan_events(plan)
        else:
            bed = row.build(protocol, cseed)
            events = plan_events(
                row.schedule, server="server%d" % row.crashed_shard
            )
        bed.injector.trace = True
        bed.injector.install(FaultPlan(events=events, seed=cseed))
        epochs = bed.boot_epochs()
        t0 = bed.sim.now
        cell.stats = run_workload(workload, bed) if row is None else row.workload(bed)
        bed.final_checks()
        cell.elapsed = bed.sim.now - t0
    except Exception as exc:  # noqa: BLE001 - a crash IS the verdict
        cell.error = "%s: %s" % (type(exc).__name__, exc)
        return cell

    cell.violations = bed.oracle.summary()
    cell.fault_events = len(bed.injector.log)
    cell.recovery_rejections = sum(s.recovery_rejections for s in bed.servers)
    if row is not None:
        cell.error = row.judge_epochs(cell.stats, epochs, bed.boot_epochs())
    if cell.error is None and not cell.violations:
        cell.verdict = "pass"
    elif cell.error is None and set(cell.violations) <= set(cell.allowed):
        cell.verdict = "expected"
    return cell


def run_matrix(
    seed: int = 1,
    protocols: Tuple[str, ...] = ALL_PROTOCOLS,
    workloads: Optional[Tuple[str, ...]] = None,
    plans: Optional[Tuple[str, ...]] = None,
    only: Optional[str] = None,
    jobs: int = 1,
    pool_progress=None,
    timing: Optional[Dict] = None,
) -> List[NemesisCell]:
    """Run the matrix (or the ``only`` subset); returns cells in
    deterministic (protocol, workload, plan) declaration order.

    The axes default to the conformance matrix; naming a
    :data:`SHARDED_ROWS` workload and plan (with ``protocols`` from
    :data:`SHARDED_PROTOCOLS`) sweeps those rows instead.  ``only``
    accepts an fnmatch pattern (``snfs/*/crash-*``) or an exact cell
    id.  ``jobs`` farms cells to the :mod:`repro.parallel` pool — cells
    are already independently seeded via ``crc32(cell_id) ^ seed``, so
    the verdicts and the document digest are identical at any job
    count.  ``timing`` (a dict) receives the pool's per-cell + speedup
    accounting block.
    """
    from ..parallel import CellSpec, sweep

    triples = [
        (protocol, workload, plan)
        for protocol in protocols
        for workload in workloads or NEMESIS_WORKLOADS
        for plan in plans or NEMESIS_PLANS
    ]
    for protocol, workload, plan in triples:
        if (workload, plan) in SHARDED_ROWS:
            if protocol not in SHARDED_PROTOCOLS:
                raise ValueError(
                    "sharded cell protocol must be one of %s, got %r"
                    % (", ".join(SHARDED_PROTOCOLS), protocol)
                )
        elif protocol not in ALL_PROTOCOLS:
            raise ValueError("unknown protocol %r" % protocol)
        elif workload not in NEMESIS_WORKLOADS:
            raise ValueError("unknown workload %r" % workload)
        elif plan not in NEMESIS_PLANS:
            raise ValueError("unknown plan %r" % plan)
    specs = [
        CellSpec(
            kind="nemesis-cell",
            name=cell_id(protocol, workload, plan),
            params={"protocol": protocol, "workload": workload, "plan": plan},
            seed=seed,
        )
        for protocol, workload, plan in triples
        if only is None or fnmatch.fnmatch(cell_id(protocol, workload, plan), only)
    ]
    if only is not None and not specs:
        raise ValueError(
            "no cell matches %r (format: protocol/workload/plan, "
            "fnmatch patterns allowed)" % only
        )
    rows, accounting = sweep(specs, jobs=jobs, progress=pool_progress)
    if timing is not None:
        timing.update(accounting)
    cells = []
    for row, spec in zip(rows, specs):
        if row["result"] is None:
            # the worker process died: the fail row run_cell would have
            # produced had the exception stayed in-process
            cells.append(_unscored_cell(seed=seed, **spec.params))
            cells[-1].error = row["error"]
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
    from ..document import write_json
    from ..obs import OBS_INDENT, obs_document

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
    return write_json(doc, path, indent=OBS_INDENT)


# -- the machine-readable document -------------------------------------------


def _cells_digest(cell_dicts: List[Dict]) -> str:
    canon = json.dumps(cell_dicts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


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
        "digest": _cells_digest(cell_dicts),
    }
    if timing:
        doc["timing"] = timing
    return doc


def validate_nemesis_document(doc) -> List[str]:
    """Schema-check a nemesis document; returns problems (empty = valid)."""
    from ..document import NUMBER, check

    spec = {
        "schema": {NEMESIS_SCHEMA},
        "seed": int,
        "protocols": [str],
        "workloads": [str],
        "plans": [str],
        "summary": {"pass": int, "expected": int, "fail": int},
        "cells": [
            {
                "id": str, "protocol": str, "workload": str, "plan": str,
                "seed": int, "verdict": {"pass", "expected", "fail"},
                "elapsed": NUMBER, "violations": dict, "allowed": list,
                "stats": dict, "fault_events": int,
                "recovery_rejections": NUMBER,
            }
        ],
        "digest": str,
    }
    problems = check(doc, spec)
    if not problems and _cells_digest(doc["cells"]) != doc["digest"]:
        # the digest must actually match the cells it claims to cover
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
