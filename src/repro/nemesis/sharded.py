"""Sharded failover cells: one shard crashes during grace, the rest
must not notice.

The matrix (:mod:`repro.nemesis.matrix`) judges each protocol against
one server.  These cells judge the *sharded* deployment story: a
:func:`~repro.experiments.cluster.build_sharded_cluster` bed with one
namespace split across three shard servers, where shard 0 is
power-cycled twice — the second crash landing inside the first
reboot's grace window — while writer/reader pairs keep committing
records on every shard.

A cell passes only when

* the oracle reports **zero** violations (the recovery protocols under
  test, SNFS and lease, document full crash recovery — nothing is
  "expected"),
* every *healthy* shard's boot epoch is untouched (shard isolation:
  another shard's recovery must not power-cycle or perturb them), and
* the crashed shard actually power-cycled (the plan fired).

Cells reuse :class:`~repro.nemesis.matrix.NemesisCell` records and the
per-cell seed derivation, so the JSON document and digest machinery
work unchanged; ``python -m repro nemesis --sharded`` runs them.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..experiments.cluster import build_sharded_cluster
from ..faults import FaultPlan
from ..fs import FsError
from ..fs.types import OpenMode
from ..metrics import format_table
from .matrix import NemesisCell, cell_id, cell_seed
from .plans import plan_events

__all__ = [
    "SHARDED_PROTOCOLS",
    "SHARDED_WORKLOAD",
    "SHARDED_PLAN",
    "run_shard_spread",
    "run_sharded_cell",
    "run_sharded_cells",
    "render_sharded_cells",
]

#: the protocols with a documented crash-recovery story — the only
#: ones whose sharded failover can be required to be violation-free
SHARDED_PROTOCOLS: Tuple[str, ...] = ("snfs", "lease")

SHARDED_WORKLOAD = "shard-spread"
#: the matrix's crash-during-grace schedule, aimed at shard 0's server
SHARDED_PLAN = "shard0-crash-during-grace"

_RECORD = 64


def _record(seq: int) -> bytes:
    body = ("seq=%012d" % seq).encode()
    return body + b"." * (_RECORD - len(body))


def run_shard_spread(
    bed,
    n_updates: int = 10,
    write_period: float = 4.0,
    read_period: float = 1.5,
) -> Dict[str, int]:
    """Writer/reader pairs spread across every shard.

    Client ``i`` commits records to ``/data/user{i}/shared.dat`` (a
    subtree owned by shard ``i % n_shards``) while client ``i+1`` polls
    it — so the crashed shard carries real write-sharing through its
    recovery window and every healthy shard carries traffic that must
    stay undisturbed."""
    sim = bed.sim
    kernels = bed.kernels
    n = len(kernels)
    stats = {"writes": 0, "reads": 0, "app_errors": 0}

    def setup(kernel, i, path):
        yield from kernel.mkdir("/data/user%d" % i)
        fd = yield from kernel.open(
            path, OpenMode.WRITE, create=True, truncate=True
        )
        yield from kernel.write(fd, _record(0))
        yield from kernel.close(fd)

    pairs = []
    for i in range(n):
        path = "/data/user%d/shared.dat" % i
        bed.run(setup(kernels[i], i, path))
        pairs.append((kernels[i], kernels[(i + 1) % n], path))

    coros = []
    for writer_kernel, reader_kernel, path in pairs:
        state = {"done": False}

        def writer(kernel=writer_kernel, path=path, state=state):
            try:
                for seq in range(1, n_updates + 1):
                    yield sim.timeout(write_period)
                    try:
                        fd = yield from kernel.open(path, OpenMode.WRITE)
                        yield from kernel.write(fd, _record(seq))
                        yield from kernel.close(fd)
                        stats["writes"] += 1
                    except FsError:
                        # grace-window rejections and crash-window
                        # timeouts are application-visible errors, not
                        # consistency violations
                        stats["app_errors"] += 1
            finally:
                state["done"] = True

        def reader(kernel=reader_kernel, path=path, state=state):
            yield sim.timeout(write_period / 2 + 0.13)
            while not state["done"]:
                try:
                    fd = yield from kernel.open(path, OpenMode.READ)
                    yield from kernel.read(fd, _RECORD)
                    yield from kernel.close(fd)
                    stats["reads"] += 1
                except FsError:
                    stats["app_errors"] += 1
                yield sim.timeout(read_period)

        coros.append(writer())
        coros.append(reader())

    bed.run_all(*coros)
    return stats


def run_sharded_cell(
    protocol: str, seed: int = 1, n_shards: int = 3, n_clients: int = 3
) -> NemesisCell:
    """Build, fault, drive, and judge one sharded failover cell."""
    cid = cell_id(protocol, SHARDED_WORKLOAD, SHARDED_PLAN)
    cseed = cell_seed(cid, seed)
    cell = NemesisCell(
        id=cid, protocol=protocol, workload=SHARDED_WORKLOAD,
        plan=SHARDED_PLAN, seed=cseed, verdict="fail",
    )
    try:
        bed = build_sharded_cluster(
            protocol,
            n_shards,
            n_clients,
            strategy="subtree",
            assignments={"user%d" % i: i % n_shards for i in range(n_clients)},
            seed=cseed,
            with_oracle=True,
        )
        metrics = bed.sim.enable_metrics()
        bed.injector.trace = True
        bed.injector.install(
            FaultPlan(
                events=plan_events("crash-during-grace", server="server0"),
                seed=cseed,
            )
        )
        epochs_before = bed.boot_epochs()
        t0 = bed.sim.now
        cell.stats = run_shard_spread(bed)
        bed.final_checks()
        cell.elapsed = bed.sim.now - t0
        epochs_after = bed.boot_epochs()
    except Exception as exc:  # noqa: BLE001 - a crash IS the verdict
        cell.error = "%s: %s" % (type(exc).__name__, exc)
        cell.verdict = "fail"
        return cell

    cell.violations = bed.oracle.summary()
    cell.fault_events = len(bed.injector.log)
    cell.recovery_rejections = metrics.counter("recovery.rejections").total()
    healthy_stable = epochs_after[1:] == epochs_before[1:]
    crashed_cycled = epochs_after[0] > epochs_before[0]
    cell.stats["healthy_epochs_stable"] = int(healthy_stable)
    cell.stats["shard0_reboots"] = epochs_after[0] - epochs_before[0]
    if not healthy_stable:
        cell.error = "healthy shard boot epoch moved: %r -> %r" % (
            epochs_before, epochs_after,
        )
        cell.verdict = "fail"
    elif not crashed_cycled:
        cell.error = "shard 0 never power-cycled (plan did not fire)"
        cell.verdict = "fail"
    elif cell.violations:
        cell.verdict = "fail"
    else:
        cell.verdict = "pass"
    return cell


def run_sharded_cells(
    seed: int = 1,
    protocols: Tuple[str, ...] = SHARDED_PROTOCOLS,
    progress=None,
) -> List[NemesisCell]:
    for p in protocols:
        if p not in SHARDED_PROTOCOLS:
            raise ValueError(
                "sharded cell protocol must be one of %s, got %r"
                % (", ".join(SHARDED_PROTOCOLS), p)
            )
    cells = []
    for protocol in protocols:
        if progress is not None:
            progress(cell_id(protocol, SHARDED_WORKLOAD, SHARDED_PLAN))
        cells.append(run_sharded_cell(protocol, seed=seed))
    return cells


def render_sharded_cells(cells: List[NemesisCell], seed: int) -> str:
    headers = [
        "Cell", "Elapsed(s)", "CtO", "Lost", "State",
        "AppErr", "HealthyOK", "Reboots", "Verdict",
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
                "yes" if c.stats.get("healthy_epochs_stable") else "NO",
                str(c.stats.get("shard0_reboots", 0)),
                c.verdict.upper() if c.verdict == "fail" else c.verdict,
            ]
        )
    table = format_table(
        headers,
        rows,
        title="Sharded failover cells: shard 0 crash-during-grace, "
        "healthy shards must not notice (seed %d)" % seed,
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
            "FAIL %s: %s\n  reproduce: python -m repro nemesis --sharded "
            "--seed %d" % (c.id, detail, seed)
        )
    return "\n".join(lines)
