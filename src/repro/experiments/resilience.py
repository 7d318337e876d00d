"""Resilience experiments: benchmarks under injected faults, judged by
the consistency oracle.

Two families of runs, both reproducible bit-for-bit from one seed:

* **Sequential write-sharing** under loss bursts and a reader-side
  partition: a writer commits a fresh record via open/write/close while
  a reader polls via open/read/close — exactly the discipline
  close-to-open consistency covers.  The oracle must flag NFS (whose
  era-accurate attribute-cache open check admits a staleness window)
  and must stay silent for SNFS and RFS.

* **Andrew benchmark sweeps**: the paper's workload re-run under
  escalating fault schedules — packet-loss bursts, repeated client⇄
  server partitions, a server crash+reboot (exercising the §2.4
  recovery protocol mid-benchmark), and transient disk-error plus
  slow-disk windows — measuring completion-time degradation alongside
  the oracle's verdicts (close-to-open, lost acknowledged writes, and
  post-recovery client/server state agreement).

``python -m repro resilience --seed 1`` prints the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..faults import (
    CrashReboot,
    DiskFault,
    FaultPlan,
    LossBurst,
    Partition,
    SlowDisk,
)
from ..fs.types import OpenMode
from ..metrics import format_table
from ..proto.config import RemoteFsConfig
from ..workloads import make_tree
from ..workloads.sharing import RECORD_SIZE, sharing_record
from .bed import Bed, build_bed

__all__ = [
    "ResilienceBed",
    "ResilienceRun",
    "resilience_table",
    "run_resilience",
    "sharing_client_config",
]

@dataclass
class ResilienceRun:
    scenario: str
    protocol: str
    schedule: str
    elapsed: float
    verdicts: Dict[str, int] = field(default_factory=dict)
    fault_log: List[Tuple[float, str]] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return not any(self.verdicts.values())


def ResilienceBed(  # noqa: N802 - the fault-injection bed's historical name
    protocol: str, n_clients: int = 1, seed: int = 1, client_config=None
) -> Bed:
    """A server plus N clients built to be abused: :func:`build_bed`
    with every host's disks and the network hanging off a
    :class:`FaultInjector`, every client kernel and the server feeding a
    :class:`ConsistencyOracle`, a local ``/tmp`` per client, and the
    whole thing derived from one seed."""
    return build_bed(
        protocol, n_clients, seed=seed, client_config=client_config,
        local_tmp=True, with_oracle=True,
    )


#: NFS client knobs for the sharing scenarios: the era-accurate
#: consistency configuration — attribute-cache open checks with no
#: forced getattr and no invalidate-on-close — which is precisely the
#: setup whose staleness window the paper's §2.1/§2.3 discussion targets
_SHARING_KNOBS = {
    "nfs": dict(getattr_on_open=False, invalidate_on_close=False, name_cache_ttl=30.0),
}


def sharing_client_config(protocol: str) -> Optional[RemoteFsConfig]:
    """The client config the write-sharing scenarios (here and in the
    nemesis matrix) mount ``protocol`` with; None means its default."""
    knobs = _SHARING_KNOBS.get(protocol)
    return None if knobs is None else RemoteFsConfig(**knobs)


# -- sequential write-sharing ------------------------------------------------


def _write_record(kernel, path, seq, create=False):
    fd = yield from kernel.open(path, OpenMode.WRITE, create=create, truncate=create)
    yield from kernel.write(fd, sharing_record(seq))
    yield from kernel.close(fd)


def run_sharing(
    protocol: str,
    seed: int = 1,
    schedule: str = "faulted",
    n_updates: int = 10,
    write_period: float = 4.0,
    read_period: float = 1.0,
) -> ResilienceRun:
    """Sequential write-sharing between two clients, optionally faulted
    (NFS in its era-accurate :func:`sharing_client_config`)."""
    bed = ResilienceBed(
        protocol, n_clients=2, seed=seed,
        client_config=sharing_client_config(protocol),
    )
    path = "/data/shared.dat"
    bed.run(_write_record(bed.kernels[0], path, 0, create=True))

    if schedule == "faulted":
        plan = FaultPlan(
            events=(
                LossBurst(start=8.0, duration=20.0, rate=0.15),
                Partition(start=26.0, duration=6.0, a="client1", b="server"),
            ),
            seed=seed,
        )
        bed.injector.install(plan)

    sim = bed.sim
    writer_kernel = bed.kernels[0]
    reader_kernel = bed.kernels[1]
    end_time = write_period * (n_updates + 1)

    def writer():
        for seq in range(1, n_updates + 1):
            yield sim.timeout(write_period)
            yield from _write_record(writer_kernel, path, seq)

    def reader():
        # offset the poll phase so reads never race the millisecond-
        # scale windows where the writer holds the file open
        yield sim.timeout(write_period / 2 + 0.13)
        while sim.now < end_time:
            fd = yield from reader_kernel.open(path, OpenMode.READ)
            yield from reader_kernel.read(fd, RECORD_SIZE)
            yield from reader_kernel.close(fd)
            yield sim.timeout(read_period)

    return _judged(bed, "sharing", protocol, schedule, writer(), reader())


def _judged(bed: Bed, scenario, protocol, schedule, *coros) -> ResilienceRun:
    """Drive ``coros`` to completion under whatever faults are installed,
    then report their elapsed time and the oracle's end-of-run verdicts."""
    t0 = bed.sim.now
    bed.run_all(*coros)
    elapsed = bed.sim.now - t0
    bed.final_checks()
    return ResilienceRun(
        scenario=scenario,
        protocol=protocol,
        schedule=schedule,
        elapsed=elapsed,
        verdicts=bed.oracle.summary(),
        fault_log=list(bed.injector.log),
    )


# -- Andrew under fault schedules -------------------------------------------


def _andrew_schedules() -> List[Tuple[str, tuple]]:
    """The fault-intensity sweep, mildest first.  Times are relative to
    benchmark start and sized for the small resilience tree (baseline
    total ≈ 12 s of simulated time) so every window lands inside the
    run; delays from the faults themselves only stretch the tail."""
    return [
        ("baseline", ()),
        ("loss", (LossBurst(start=2.0, duration=15.0, rate=0.1),)),
        (
            "partition",
            (
                Partition(start=3.0, duration=4.0, a="client0", b="server"),
                Partition(start=10.0, duration=3.0, a="client0", b="server"),
            ),
        ),
        ("crash-reboot", (CrashReboot(at=5.0, target="server", down_for=4.0),)),
        (
            "disk-fault",
            (
                DiskFault(start=2.0, duration=8.0, disk="server:disk0", error_rate=0.3),
                SlowDisk(start=11.0, duration=6.0, disk="server:disk0", factor=8.0),
            ),
        ),
    ]


def run_resilience(
    protocol: str,
    schedule: str,
    events: tuple,
    seed: int = 1,
    tree=None,
) -> ResilienceRun:
    """One Andrew run under one fault schedule, with oracle verdicts."""
    from .andrew import stage_andrew

    bed = ResilienceBed(protocol, n_clients=1, seed=seed)
    bench = stage_andrew(bed, bed.kernels[0], tree or _small_tree())
    bed.run(bed.kernels[0].sync())

    bed.injector.install(FaultPlan(events=events, seed=seed))
    return _judged(bed, "andrew", protocol, schedule, bench.run())


def _small_tree():
    return make_tree(
        n_dirs=2, files_per_dir=5, mean_file_size=2500, n_headers=3, header_size=1200
    )


# -- the table ----------------------------------------------------------------


def resilience_table(seed: int = 1) -> Tuple[str, List[ResilienceRun]]:
    """Run the full resilience suite; returns (table text, runs)."""
    runs: List[ResilienceRun] = []
    for protocol in ("nfs", "snfs", "rfs"):
        for schedule in ("baseline", "faulted"):
            runs.append(run_sharing(protocol, seed=seed, schedule=schedule))
    tree = _small_tree()
    for protocol in ("nfs", "snfs"):
        for schedule, events in _andrew_schedules():
            runs.append(
                run_resilience(protocol, schedule, events, seed=seed, tree=tree)
            )

    headers = ["Scenario", "Protocol", "Faults", "Elapsed(s)", "CtO", "Lost", "State", "Verdict"]
    rows = []
    for r in runs:
        rows.append(
            [
                r.scenario,
                r.protocol.upper(),
                r.schedule,
                "%.1f" % r.elapsed,
                str(r.verdicts.get("close-to-open", 0)),
                str(r.verdicts.get("lost-acked-write", 0)),
                str(r.verdicts.get("state-mismatch", 0)),
                "consistent" if r.consistent else "VIOLATED",
            ]
        )
    table = format_table(
        headers,
        rows,
        title="Resilience: benchmarks under injected faults, oracle verdicts "
        "(seed %d)" % seed,
        align_left_cols=3,
    )
    return table, runs
