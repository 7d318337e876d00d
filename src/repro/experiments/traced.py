"""Traced multi-client Andrew run: the observability showcase.

Runs the Andrew benchmark on one client of a two-client cluster with
the tracer and metrics registry enabled, then has the *second* client
read the freshly linked ``a.out`` — which, under SNFS, the server's
state table still records as CLOSED_DIRTY (the writer holds delayed
writes).  That open forces the full consistency machinery through one
causal chain:

    client1 ``rpc.call:snfs.open``
      -> server ``rpc.serve:snfs.open``
           -> ``snfs.transition`` (CLOSED_DIRTY -> ONE_READER)
           -> ``snfs.callback`` span
                -> client0 ``rpc.serve:snfs.callback``
                     -> ``snfs.writeback`` span
                          -> ``rpc.call:snfs.write`` ...

all visible as one tree in the exported Chrome trace.  With
``protocol="nfs"`` the same workload runs without callbacks, which is
exactly the comparison the paper draws.

Everything is seeded: the network loss RNG (``drop_rate`` > 0 makes
the trace seed-sensitive, which the determinism tests exploit) and the
tree generator.  Two runs with equal seeds export byte-identical
traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from ..fs.types import OpenMode
from ..net import NetworkConfig
from ..sim import Simulator
from ..workloads import AndrewConfig, make_tree
from .andrew import stage_andrew
from .bed import build_bed

__all__ = ["TracedRun", "run_traced_andrew", "small_tree"]


def small_tree(seed: int = 1989):
    """A scaled-down Andrew source tree for tests and CI runs."""
    return make_tree(
        n_dirs=2,
        files_per_dir=4,
        mean_file_size=2000,
        n_headers=3,
        header_size=800,
        seed=seed,
    )


@dataclass
class TracedRun:
    protocol: str
    seed: int
    sim: Simulator
    tracer: Any  # None when run with trace=False
    metrics: Any
    result: Any  # AndrewResult
    epilogue_bytes: int  # bytes the second client read from a.out
    server_host: Any = None  # the server Host (RPC/disk counters)


def run_traced_andrew(
    protocol: str = "snfs",
    seed: int = 1989,
    drop_rate: float = 0.0,
    tree=None,
    bench_config: Optional[AndrewConfig] = None,
    trace_resumes: bool = False,
    trace: bool = True,
) -> TracedRun:
    """Run the small Andrew benchmark traced, on a two-client cluster.

    ``trace=False`` runs the identical workload without attaching the
    tracer or metrics registry — the wall-clock benchmark uses this to
    time the bare stack (the simulated behavior is byte-identical
    either way, which the determinism tests assert).
    """
    if protocol not in ("nfs", "snfs"):
        raise ValueError("traced run supports nfs/snfs, not %r" % protocol)
    sim = Simulator()
    if trace:
        # idempotent: REPRO_TRACE=1 may already have enabled these
        sim.enable_tracer(trace_resumes)
        # latency attribution (and the registry it implies) rides along:
        # the collector adds no events or processes, so trace digests are
        # unchanged by it
        sim.enable_obs()

    bed = build_bed(
        protocol, 2, sim=sim, local_tmp=True,
        network_config=NetworkConfig(drop_rate=drop_rate, seed=seed),
    )
    kernels = bed.kernels

    bench = stage_andrew(bed, kernels[0], tree or small_tree(seed), bench_config)
    result = bed.run(bench.run())

    # Epilogue: before the writer's 30-second delayed writes age out,
    # the second client reads the linked binary.  Under SNFS the server
    # must first call back client0 for a write-back.
    read_bytes: List[int] = [0]

    def epilogue(kernel):
        fd = yield from kernel.open("/data/dst/a.out", OpenMode.READ)
        try:
            while True:
                data = yield from kernel.read(fd, 8192)
                if not data:
                    break
                read_bytes[0] += len(data)
        finally:
            yield from kernel.close(fd)

    bed.run(epilogue(kernels[1]))

    return TracedRun(
        protocol=protocol,
        seed=seed,
        sim=sim,
        tracer=sim.tracer,
        metrics=sim.metrics,
        result=result,
        epilogue_bytes=read_bytes[0],
        server_host=bed.server_host,
    )
