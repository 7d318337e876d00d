"""Macro benchmarks: wall-clock cost of full protocol-stack workloads.

Three families:

``andrew-2client-<protocol>``
    The two-client Andrew run (small tree, seed 1989) including the
    cross-client epilogue read — the consistency machinery end to end.
``sort-external-<protocol>``
    The §5.3 external sort over a remote /data and /tmp.
``cluster-<protocol>-n<N>``
    N clients (16/64/256) looping an edit/compile workload against one
    server — the cluster-scale sweep the engine fast path unlocks.
``sharded-snfs-s<N>`` / ``sharded-snfs-hotdir-s<N>``
    The same edit/compile load spread over a sharded namespace with N
    shard servers (subtree shard map, per-user directories round-robin
    assigned).  Aggregate throughput (``ops / sim_seconds``) scales
    near-linearly with N — until the ``hotdir`` variant pins every
    client's files into one shared top-level directory, whose single
    owning shard becomes the serialization point again.

``ops`` is always a *simulation-defined* work count (RPCs plus disk
transfers), which is invariant under engine changes, so events/sec
measures the substrate and not the workload definition.

``trace_digest`` is computed from a small traced variant of each
scenario (tracing a 256-client sweep would distort the timing and the
memory footprint); the variant's parameters are recorded in
``params.digest_variant``.
"""

from __future__ import annotations

import fnmatch
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..experiments.cluster import (
    CLUSTER_PROTOCOLS,
    build_cluster,
    build_sharded_cluster,
)
from ..workloads import edit_compile

__all__ = [
    "WORKLOAD_SCENARIOS",
    "run_workload_cell",
    "run_workload_suite",
    "cluster_point",
    "sharded_point",
]


# -- the N-client load points -------------------------------------------------


def sharded_point(
    protocol: str,
    n_shards: int,
    n_clients: int,
    iterations: int = 3,
    file_blocks: int = 4,
    hot_dir: bool = False,
    seed: Optional[int] = None,
):
    """Run the edit/compile load over a sharded namespace; returns
    (bed, sim_seconds).

    Each client works in its own top-level directory, round-robin
    assigned across the shards (subtree strategy), so aggregate server
    CPU — the single-server bottleneck — is split N ways.  With
    ``hot_dir`` every client instead works in one shared ``/data/shared``
    directory owned by shard 0, which re-serializes the whole load on
    one server no matter how many shards exist.
    """
    if hot_dir:
        assignments = {"shared": 0}
    else:
        assignments = {"user%d" % i: i % n_shards for i in range(n_clients)}
    bed = build_sharded_cluster(
        protocol,
        n_shards,
        n_clients,
        strategy="subtree",
        assignments=assignments,
        seed=seed,
    )
    t0 = bed.sim.now
    coros = [
        edit_compile(kernel, "/data/shared", iterations, file_blocks, "u%d." % i)
        if hot_dir
        else edit_compile(kernel, "/data/user%d" % i, iterations, file_blocks)
        for i, kernel in enumerate(bed.kernels)
    ]
    bed.run_all(*coros, limit=1e6)
    return bed, bed.sim.now - t0


def cluster_point(
    protocol: str,
    n_clients: int,
    iterations: int = 3,
    file_blocks: int = 4,
    seed: Optional[int] = None,
):
    """Run one (protocol, N) cluster workload; returns (bed, sim_seconds)."""
    bed = build_cluster(protocol, n_clients, seed=seed)
    t0 = bed.sim.now
    coros = [
        edit_compile(kernel, "/data/user%d" % i, iterations, file_blocks)
        for i, kernel in enumerate(bed.kernels)
    ]
    bed.run_all(*coros, limit=1e6)
    return bed, bed.sim.now - t0


# -- scenario runners --------------------------------------------------------
#
# Each runner returns a dict with ops / sim_seconds (wall timing is
# taken by the caller around the runner).


def _run_andrew(protocol: str):
    def run() -> Dict:
        from ..experiments.traced import run_traced_andrew

        result = run_traced_andrew(protocol, seed=1989, trace=False)
        server = result.server_host
        ops = (
            server.rpc.server_stats.total()
            + server.rpc.client_stats.total()
            + sum(d.stats.total() for d in server.disks.values())
        )
        return {"ops": ops, "sim_seconds": result.sim.now}

    return run


def _run_sort(protocol: str, full_bytes_index: int = -1):
    def run(quick_bytes_index: Optional[int] = None) -> Dict:
        from ..experiments.sort import SORT_SIZES, run_sort

        index = full_bytes_index if quick_bytes_index is None else quick_bytes_index
        result = run_sort(protocol, input_bytes=SORT_SIZES[index])
        ops = result.rpc_rows.get("total", 0)
        ops += sum(result.server_disk.values()) + sum(result.client_disk.values())
        return {"ops": ops, "sim_seconds": result.result.elapsed}

    return run


def _run_cluster(protocol: str, n_clients: int, iterations: int = 3):
    def run() -> Dict:
        bed, sim_seconds = cluster_point(protocol, n_clients, iterations=iterations)
        ops = bed.total_rpcs() + sum(
            d.stats.total() for d in bed.server_host.disks.values()
        )
        return {"ops": ops, "sim_seconds": sim_seconds}

    return run


def _run_sharded(
    protocol: str,
    n_shards: int,
    n_clients: int,
    iterations: int = 3,
    hot_dir: bool = False,
):
    def run() -> Dict:
        bed, sim_seconds = sharded_point(
            protocol, n_shards, n_clients, iterations=iterations, hot_dir=hot_dir
        )
        ops = bed.total_rpcs() + sum(
            d.stats.total()
            for host in bed.server_hosts
            for d in host.disks.values()
        )
        return {"ops": ops, "sim_seconds": sim_seconds}

    return run


# -- trace-digest variants ---------------------------------------------------


def _digest_of(run_fn: Callable[[], object]) -> List[str]:
    """Run ``run_fn`` with the tracer armed; return its trace digests."""
    import os

    from ..trace import Tracer, trace_digest

    Tracer.drain_instances()
    had = os.environ.get("REPRO_TRACE")
    os.environ["REPRO_TRACE"] = "1"
    try:
        run_fn()
    finally:
        if had is None:
            os.environ.pop("REPRO_TRACE", None)
        else:
            os.environ["REPRO_TRACE"] = had
    return [trace_digest(tracer) for tracer in Tracer.drain_instances()]


def _andrew_digest(protocol: str) -> str:
    from ..experiments.traced import run_traced_andrew
    from ..trace import trace_digest

    return trace_digest(run_traced_andrew(protocol, seed=1989).tracer)


def _sort_digest(protocol: str) -> str:
    from ..experiments.sort import SORT_SIZES, run_sort

    digests = _digest_of(lambda: run_sort(protocol, input_bytes=SORT_SIZES[0]))
    return digests[0]


def _cluster_digest(protocol: str) -> str:
    digests = _digest_of(lambda: cluster_point(protocol, 4, iterations=2))
    return digests[0]


def _sharded_digest(protocol: str) -> str:
    digests = _digest_of(
        lambda: sharded_point(protocol, 2, 4, iterations=2, seed=11)
    )
    return digests[0]


def _sweep_digest() -> str:
    """The fixed-size schedule oracle the large-N sweep points share
    (8 clients, 1 iteration — the sweep's parameters at toy scale)."""
    digests = _digest_of(lambda: cluster_point("snfs", 8, iterations=1))
    return digests[0]


# -- the suite ---------------------------------------------------------------

CLUSTER_NS = (16, 64, 256)

#: the large-N scaling points (full suite only): one iteration per
#: client keeps a 4096-client simulation around a minute of wall clock
SWEEP_NS = (1024, 4096)


def _scenarios(quick: bool, extra_ns: Tuple[int, ...] = ()) -> List[Dict]:
    """Scenario descriptors: name, params, runner, digest thunk.

    ``extra_ns`` adds opt-in ``sweep-n<N>`` points (``--n 10000``) on
    top of the committed :data:`SWEEP_NS` sweep.
    """
    out: List[Dict] = []
    for protocol in ("nfs", "snfs"):
        out.append(
            {
                "name": "andrew-2client-%s" % protocol,
                "params": {"protocol": protocol, "seed": 1989, "tree": "small"},
                "run": _run_andrew(protocol),
                "digest": lambda p=protocol: _andrew_digest(p),
            }
        )
    sort_index = 0 if quick else -1
    out.append(
        {
            "name": "sort-external-nfs",
            "params": {
                "protocol": "nfs",
                "size_index": sort_index,
                "digest_variant": {"size_index": 0},
            },
            "run": lambda: _run_sort("nfs")(sort_index),
            "digest": lambda: _sort_digest("nfs"),
        }
    )
    cluster_ns = (16,) if quick else CLUSTER_NS
    protocols = ("nfs", "snfs") if quick else CLUSTER_PROTOCOLS
    for protocol in protocols:
        for n in cluster_ns:
            out.append(
                {
                    "name": "cluster-%s-n%d" % (protocol, n),
                    "params": {
                        "protocol": protocol,
                        "n_clients": n,
                        "iterations": 3,
                        "digest_variant": {"n_clients": 4, "iterations": 2},
                    },
                    "run": _run_cluster(protocol, n),
                    # digest one small variant per protocol (at every N
                    # the schedule differs; the variant is the oracle)
                    "digest": (lambda p=protocol: _cluster_digest(p)) if n == min(cluster_ns) else None,
                }
            )
    # the sharded-namespace sweep: same load, N servers behind one tree
    sharded_clients = 8 if quick else 16
    shard_ns = (1, 4) if quick else (1, 2, 4)
    for n_shards in shard_ns:
        out.append(
            {
                "name": "sharded-snfs-s%d" % n_shards,
                "params": {
                    "protocol": "snfs",
                    "n_shards": n_shards,
                    "n_clients": sharded_clients,
                    "iterations": 3,
                    "strategy": "subtree",
                    "digest_variant": {
                        "n_shards": 2, "n_clients": 4, "iterations": 2, "seed": 11,
                    },
                },
                "run": _run_sharded("snfs", n_shards, sharded_clients),
                # one digest for the sweep, on a small fixed variant
                "digest": (lambda: _sharded_digest("snfs")) if n_shards == 1 else None,
            }
        )
    out.append(
        {
            "name": "sharded-snfs-hotdir-s4",
            "params": {
                "protocol": "snfs",
                "n_shards": 4,
                "n_clients": sharded_clients,
                "iterations": 3,
                "strategy": "subtree",
                "hot_dir": True,
            },
            "run": _run_sharded("snfs", 4, sharded_clients, hot_dir=True),
            "digest": None,
        }
    )
    # the large-N scaling sweep the process pool unlocks: committed
    # points at 1024/4096 clients (full suite only), plus any --n
    # opt-in sizes; the schedule oracle is one shared fixed-size
    # variant, since every N runs a different schedule by definition
    sweep_ns = () if quick else SWEEP_NS
    for n in tuple(sweep_ns) + tuple(extra_ns):
        out.append(
            {
                "name": "sweep-n%d" % n,
                "params": {
                    "protocol": "snfs",
                    "n_clients": n,
                    "iterations": 1,
                    "digest_variant": {"n_clients": 8, "iterations": 1},
                },
                "run": _run_cluster("snfs", n, iterations=1),
                "digest": (lambda: _sweep_digest()) if n in SWEEP_NS else None,
            }
        )
    return out


def run_workload_cell(
    name: str,
    quick: bool = False,
    digests: bool = True,
    extra_ns: Tuple[int, ...] = (),
) -> Dict:
    """Run one workload scenario by name (the process-pool cell body).

    The spec carries only plain data — the scenario's runner and
    digest thunks are reconstructed here inside whichever process
    executes the cell, so the same function serves the in-process
    ``-j1`` path and the pool workers byte-identically.
    """
    for scenario in _scenarios(quick, extra_ns=extra_ns):
        if scenario["name"] == name:
            break
    else:
        raise KeyError("unknown workload scenario %r" % name)
    t0 = time.perf_counter()  # lint: ok=DET002 — wall-clock benchmark harness, not sim logic
    measured = scenario["run"]()
    wall = time.perf_counter() - t0  # lint: ok=DET002 — wall-clock benchmark harness, not sim logic
    digest = None
    if digests and scenario["digest"] is not None:
        digest = scenario["digest"]()
    return {
        "name": scenario["name"],
        "params": scenario["params"],
        "ops": measured["ops"],
        "sim_seconds": round(measured["sim_seconds"], 6),
        "wall_seconds": round(wall, 6),
        "events_per_sec": round(measured["ops"] / wall) if wall else 0,
        "trace_digest": digest,
    }


def run_workload_suite(
    quick: bool = False,
    digests: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    only: Optional[str] = None,
    jobs: int = 1,
    extra_ns: Tuple[int, ...] = (),
    pool_progress=None,
    accounting: Optional[Dict] = None,
) -> List[Dict]:
    """Run every workload scenario once; returns scenario result dicts.

    ``only`` is an fnmatch pattern (``sharded-*``) or exact scenario
    name restricting which scenarios run.  ``jobs`` farms scenarios to
    the :mod:`repro.parallel` cell pool (``1`` executes in-process,
    byte-identically); ``extra_ns`` adds opt-in ``sweep-n<N>`` points;
    ``accounting`` (a dict) receives the pool timing block."""
    from ..parallel import CellSpec, pool_accounting, run_cells

    names = []
    for scenario in _scenarios(quick, extra_ns=extra_ns):
        if only is not None and not fnmatch.fnmatch(scenario["name"], only):
            continue
        names.append(scenario["name"])
    specs = [
        CellSpec(
            kind="bench-workload",
            name=name,
            params={
                "quick": quick,
                "digests": digests,
                "extra_ns": list(extra_ns),
            },
        )
        for name in names
    ]
    t0 = time.perf_counter()  # lint: ok=DET002 — wall-clock benchmark harness, not sim logic
    if jobs <= 1:
        # the serial path announces each scenario before it runs, as it
        # always did; pooled runs report completions via pool_progress
        from ..parallel import run_cell_spec

        rows = []
        for i, spec in enumerate(specs):
            if progress is not None:
                progress(spec.name)
            row = run_cell_spec(spec)
            rows.append(row)
            if pool_progress is not None:
                pool_progress(i + 1, len(specs), row)
    else:
        rows = run_cells(specs, jobs=jobs, progress=pool_progress)
    total = time.perf_counter() - t0  # lint: ok=DET002 — wall-clock benchmark harness, not sim logic
    if accounting is not None:
        accounting.update(pool_accounting(rows, total, jobs))
    results = []
    for row in rows:
        if row["error"]:
            if accounting is None:
                raise RuntimeError(
                    "workload scenario %r failed: %s" % (row["name"], row["error"])
                )
            continue
        results.append(row["result"])
    return results


WORKLOAD_SCENARIOS = [s["name"] for s in _scenarios(quick=False)]
