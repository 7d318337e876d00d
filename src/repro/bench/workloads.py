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

import time
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..experiments.cluster import (
    CLUSTER_PROTOCOLS,
    build_cluster,
    build_sharded_cluster,
)
from ..experiments.sort import SORT_SIZES, run_sort
from ..experiments.traced import run_traced_andrew
from ..trace import Tracer, trace_digest
from ..workloads import edit_compile
from .suite import run_suite

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
    return _edit_compile_load(bed, iterations, file_blocks, hot_dir)


def cluster_point(
    protocol: str,
    n_clients: int,
    iterations: int = 3,
    file_blocks: int = 4,
    seed: Optional[int] = None,
):
    """Run one (protocol, N) cluster workload; returns (bed, sim_seconds)."""
    bed = build_cluster(protocol, n_clients, seed=seed)
    return _edit_compile_load(bed, iterations, file_blocks)


def _edit_compile_load(bed, iterations: int, file_blocks: int, hot_dir: bool = False):
    t0 = bed.sim.now
    coros = [
        edit_compile(kernel, "/data/shared", iterations, file_blocks, "u%d." % i)
        if hot_dir
        else edit_compile(kernel, "/data/user%d" % i, iterations, file_blocks)
        for i, kernel in enumerate(bed.kernels)
    ]
    bed.run_all(*coros, limit=1e6)
    return bed, bed.sim.now - t0


# -- scenario runners --------------------------------------------------------
#
# Each runner returns a dict with ops / sim_seconds (wall timing is
# taken by the caller around the runner).


def _run_andrew(protocol: str) -> Dict:
    result = run_traced_andrew(protocol, seed=1989, trace=False)
    server = result.server_host
    ops = (
        server.rpc.server_stats.total()
        + server.rpc.client_stats.total()
        + sum(d.stats.total() for d in server.disks.values())
    )
    return {"ops": ops, "sim_seconds": result.sim.now}


def _run_sort(protocol: str, size_index: int) -> Dict:
    result = run_sort(protocol, input_bytes=SORT_SIZES[size_index])
    ops = result.rpc_rows.get("total", 0)
    ops += sum(result.server_disk.values()) + sum(result.client_disk.values())
    return {"ops": ops, "sim_seconds": result.result.elapsed}


def _run_point(point: Callable, *args, **kwargs) -> Dict:
    """Run :func:`cluster_point` or :func:`sharded_point`."""
    bed, sim_seconds = point(*args, **kwargs)
    ops = bed.total_rpcs() + sum(
        d.stats.total() for host in bed.server_hosts for d in host.disks.values()
    )
    return {"ops": ops, "sim_seconds": sim_seconds}


# -- trace-digest variants ---------------------------------------------------


def _digest_of(run_fn: Callable, *args, **kwargs) -> str:
    """Call ``run_fn`` with the tracer armed; digest the first trace."""
    _, tracers = Tracer.capture(partial(run_fn, *args, **kwargs))
    return trace_digest(tracers[0])


def andrew_digest(protocol: str) -> str:
    """The trace digest of the two-client Andrew run (seed 1989)."""
    return trace_digest(run_traced_andrew(protocol, seed=1989).tracer)


# -- the suite ---------------------------------------------------------------

CLUSTER_NS = (16, 64, 256)

#: the large-N scaling points (full suite only): one iteration per
#: client keeps a 4096-client simulation around a minute of wall clock
SWEEP_NS = (1024, 4096)


def _point_scenario(
    name: str,
    point: Callable,
    kwargs: Dict,
    variant: Optional[Dict] = None,
    digest: bool = False,
    **recorded,
) -> Dict:
    """The descriptor of a load point: ``point(**kwargs)``, timed.

    ``variant`` overrides ``kwargs`` down to the small size whose trace
    is the family's schedule oracle; the scenario that carries the
    ``digest`` runs it.  ``recorded`` are params the document shows
    that ``point`` takes no argument for."""
    params = dict(kwargs, **recorded)
    if variant is not None:
        params["digest_variant"] = variant
    return {
        "name": name,
        "params": params,
        "run": partial(_run_point, point, **kwargs),
        "digest": partial(_digest_of, point, **dict(kwargs, **variant))
        if digest else None,
    }


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
                "run": partial(_run_andrew, protocol),
                "digest": partial(andrew_digest, protocol),
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
            "run": partial(_run_sort, "nfs", sort_index),
            "digest": partial(_digest_of, run_sort, "nfs", input_bytes=SORT_SIZES[0]),
        }
    )
    cluster_ns = (16,) if quick else CLUSTER_NS
    protocols = ("nfs", "snfs") if quick else CLUSTER_PROTOCOLS
    for protocol in protocols:
        for n in cluster_ns:
            out.append(
                _point_scenario(
                    "cluster-%s-n%d" % (protocol, n),
                    cluster_point,
                    {"protocol": protocol, "n_clients": n, "iterations": 3},
                    {"n_clients": 4, "iterations": 2},
                    # digest one small variant per protocol (at every N
                    # the schedule differs; the variant is the oracle)
                    digest=n == min(cluster_ns),
                )
            )
    # the sharded-namespace sweep: same load, N servers behind one tree
    sharded_clients = 8 if quick else 16
    sharded = {"protocol": "snfs", "n_clients": sharded_clients, "iterations": 3}
    for n_shards in (1, 4) if quick else (1, 2, 4):
        out.append(
            _point_scenario(
                "sharded-snfs-s%d" % n_shards,
                sharded_point,
                dict(sharded, n_shards=n_shards),
                {"n_shards": 2, "n_clients": 4, "iterations": 2, "seed": 11},
                # one digest for the sweep, on a small fixed variant
                digest=n_shards == 1,
                strategy="subtree",
            )
        )
    out.append(
        _point_scenario(
            "sharded-snfs-hotdir-s4",
            sharded_point,
            dict(sharded, n_shards=4, hot_dir=True),
            strategy="subtree",
        )
    )
    # the large-N scaling sweep the process pool unlocks: committed
    # points at 1024/4096 clients (full suite only), plus any --n
    # opt-in sizes; the schedule oracle is one shared fixed-size
    # variant (the sweep's parameters at toy scale), since every N runs
    # a different schedule by definition
    for n in (() if quick else SWEEP_NS) + tuple(extra_ns):
        out.append(
            _point_scenario(
                "sweep-n%d" % n,
                cluster_point,
                {"protocol": "snfs", "n_clients": n, "iterations": 1},
                {"n_clients": 8, "iterations": 1},
                digest=n in SWEEP_NS,
            )
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
        "ops_per_wall_s": round(measured["ops"] / wall) if wall else 0,
        "trace_digest": digest,
    }


def run_workload_suite(
    quick: bool = False,
    digests: bool = True,
    only: Optional[str] = None,
    jobs: int = 1,
    extra_ns: Tuple[int, ...] = (),
    pool_progress=None,
    accounting: Optional[Dict] = None,
) -> List[Dict]:
    """Run every workload scenario once; returns scenario result dicts.

    ``extra_ns`` adds opt-in ``sweep-n<N>`` points; ``only``, ``jobs``,
    ``pool_progress`` and ``accounting`` are
    :func:`~repro.bench.suite.run_suite`'s."""
    return run_suite(
        "bench-workload",
        [s["name"] for s in _scenarios(quick, extra_ns=extra_ns)],
        {"quick": quick, "digests": digests, "extra_ns": list(extra_ns)},
        only=only, jobs=jobs, progress=pool_progress, accounting=accounting,
    )


WORKLOAD_SCENARIOS = [s["name"] for s in _scenarios(quick=False)]
