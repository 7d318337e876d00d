"""Macro benchmarks: the simulated work and time of full protocol-stack
workloads, one fixed size each.

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
``sweep-n<N>``
    Opt-in only (``--n 1024``): the SNFS cluster at N clients, one
    edit/compile iteration each.

``ops`` is a *simulation-defined* work count (RPCs plus disk
transfers) and ``sim_seconds`` the simulated time the scenario covers:
both are deterministic, so ``--check`` compares them exactly.  Nothing
here is timed (``perfbench/`` is the stopwatch) and nothing here is
traced (the schedule oracles of small fixed variants of these
scenarios are :data:`repro.bench.golden.GOLDEN_TRACED`).
"""

from __future__ import annotations

import fnmatch
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..experiments.cluster import (
    CLUSTER_PROTOCOLS,
    build_cluster,
    build_sharded_cluster,
)
from ..experiments.sort import SORT_SIZES, run_sort
from ..experiments.traced import run_traced_andrew
from ..parallel import CellSpec, sweep
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
# Each runner returns a dict with ops / sim_seconds.


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


# -- the suite ---------------------------------------------------------------

CLUSTER_NS = (16, 64, 256)


def _point_scenario(name: str, point: Callable, kwargs: Dict, **recorded) -> Dict:
    """The descriptor of a load point: ``point(**kwargs)``.  ``recorded``
    are params the document shows that ``point`` takes no argument for."""
    return {
        "name": name,
        "params": dict(kwargs, **recorded),
        "run": partial(_run_point, point, **kwargs),
    }


def _scenarios(extra_ns: Tuple[int, ...] = ()) -> List[Dict]:
    """Scenario descriptors: name, params, runner.  ``extra_ns`` adds
    the opt-in ``sweep-n<N>`` points (``--n 10000``)."""
    out: List[Dict] = []
    for protocol in ("nfs", "snfs"):
        out.append(
            {
                "name": "andrew-2client-%s" % protocol,
                "params": {"protocol": protocol, "seed": 1989, "tree": "small"},
                "run": partial(_run_andrew, protocol),
            }
        )
    out.append(
        {
            "name": "sort-external-nfs",
            "params": {"protocol": "nfs", "size_index": -1},
            "run": partial(_run_sort, "nfs", -1),
        }
    )
    for protocol in CLUSTER_PROTOCOLS:
        for n in CLUSTER_NS:
            out.append(
                _point_scenario(
                    "cluster-%s-n%d" % (protocol, n),
                    cluster_point,
                    {"protocol": protocol, "n_clients": n, "iterations": 3},
                )
            )
    # the sharded-namespace sweep: same load, N servers behind one tree
    sharded = {"protocol": "snfs", "n_clients": 16, "iterations": 3}
    for n_shards in (1, 2, 4):
        out.append(
            _point_scenario(
                "sharded-snfs-s%d" % n_shards,
                sharded_point,
                dict(sharded, n_shards=n_shards),
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
    # the large-N scaling points the process pool unlocks, one
    # iteration per client so a 4096-client run stays around a minute
    for n in extra_ns:
        out.append(
            _point_scenario(
                "sweep-n%d" % n,
                cluster_point,
                {"protocol": "snfs", "n_clients": n, "iterations": 1},
            )
        )
    return out


def run_workload_cell(name: str, extra_ns: Tuple[int, ...] = ()) -> Dict:
    """Run one workload scenario by name (the process-pool cell body).

    The spec carries only plain data — the scenario's runner is
    reconstructed here inside whichever process executes the cell, so
    the same function serves the in-process ``-j1`` path and the pool
    workers byte-identically.
    """
    for scenario in _scenarios(extra_ns=extra_ns):
        if scenario["name"] == name:
            break
    else:
        raise KeyError("unknown workload scenario %r" % name)
    measured = scenario["run"]()
    return {
        "name": scenario["name"],
        "params": scenario["params"],
        "ops": measured["ops"],
        "sim_seconds": round(measured["sim_seconds"], 6),
    }


def run_workload_suite(
    only: Optional[str] = None,
    jobs: int = 1,
    extra_ns: Tuple[int, ...] = (),
    progress=None,
    accounting: Optional[Dict] = None,
) -> List[Dict]:
    """Run the workload scenarios (those matching the fnmatch pattern or
    exact name ``only``, when given) as one pool sweep; returns their
    result dicts in order.

    ``extra_ns`` adds opt-in ``sweep-n<N>`` points.  ``jobs`` farms the
    scenarios to the :mod:`repro.parallel` pool (``1`` executes
    in-process, byte-identically); ``progress`` is the pool's
    per-completion callback.  When ``accounting`` is a dict it receives
    the pool timing block, the caller sees error rows there and owns
    the exit code; a bare API call raises on the first failed scenario.
    """
    specs = [
        CellSpec(
            kind="bench-workload",
            name=scenario["name"],
            params={"extra_ns": list(extra_ns)},
        )
        for scenario in _scenarios(extra_ns=extra_ns)
        if only is None or fnmatch.fnmatch(scenario["name"], only)
    ]
    rows, timing = sweep(specs, jobs=jobs, progress=progress)
    if accounting is not None:
        accounting.update(timing)
    results = []
    for row in rows:
        if not row["error"]:
            results.append(row["result"])
        elif accounting is None:
            raise RuntimeError(
                "workload scenario %r failed: %s" % (row["name"], row["error"])
            )
    return results


WORKLOAD_SCENARIOS = [s["name"] for s in _scenarios()]
