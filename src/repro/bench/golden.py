"""Fixed-seed golden digests for every paper-facing artifact.

Optimization PRs must not change *what* the simulator computes, only
how fast.  This module canonicalizes that contract: each golden
scenario renders one paper table/figure (or runs a traced workload)
at a fixed seed and hashes the result.  It is the only schedule oracle
in the repository: nothing else computes a trace or schedule digest.  The checked-in digests
(``tests/golden/golden.json``) are the pre-optimization reference;
``tests/bench/test_golden.py`` recomputes and compares them, so a
schedule-visible regression fails loudly with the scenario name.

Two digest families:

* **output digests** — sha256 of the rendered table/figure text:
  every name in :data:`~repro.experiments.artifacts.ARTIFACTS` but
  ``table-4-1`` (pure data, no simulation).  The rendered
  text includes simulated elapsed times and RPC counts, so any
  behavioral drift shows up.  The :data:`LOAD_POINTS` join them: each
  hashes ``ops=<RPCs plus disk transfers> sim_seconds=<simulated
  time>`` of one load point (the N-client cluster sweep, the sharded
  namespace, the largest NFS sort).
* **trace digests** — :func:`repro.trace.trace_digest` over the full
  causal trace of the traced scenarios (the §5.3 microbenchmark, the
  resilience scenario, the two-client Andrew run per protocol, and a
  small fixed variant of each load-point family).  A
  trace hashes every span and instant with timestamps, so these are
  byte-identical-schedule oracles.  The ``engine-*`` entries hash the
  (step, simulated-time) samples a pure-engine microbenchmark body
  observes instead, salted with the scenario name.
"""

from __future__ import annotations

import hashlib
import os
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..document import read_json, write_json
from ..experiments.artifacts import ARTIFACTS
from ..experiments.cluster import CLUSTER_PROTOCOLS
from ..experiments.memo import shared_run
from ..experiments.scaling import cluster_point, sharded_point
from ..experiments.sort import SORT_SIZES, run_sort
from ..experiments.traced import run_traced_andrew
from ..parallel import CellSpec, sweep
from ..sim import Simulator
from ..trace import Tracer, trace_digest
from .engine_bench import ENGINE_SCENARIOS

__all__ = [
    "GOLDEN_OUTPUTS",
    "GOLDEN_TRACED",
    "LOAD_POINTS",
    "GOLDEN_SCHEMA",
    "compute_output_digests",
    "compute_trace_digests",
    "run_golden",
    "check_golden",
    "write_golden",
    "default_golden_path",
]

GOLDEN_SCHEMA = "repro-golden/1"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- output digests ----------------------------------------------------------

#: the three artifacts whose scenario name says which section or seed
_RENAMED = {
    "micro": "micro-5-3",
    "consistency": "consistency-2-3",
    "resilience": "resilience-seed1",
}


def _numbers(ops: int, sim_seconds: float) -> str:
    return "ops=%d sim_seconds=%.6f" % (ops, sim_seconds)


def _load_point(point: Callable, *args, **kwargs) -> str:
    """Run :func:`~repro.experiments.scaling.cluster_point` or
    :func:`~repro.experiments.scaling.sharded_point`: the RPCs the
    servers served and issued plus their disk transfers, and the load's
    simulated time."""
    bed, sim_seconds = point(*args, **kwargs)
    ops = bed.total_rpcs() + sum(
        d.stats.total() for host in bed.server_hosts for d in host.disks.values()
    )
    return _numbers(ops, sim_seconds)


def _sort_point() -> str:
    """Table 5-3's largest NFS sort: its RPCs plus both hosts' disk
    transfers, and its elapsed time."""
    run = shared_run(run_sort, "nfs", SORT_SIZES[-1], True)
    ops = run.rpc_rows.get("total", 0)
    ops += sum(run.server_disk.values()) + sum(run.client_disk.values())
    return _numbers(ops, run.result.elapsed)


#: load point name -> zero-argument callable returning its
#: ``ops=... sim_seconds=...`` text
LOAD_POINTS: Dict[str, Callable[[], str]] = {
    "sort-external-nfs": _sort_point,
    **{
        "cluster-%s-n%d" % (protocol, n): partial(
            _load_point, cluster_point, protocol, n, iterations=3
        )
        for protocol in CLUSTER_PROTOCOLS
        for n in (16, 64, 256)
    },
    # the same load, 16 clients over N servers behind one tree; the
    # ``hotdir`` variant pins every client into one shard's directory
    **{
        "sharded-snfs-s%d" % n_shards: partial(
            _load_point, sharded_point, "snfs", n_shards, 16, iterations=3
        )
        for n_shards in (1, 2, 4)
    },
    "sharded-snfs-hotdir-s4": partial(
        _load_point, sharded_point, "snfs", 4, 16, iterations=3, hot_dir=True
    ),
}

#: scenario name -> zero-argument callable returning the canonical text:
#: every artifact (the resilience table at its default seed, 1) but the
#: Table 4-1 sample, so a new artifact cannot land unpinned, and every
#: load point
GOLDEN_OUTPUTS: Dict[str, Callable[[], str]] = {
    **{
        _RENAMED.get(name, name): build
        for name, build in ARTIFACTS.items()
        if name != "table-4-1"
    },
    **LOAD_POINTS,
}


def compute_output_digests(
    names: Optional[List[str]] = None,
) -> Dict[str, str]:
    """Render each requested golden scenario and hash its text."""
    out = {}
    for name, build in GOLDEN_OUTPUTS.items():
        if names is not None and name not in names:
            continue
        out[name] = _sha(build())
    return out


# -- trace digests -----------------------------------------------------------


def _traced(run_fn: Callable, *args, **kwargs) -> List[str]:
    """Call ``run_fn`` with ``REPRO_TRACE`` armed; digest every
    simulator's trace (one experiment may build several testbeds)."""
    _, tracers = Tracer.capture(partial(run_fn, *args, **kwargs))
    return [trace_digest(t) for t in tracers]


def _andrew(protocol: str) -> List[str]:
    """The two-client Andrew run (seed 1989), which traces itself."""
    return [trace_digest(run_traced_andrew(protocol, seed=1989).tracer)]


def _engine(name: str) -> List[str]:
    """Hash the exact schedule a small run of an engine scenario
    observes.  The scenario name salts the hash so two scenarios that
    happen to sample identical (step, time) sequences still get
    distinct digests."""
    body, _full_n, _quick_n, digest_n = ENGINE_SCENARIOS[name]
    schedule: List[tuple] = []
    body(Simulator(), digest_n, schedule)
    return [_sha(name + "|" + ";".join(repr(item) for item in schedule))]


#: scenario name -> zero-argument callable returning a digest list; the
#: load-point families run fixed sizes far below their
#: :data:`LOAD_POINTS`, since every N runs a different schedule by definition
GOLDEN_TRACED: Dict[str, Callable[[], List[str]]] = {
    "andrew-traced-nfs": partial(_andrew, "nfs"),
    "andrew-traced-snfs": partial(_andrew, "snfs"),
    "micro-5-3-traced": partial(_traced, ARTIFACTS["micro"]),
    "resilience-seed1-traced": partial(_traced, ARTIFACTS["resilience"]),
    "sort-traced-nfs": partial(_traced, run_sort, "nfs", input_bytes=SORT_SIZES[0]),
    **{
        "cluster-traced-%s" % protocol: partial(
            _traced, cluster_point, protocol, n_clients=4, iterations=2
        )
        for protocol in CLUSTER_PROTOCOLS
    },
    "sharded-traced-snfs": partial(
        _traced, sharded_point, "snfs",
        n_shards=2, n_clients=4, iterations=2, seed=11,
    ),
    "sweep-traced-snfs": partial(
        _traced, cluster_point, "snfs", n_clients=8, iterations=1
    ),
    **{"engine-%s" % name: partial(_engine, name) for name in ENGINE_SCENARIOS},
}


def compute_trace_digests(
    names: Optional[List[str]] = None,
) -> Dict[str, List[str]]:
    """Run each traced golden scenario and collect its trace digests."""
    out = {}
    for name, run in GOLDEN_TRACED.items():
        if names is not None and name not in names:
            continue
        out[name] = run()
    return out


# -- the pooled regeneration / check path -------------------------------------
#
# Each golden scenario is one independent fixed-seed simulation, so the
# regeneration sweep is a textbook cell workload: ``python -m repro
# golden -j4`` recomputes every digest on the pool and either compares
# against the committed file (--check, the default) or rewrites it.


def default_golden_path() -> str:
    """The committed golden file, resolved relative to the repo root
    (the package lives at ``<root>/src/repro``)."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.normpath(
        os.path.join(here, "..", "..", "..", "tests", "golden", "golden.json")
    )


def run_golden(
    jobs: int = 1, progress=None, accounting=None
) -> Tuple[Dict[str, str], Dict[str, List[str]], List[Dict]]:
    """Recompute every golden digest via the cell pool.

    Returns ``(outputs, trace_digests, error_rows)`` — scenarios whose
    cell errored are absent from the dicts and listed in the rows.
    """
    specs = [
        CellSpec(kind="golden-output", name=name) for name in GOLDEN_OUTPUTS
    ] + [
        CellSpec(kind="golden-traced", name=name) for name in GOLDEN_TRACED
    ]
    rows, timing = sweep(specs, jobs=jobs, progress=progress)
    if accounting is not None:
        accounting.update(timing)
    outputs: Dict[str, str] = {}
    traced: Dict[str, List[str]] = {}
    errors: List[Dict] = []
    for row in rows:
        if row["error"]:
            errors.append(row)
        elif row["kind"] == "golden-output":
            outputs[row["name"]] = row["result"]
        else:
            traced[row["name"]] = row["result"]
    return outputs, traced, errors


def check_golden(
    path: Optional[str] = None, jobs: int = 1, progress=None, accounting=None
) -> Tuple[bool, List[str]]:
    """Recompute all digests and diff against the committed file: an output
    that differs is ``CHANGED`` (another model), a trace digest ``MOVED``."""
    path = path or default_golden_path()
    ref = read_json(path)
    outputs, traced, errors = run_golden(
        jobs=jobs, progress=progress, accounting=accounting
    )
    lines: List[str] = []
    ok = True
    for row in errors:
        ok = False
        lines.append("ERROR    %-24s %s" % (row["name"], row["error"]))
    for family, fresh, committed in (
        ("output", outputs, ref.get("outputs", {})),
        ("traced", traced, ref.get("trace_digests", {})),
    ):
        for name in sorted(set(fresh) | set(committed)):
            if name not in fresh:
                if not any(row["name"] == name for row in errors):
                    ok = False
                    lines.append("MISSING  %-24s only in %s" % (name, path))
            elif name not in committed:
                ok = False
                lines.append("NEW      %-24s not in %s" % (name, path))
            elif fresh[name] != committed[name]:
                ok = False
                tag = "CHANGED" if family == "output" else "MOVED"
                lines.append("%-8s %-24s (%s digest differs)" % (tag, name, family))
            else:
                lines.append("ok       %-24s" % name)
    return ok, lines


def write_golden(path: Optional[str] = None, jobs: int = 1, progress=None) -> str:
    """Regenerate the committed golden file (sorted keys, newline EOF).

    Refuses to write a partial file when any cell errored."""
    path = path or default_golden_path()
    outputs, traced, errors = run_golden(jobs=jobs, progress=progress)
    if errors:
        raise RuntimeError(
            "refusing to write %s: %d golden cell(s) failed (%s)"
            % (path, len(errors), ", ".join(r["name"] for r in errors))
        )
    doc = {
        "schema": GOLDEN_SCHEMA,
        "outputs": outputs,
        "trace_digests": traced,
    }
    return write_json(doc, path)
