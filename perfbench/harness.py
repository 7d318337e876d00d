"""The run protocol: set-up, repeated timed bodies, checks, metrics.

One run is one process and one thread.  The *timed body* is only the
cells' ``run`` calls; input generation, testbed construction, staging,
counter collection and verification happen around it under harness
spans (name, start, end, id, parent id — kept in memory, written out at
exit).  An untraced run repeats the body and reports the end-to-end
metrics; a traced run interleaves three kinds of body — untraced,
sampled (pass A: host time by layer) and instrumented (pass B: exact
counts with repro.obs and the metrics registry on) — and reports the
per-layer metrics.

Host-time names end in ``_s`` and are host seconds; ``sim_*`` and
``*_sim_s`` names are simulated seconds and repeat bit-exactly at one
seed, which every body is checked against.  ``wall_s``, ``setup_s`` and
the per-layer times built on them are *calibrated*: per slice the
fastest repeat (``quiet_wall``), scaled by the spin kernel's fastest
timing in the same run (``Session.calibrated``).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from typing import Any, Dict, Iterator, List, Optional

from .sampler import LAYERS, Sampler, TooFewSamples, repo_classifier

__all__ = [
    "DeterminismError",
    "HarnessError",
    "MIN_REPEATS",
    "Session",
    "run_traced",
    "run_untraced",
]

SCHEMA = "perfbench/1"

#: the timed body is repeated at least this often, whatever --seconds says
MIN_REPEATS = 3
#: a traced run interleaves at least this many (untraced, A, B) rounds
MIN_ROUNDS = 2
#: beyond this many repeats the per-slice minimum has stopped moving
MAX_REPEATS = 10

_SPIN_ROUNDS = 200_000
_SPIN_CHECKSUM = 3382843781
#: what the spin kernel takes on the reference box when nothing else
#: runs; host times are reported as if every box were that fast
SPIN_REF_S = 0.040
#: spin-kernel runs before every body
_SPINS_PER_BODY = 5
#: imports of the stack in a fresh process; their median is import_s
_IMPORTS = 3


class HarnessError(Exception):
    """The benchmark itself went wrong (as opposed to a failed op)."""


class DeterminismError(HarnessError):
    """Two bodies of one seed disagreed on a simulated statistic."""


# -- spans ---------------------------------------------------------------------


class Spans:
    """Harness spans, in memory until the run ends."""

    def __init__(self):
        self.rows: List[Dict[str, Any]] = []
        self._open: List[int] = []
        self._t0 = time.perf_counter()

    def add(self, name: str, start: float, end: float, parent: Optional[int], **attrs) -> Dict[str, Any]:
        row = {"id": len(self.rows), "parent": parent, "name": name,
               "start": start - self._t0, "end": end - self._t0}
        row.update(attrs)
        self.rows.append(row)
        return row

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[Dict[str, Any]]:
        parent = self._open[-1] if self._open else None
        row = self.add(name, time.perf_counter(), time.perf_counter(), parent, **attrs)
        self._open.append(row["id"])
        try:
            yield row
        finally:
            self._open.pop()
            row["end"] = time.perf_counter() - self._t0

    def total(self, name: str, under: Optional[int] = None) -> float:
        """Seconds in spans called ``name`` (direct children of ``under``)."""
        return sum(
            r["end"] - r["start"]
            for r in self.rows
            if r["name"] == name and (under is None or r["parent"] == under)
        )


# -- calibration -----------------------------------------------------------------


def _spin() -> int:
    """The fixed pure-Python kernel: int, dict and list operations."""
    table: Dict[int, int] = {}
    ring = [0] * 64
    acc = 0
    for i in range(_SPIN_ROUNDS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[acc & 1023] = i
        ring[i & 63] = acc
        if acc & 7 == 0:
            acc += table.get(i & 1023, 0)
    return (acc ^ sum(ring)) & 0xFFFFFFFF


def time_spin() -> float:
    """Host seconds one run of the spin kernel takes right now."""
    t0 = time.perf_counter()
    checksum = _spin()
    elapsed = time.perf_counter() - t0
    if checksum != _SPIN_CHECKSUM:
        raise HarnessError("spin kernel checksum %d: the kernel changed" % checksum)
    return elapsed


# -- small statistics ------------------------------------------------------------


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def _spread(values: List[float]) -> float:
    return (max(values) - min(values)) / statistics.median(values)


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- one body --------------------------------------------------------------------


class Body:
    """What one pass over the workload's cells produced."""

    def __init__(self, label: str):
        self.label = label
        self.wall = 0.0
        self.cell_walls: List[float] = []
        #: per cell, the host seconds of each slice of simulated time
        self.slices: List[List[float]] = []
        self.build_s = self.stage_s = self.verify_s = 0.0
        self.attempted = 0
        self.failures: List[str] = []
        self.facts: List[Dict[str, Any]] = []
        self.obs_docs: List[Dict[str, Any]] = []
        #: simulated client hosts in memory at once, at most
        self.clients_alive = 0
        #: (SNFS/NFS simulated-elapsed ratio, its error against the paper)
        self.model = (0.0, 0.0)

    @property
    def counted(self) -> bool:
        return all(f["counters"] is not None for f in self.facts if f["error"] is None)

    def total(self, key: str) -> float:
        return sum(f["counters"].get(key) or 0 for f in self.facts if f["counters"])

    @property
    def sim_elapsed(self) -> float:
        return sum(f["sim_elapsed"] or 0.0 for f in self.facts)


def _import_stack(spans: Spans):
    """Import ``repro`` (through perfbench's surface) and time it.

    In a fresh process the import is done ``_IMPORTS`` times — the
    modules are dropped from ``sys.modules`` in between, so each is a
    real import of real files — and the median is reported: one import
    of 0.2 s swings by half from run to run on a noisy box.  When the
    caller has already imported ``repro`` (the self-tests), objects of
    the loaded modules are in use and they are left alone.

    Returns (median import seconds, surface module, workloads module)."""
    ours = tuple("%s.%s" % (__package__, name) for name in ("surface", "workloads", "apps"))
    times = []
    for again in range(1 if "repro" in sys.modules else _IMPORTS):
        if again:
            for name in list(sys.modules):
                if name == "repro" or name.startswith("repro.") or name in ours:
                    del sys.modules[name]
            gc.collect()  # the dropped modules' memory goes back first
        with spans.span("import") as row:
            surface = importlib.import_module(ours[0])
            workloads = importlib.import_module(ours[1])
        times.append(row["end"] - row["start"])
    return statistics.median(times), surface, workloads


class Session:
    """Imports the stack, calibrates, generates the inputs once, then
    runs as many bodies as asked, checking each against the first."""

    def __init__(self, workload: str, seed: int, quick: bool = False):
        self.seed = seed
        self.quick = quick
        self.spans = Spans()
        self.import_s, surface, workloads = _import_stack(self.spans)
        if workload not in workloads.WORKLOADS:
            raise HarnessError("unknown workload %r" % workload)
        self.surface = surface
        self.workload = workloads.WORKLOADS[workload]
        #: every timing of the spin kernel, five before each body
        self.spins: List[float] = []
        with self.spans.span("calibrate"):
            engine = surface.run_engine_cell("timeout-chain", quick=True)
            self.engine_entries_per_s = engine["ops"] / engine["wall_seconds"]
        with self.spans.span("generate"):
            self.inputs = self.workload.generate(seed, quick)
        self.rss_after_generate_kb = peak_rss_kb()
        self.bodies: List[Body] = []
        self._reference: Dict[str, Dict[str, Any]] = {}

    # -- running ---------------------------------------------------------------

    def body(self, mode: str, label: str, sampler: Optional[Sampler] = None) -> Body:
        """One pass over the workload's cells, one testbed alive at a
        time: build and stage a cell, time its ``run``, read its
        counters, verify its outputs, drop it."""
        spans = self.spans
        body = Body(label)
        unsampled = contextlib.nullcontext()
        with spans.span("calibrate"):
            self.spins.extend(time_spin() for _ in range(_SPINS_PER_BODY))
        with spans.span("body", label=label, mode=mode) as frame:
            cells = self.workload.build(self.inputs, self.seed, spans, mode)
            while True:
                gc.collect()
                cell = next(cells, None)
                if cell is None:
                    break
                slices = None
                with spans.span("run", cell=cell.name) as run, (sampler or unsampled):
                    try:
                        slices = cell.run()
                    except Exception as exc:  # noqa: BLE001 - a failed cell is data
                        cell.error = "%s: %s" % (type(exc).__name__, exc)
                wall = run["end"] - run["start"]
                body.cell_walls.append(wall)
                body.slices.append(slices if slices else [wall])
                body.clients_alive = max(body.clients_alive, cell.n_clients)
                with spans.span("collect", cell=cell.name):
                    body.facts.append(
                        {
                            "name": cell.name,
                            "label": label,
                            "sim_elapsed": cell.sim_elapsed,
                            "error": cell.error,
                            "counters": None if cell.error else cell.counters(),
                        }
                    )
                    doc = None if cell.error else cell.obs_document()
                    if doc is not None:
                        body.obs_docs.append(doc)
                with spans.span("verify", cell=cell.name):
                    body.attempted += cell.ops
                    if cell.error is not None:
                        body.failures.extend(["%s: %s" % (cell.name, cell.error)] * cell.ops)
                    elif cell.ops:
                        try:
                            body.failures.extend(cell.verify())
                        except Exception as exc:  # noqa: BLE001 - unreadable output fails the op
                            body.failures.append(
                                "%s: verifier: %s: %s" % (cell.name, type(exc).__name__, exc)
                            )
                cell = None  # the testbed goes before the next one is built
        body.wall = sum(body.cell_walls)
        body.build_s = spans.total("build", under=frame["id"])
        body.stage_s = spans.total("stage", under=frame["id"])
        body.verify_s = spans.total("verify", under=frame["id"])
        body.model = self.workload.model({f["name"]: f["sim_elapsed"] for f in body.facts})
        self._check_against_reference(body)
        self.bodies.append(body)
        return body

    def _check_against_reference(self, body: Body) -> None:
        """Every body of one seed must agree, cell by cell, on simulated
        elapsed and on every exact counter both bodies can see."""
        for fact in body.facts:
            ref = self._reference.get(fact["name"])
            if ref is None:
                self._reference[fact["name"]] = fact
                continue
            where = "cell %s, %s vs %s" % (fact["name"], body.label, ref["label"])
            if fact["sim_elapsed"] != ref["sim_elapsed"]:
                raise DeterminismError(
                    "%s: sim_elapsed %r != %r"
                    % (where, fact["sim_elapsed"], ref["sim_elapsed"])
                )
            mine, theirs = fact["counters"], ref["counters"]
            if mine is None:
                continue
            if theirs is None:
                # first sight of this cell's counters: later bodies compare to them
                ref["counters"], ref["label"] = mine, body.label
                continue
            for key in mine.keys() & theirs.keys():
                if mine[key] != theirs[key]:
                    raise DeterminismError(
                        "%s: %s %r != %r" % (where, key, mine[key], theirs[key])
                    )

    # -- reporting -------------------------------------------------------------

    @property
    def calib(self) -> Dict[str, float]:
        """How fast this box was during this run: not a metric of the
        program.  ``spin_s`` is the fastest of the spin-kernel timings
        interleaved with the bodies."""
        return {
            "spin_s": min(self.spins),
            "engine_entries_per_s": self.engine_entries_per_s,
        }

    def calibrated(self, host_seconds: float) -> float:
        """Host seconds as the reference box would have taken them.

        The sandbox drifts through phases, minutes long, in which all
        code runs 10-30 % slower; no estimator inside a 20 s run sees
        through one.  The spin kernel runs in the same phases, touches
        nothing of the program, and its fastest timing is the same kind
        of quiet-box figure as ``quiet_wall``, so their ratio cancels
        the phase: over six noisy minutes on the reference box it cut
        the spread of ``andrew``'s wall from 15 % to 6 %."""
        return host_seconds * SPIN_REF_S / min(self.spins)

    def model_digest(self, body: Body) -> str:
        """sha256 over per-cell simulated time, per-proc RPC counts and
        disk transfers: information, not a metric."""
        rows = [
            [f["name"], repr(f["sim_elapsed"]), f["counters"]["procs"],
             f["counters"]["disk_reads"], f["counters"]["disk_writes"]]
            for f in body.facts
            if f["counters"] is not None
        ]
        text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    def setup_s(self, bodies: List[Body]) -> float:
        """The program's set-up: importing it, and (median per body)
        building and staging one set of testbeds.  Input generation is
        the load generator's own cost, runs once per process and so
        cannot be repeated into steadiness: it is ``harness.generate_s``,
        reported beside this and not inside it."""
        return self.calibrated(
            self.import_s + statistics.median(b.build_s + b.stage_s for b in bodies)
        )

    def report(self, mode: str, seconds: float, metrics: Dict[str, Any], counted: Body,
               timed: List[Body], extra: Dict[str, Any]) -> Dict[str, Any]:
        failures = [msg for b in self.bodies for msg in b.failures]
        attempted = sum(b.attempted for b in self.bodies)
        doc = {
            "schema": SCHEMA,
            "workload": self.workload.name,
            "mode": mode,
            "seed": self.seed,
            "seconds": seconds,
            "quick": self.quick,
            "python": platform.python_version(),
            "n": len(timed),
            "metrics": metrics,
            "attempted": attempted,
            "failed": len(failures),
            "correct": not failures,
            "failures": failures[:20],
            "calib": self.calib,
            "model_digest": self.model_digest(counted),
            "body_wall_s": [b.wall for b in timed],
            "cells": [
                {"name": f["name"], "sim_elapsed_s": f["sim_elapsed"], "error": f["error"]}
                for f in counted.facts
            ],
        }
        doc.update(extra)
        return doc


def quiet_wall(bodies: List[Body]) -> float:
    """Host seconds of one body on a quiet box: for every slice of every
    cell, the fastest of the repeats, summed.

    The simulation is deterministic, so slice k of a cell is the same
    work in every repeat and its timings differ only by what the box
    added.  That noise comes in bursts of seconds and only ever adds
    time, so a median of whole bodies still carries it while a minimum
    per 10 ms slice does not; on the reference box, in a calm hour, this
    cut the spread between runs from 7 % to 2 %."""
    total = 0.0
    for index, first in enumerate(bodies[0].slices):
        repeats = [body.slices[index] for body in bodies]
        if any(len(slices) != len(first) for slices in repeats):
            raise DeterminismError(
                "cell %s: %s slices of simulated time in different repeats"
                % (bodies[0].facts[index]["name"], sorted({len(s) for s in repeats}))
            )
        total += sum(map(min, zip(*repeats)))
    return total


def _enough(bodies: List[Body], floor: int, seconds: float) -> bool:
    if len(bodies) < floor:
        return False
    return len(bodies) >= MAX_REPEATS or sum(b.wall for b in bodies) >= seconds


# -- the untraced run: end-to-end metrics ----------------------------------------------


def run_untraced(workload: str, seed: int, seconds: float, quick: bool = False) -> Dict[str, Any]:
    session = Session(workload, seed, quick)
    timed: List[Body] = []
    while not _enough(timed, MIN_REPEATS, seconds):
        timed.append(session.body("timed", "untraced-%d" % len(timed)))
    counted = timed[0]
    if not counted.counted:
        # run_cell hides its testbed: count one composed pass, untimed
        counted = session.body("counted", "counted")
    metrics = {
        "wall_s": session.calibrated(quiet_wall(timed)),
        "setup_s": session.setup_s(timed),
        "peak_rss_mb": peak_rss_kb() / 1024.0,
        "sim_elapsed_s": counted.sim_elapsed,
        "sim_io_ops": counted.total("rpc_calls") + counted.total("disk_reads")
        + counted.total("disk_writes"),
        "sim_server_cpu_s": counted.total("server_cpu_s"),
    }
    harness = {
        "import_s": session.import_s,
        "generate_s": session.spans.total("generate"),
        "build_s": statistics.median(b.build_s for b in timed),
        "stage_s": statistics.median(b.stage_s for b in timed),
        "verify_s": statistics.median(b.verify_s for b in timed),
        "wall_spread": _spread([b.wall for b in timed]),
        "wall_median_s": statistics.median(b.wall for b in timed),
        "wall_quiet_s": quiet_wall(timed),
    }
    return session.report("untraced", seconds, metrics, counted, timed, {"harness": harness})


# -- the traced run: per-layer metrics ---------------------------------------------------


def _merged_latency(surface, merged: Dict[str, Any]):
    digest = None
    for op in merged["ops"].values():
        one = surface.QuantileDigest.from_state(op["quantiles"])
        if digest is None:
            digest = one
        else:
            digest.merge(one)
    return digest


def run_traced(workload: str, seed: int, seconds: float, quick: bool = False) -> Dict[str, Any]:
    session = Session(workload, seed, quick)
    sampler = Sampler(
        repo_classifier(session.surface.REPRO_DIR, os.path.dirname(os.path.abspath(__file__)))
    )
    plain: List[Body] = []
    sampled: List[Body] = []
    counted: List[Body] = []
    while not _enough(plain, MIN_ROUNDS, seconds / 3.0):
        # the instrumented body goes first: the process's cold start
        # (lazy imports, first-use caches) then lands on the pass whose
        # wall clock matters least
        n = len(plain)
        counted.append(session.body("instrumented", "instrumented-%d" % n))
        plain.append(session.body("timed", "untraced-%d" % n))
        sampled.append(session.body("timed", "sampled-%d" % n, sampler=sampler))
    merged = session.surface.merge_obs_documents(counted[0].obs_docs)
    for later in counted[1:]:
        again = session.surface.merge_obs_documents(later.obs_docs)
        if again["digest"] != merged["digest"]:
            raise DeterminismError(
                "%s vs %s: repro-obs/1 digests differ" % (later.label, counted[0].label)
            )

    raw_wall = quiet_wall(plain)
    wall = session.calibrated(raw_wall)
    wall_a = session.calibrated(quiet_wall(sampled))
    exact = counted[0]
    metrics: Dict[str, Any] = {}

    try:
        shares = sampler.shares()
    except TooFewSamples:
        shares = None  # withheld: a --quick body is over before 200 ticks
    for layer in LAYERS:
        metrics["%s.self_s" % layer] = None if shares is None else shares.get(layer, 0.0) * wall_a

    def per(layer: str, count: float) -> Optional[float]:
        self_s = metrics["%s.self_s" % layer]
        if self_s is None:
            return None
        return 1e6 * self_s / count if count else 0.0

    entries = exact.total("entries")
    hits, misses = exact.total("cache_hits"), exact.total("cache_misses")
    metrics["sim.us_per_entry"] = per("sim", entries)
    metrics["net.us_per_rpc"] = per("net", exact.total("rpc_calls"))
    metrics["storage.us_per_access"] = per("storage", hits + misses)
    metrics["sim.entries"] = entries
    metrics["sim.entries_per_s"] = entries / wall
    # both sides as measured on this box, neither calibrated
    metrics["sim.engine_gap"] = (
        session.engine_entries_per_s * raw_wall / entries if entries else 0.0
    )
    for key in ("rpc_calls", "rpc_retrans", "rpc_dup_hits", "packets", "bytes", "dropped"):
        metrics["net.%s" % key] = exact.total(key)
    queueing = merged.get("queueing", {})

    def wait(kind: str) -> float:
        return queueing.get(kind, {}).get("wait_s", 0.0)

    metrics["net.thread_wait_sim_s"] = wait("threads")
    metrics["policy.callback_rpcs"] = exact.total("callback_rpcs")
    metrics["policy.recovery_rejections"] = exact.total("recovery_rejections")
    metrics["storage.cache_hits"] = hits
    metrics["storage.cache_misses"] = misses
    metrics["storage.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for key in ("cancelled_writes", "disk_reads", "disk_writes"):
        metrics["storage.%s" % key] = exact.total(key)
    metrics["storage.disk_wait_sim_s"] = wait("disk")
    metrics["host.cpu_wait_sim_s"] = wait("cpu")
    phases = merged["phases"]
    for phase in (
        "client_cpu", "net", "retrans_wait", "server_queue", "server_cpu", "disk",
        "server_other",
    ):
        metrics["obs.%s_sim_s" % phase] = phases[phase]
    latency = _merged_latency(session.surface, merged)
    metrics["obs.call_p50_ms"] = 1e3 * latency.quantile(0.50) if latency else 0.0
    metrics["obs.call_p99_ms"] = 1e3 * latency.quantile(0.99) if latency else 0.0
    metrics["instr.obs_on_ratio"] = quiet_wall(counted) / raw_wall
    everything = plain + sampled + counted
    cell_ms = [1e3 * w for b in plain for w in b.cell_walls]
    metrics["harness.import_s"] = session.import_s
    metrics["harness.generate_s"] = session.spans.total("generate")
    metrics["harness.build_s"] = statistics.median(b.build_s for b in everything)
    metrics["harness.stage_s"] = statistics.median(b.stage_s for b in everything)
    metrics["harness.verify_s"] = statistics.median(b.verify_s for b in plain)
    metrics["harness.wall_spread"] = _spread([b.wall for b in plain])
    metrics["harness.trace_overhead"] = wall_a / wall
    metrics["harness.samples"] = sampler.samples
    metrics["harness.cell_ms_p50"] = _percentile(cell_ms, 0.50)
    metrics["harness.cell_ms_p95"] = _percentile(cell_ms, 0.95)
    metrics["harness.rss_kb_per_client"] = (
        (peak_rss_kb() - session.rss_after_generate_kb) / max(b.clients_alive for b in everything)
    )
    metrics["calib.spin_s"] = session.calib["spin_s"]
    metrics["calib.engine_entries_per_s"] = session.engine_entries_per_s
    metrics["model.snfs_over_nfs"], metrics["model.paper_ratio_err"] = exact.model

    extra = {
        "samples_by_layer": dict(sampler.layers),
        "top_functions": sampler.top_functions(10),
        "latency_samples": latency.count if latency else 0,
        "cell_ms_samples": len(cell_ms),
        "sim_elapsed_s": exact.sim_elapsed,
        "obs_digest": merged["digest"],
        "spans": session.spans.rows,
    }
    return session.report("traced", seconds, metrics, exact, plain, extra)

