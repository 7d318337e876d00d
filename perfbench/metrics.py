"""The metric catalogue: what each number means and what it should move.

``BENCHMARK.json`` at the repository root is the contract (names, units,
directions, bounds); this file carries what that format has no room
for — each metric's definition and, for every per-layer metric, the
end-to-end metric it should move, the workload where its layer does
most of the work, and a workload where it does little, so that the
prediction there is *no change*.  A self-test keeps the two in step.

Clocks: unit ``s`` is host seconds (calibrated where the definition
says so: scaled to the reference box by the spin kernel, see
``harness.Session.calibrated``), ``sim_s``/``sim_ms`` are simulated
seconds/milliseconds.  ``exact`` metrics repeat bit-identically at one
seed; only a change to the model may move them.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

__all__ = ["END_TO_END", "PER_LAYER", "EndToEnd", "PerLayer"]


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    exact: bool
    definition: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str  #: the end-to-end metric it should move
    heavy: str  #: workload where the layer does most of the work
    light: str  #: workload where it does little: predict no change
    exact: bool
    definition: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("wall_s", "s", "lower", 0.25, False,
             "calibrated host seconds of one timed body (the cells' run calls): per slice of "
             "simulated time the fastest of the R repeats, summed, x SPIN_REF_S / calib.spin_s"),
    EndToEnd("setup_s", "s", "lower", 0.25, False,
             "calibrated host seconds of the program's set-up: import repro (median of 3 imports) "
             "+ median per repeat of (build + stage); input generation is harness.generate_s"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.25, False,
             "ru_maxrss of the untraced process at exit"),
    EndToEnd("sim_elapsed_s", "sim_s", "lower", 0.05, True,
             "sum over cells of simulated time inside the body"),
    EndToEnd("sim_io_ops", "count", "lower", 0.05, True,
             "RPC calls issued by any host (callbacks included, retransmissions not) "
             "+ disk transfers on every disk"),
    EndToEnd("sim_server_cpu_s", "sim_s", "lower", 0.05, True,
             "simulated CPU-busy seconds of the file-serving hosts (on localdisk the "
             "workstation is its own server): the paper's server-load axis"),
)

_SELF = "share of pass-A samples in %s x calibrated sampled body wall"
_ALL = "all"
#: cluster drops nothing either, but its overloaded NFS server's queue
#: outlasts the RPC timer, so it does retransmit and hit the dup cache
_CALM = "andrew, sort, localdisk (must read 0)"
_MODEL = "sim_elapsed_s, sim_io_ops, sim_server_cpu_s"

PER_LAYER: Tuple[PerLayer, ...] = (
    # -- host time by layer (pass A) ------------------------------------------
    PerLayer("sim.self_s", "s", "lower", "wall_s", "cluster, nemesis, andrew", "localdisk", False,
             _SELF % "repro/sim"),
    PerLayer("net.self_s", "s", "lower", "wall_s", "cluster, nemesis, andrew", "localdisk (0)", False,
             _SELF % "repro/net"),
    PerLayer("proto.self_s", "s", "lower", "wall_s", "nemesis, cluster", "localdisk (0)", False,
             _SELF % "repro/proto"),
    PerLayer("policy.self_s", "s", "lower", "wall_s", "nemesis, cluster", "localdisk (0)", False,
             _SELF % "repro/{nfs,snfs,rfs,kent,lease,lockd}"),
    PerLayer("vfs.self_s", "s", "lower", "wall_s", "localdisk", "cluster", False,
             _SELF % "repro/vfs"),
    PerLayer("storage.self_s", "s", "lower", "wall_s", "sort, andrew", "nemesis", False,
             _SELF % "repro/storage"),
    PerLayer("fs.self_s", "s", "lower", "wall_s", "localdisk", "cluster", False,
             _SELF % "repro/fs"),
    PerLayer("host.self_s", "s", "lower", "wall_s", "localdisk", "cluster", False,
             _SELF % "repro/host"),
    PerLayer("workloads.self_s", "s", "lower", "wall_s", "localdisk, sort", "cluster, nemesis", False,
             _SELF % "repro/workloads + perfbench/apps.py (the simulated application)"),
    PerLayer("instr.self_s", "s", "lower", "wall_s", "nemesis", "localdisk", False,
             _SELF % "repro/{metrics,obs,trace,analysis}"),
    PerLayer("harness.self_s", "s", "lower", "wall_s", "nemesis", "sort", False,
             _SELF % "repro/{experiments,bench,nemesis,faults,parallel} + perfbench"),
    PerLayer("sim.us_per_entry", "us", "lower", "wall_s", "cluster", "localdisk", False,
             "sim.self_s / sim.entries"),
    PerLayer("net.us_per_rpc", "us", "lower", "wall_s", "cluster", "localdisk (0)", False,
             "net.self_s / net.rpc_calls"),
    PerLayer("storage.us_per_access", "us", "lower", "wall_s", "sort", "nemesis", False,
             "storage.self_s / (cache hits + misses)"),
    # -- work counts (exact) ------------------------------------------------------
    PerLayer("sim.entries", "count", "lower", _MODEL, _ALL, "-", True,
             "scheduler sequence counter over the body (the one private read, sim._counter; 0 if absent)"),
    PerLayer("sim.entries_per_s", "1/s", "higher", "wall_s", "cluster", "localdisk", False,
             "sim.entries / untraced (calibrated) wall_s"),
    PerLayer("sim.engine_gap", "ratio", "lower", "wall_s", "cluster", "localdisk", False,
             "calib.engine_entries_per_s / (sim.entries / uncalibrated wall): both as this box ran "
             "them (ROADMAP target <= 2)"),
    PerLayer("net.rpc_calls", "count", "lower", _MODEL, _ALL, "localdisk (0)", True,
             "RPC calls issued, callbacks included"),
    PerLayer("net.rpc_retrans", "count", "lower", "sim_elapsed_s", "nemesis", _CALM, True,
             "retransmissions (client_stats '*.retransmit')"),
    PerLayer("net.rpc_dup_hits", "count", "lower", "sim_elapsed_s", "nemesis", _CALM, True,
             "retransmissions answered by the duplicate cache (registry rpc.dup_hits)"),
    PerLayer("net.packets", "count", "lower", _MODEL, _ALL, "localdisk (0)", True,
             "packets the network carried"),
    PerLayer("net.bytes", "count", "lower", _MODEL, _ALL, "localdisk (0)", True,
             "bytes the network carried"),
    PerLayer("net.dropped", "count", "lower", "sim_elapsed_s", "nemesis", _CALM, True,
             "packets lost, partitioned away or unroutable"),
    PerLayer("net.thread_wait_sim_s", "sim_s", "lower", "sim_elapsed_s", "cluster", "localdisk (0)", True,
             "queue-wait for server RPC threads (repro-obs/1 queueing.threads)"),
    PerLayer("policy.callback_rpcs", "count", "lower", _MODEL, "nemesis, cluster", "localdisk (0)", True,
             "server-to-client RPCs (callbacks, invalidates, revokes, vacates)"),
    PerLayer("policy.recovery_rejections", "count", "lower", "sim_elapsed_s", "nemesis", _CALM, True,
             "requests refused during crash recovery (registry recovery.rejections)"),
    PerLayer("storage.cache_hits", "count", "higher", _MODEL, _ALL, "-", True,
             "buffer-cache lookups that hit, all hosts"),
    PerLayer("storage.cache_misses", "count", "lower", _MODEL, _ALL, "-", True,
             "buffer-cache lookups that missed, all hosts"),
    PerLayer("storage.cache_hit_ratio", "ratio", "higher", _MODEL, "sort", "-", True,
             "hits / (hits + misses)"),
    PerLayer("storage.cancelled_writes", "count", "higher", _MODEL, "sort, andrew", "-", True,
             "useful vs wasted: dirty blocks deleted before the delayed-write policy sent them"),
    PerLayer("storage.disk_reads", "count", "lower", _MODEL, _ALL, "-", True,
             "disk read transfers, all disks"),
    PerLayer("storage.disk_writes", "count", "lower", _MODEL, _ALL, "-", True,
             "disk write transfers, all disks"),
    PerLayer("storage.disk_wait_sim_s", "sim_s", "lower", "sim_elapsed_s", "sort", "-", True,
             "queue-wait for disk arms (repro-obs/1 queueing.disk)"),
    PerLayer("host.cpu_wait_sim_s", "sim_s", "lower", "sim_elapsed_s", "cluster", "-", True,
             "queue-wait for CPUs (repro-obs/1 queueing.cpu): on cluster/nfs it rises "
             "before throughput stops rising"),
    # -- simulated-time attribution (exact, repro-obs/1) ---------------------------------
    PerLayer("obs.client_cpu_sim_s", "sim_s", "lower", "sim_elapsed_s", _ALL, "localdisk (0)", True,
             "RPC latency spent on the calling host's CPU"),
    PerLayer("obs.net_sim_s", "sim_s", "lower", "sim_elapsed_s", _ALL, "localdisk (0)", True,
             "RPC latency in transit (residual)"),
    PerLayer("obs.retrans_wait_sim_s", "sim_s", "lower", "sim_elapsed_s", "nemesis", _CALM, True,
             "RPC latency waiting on retransmit timers that fired"),
    PerLayer("obs.server_queue_sim_s", "sim_s", "lower", "sim_elapsed_s", "cluster", "localdisk (0)", True,
             "RPC latency queued for server threads and CPU"),
    PerLayer("obs.server_cpu_sim_s", "sim_s", "lower", "sim_server_cpu_s", _ALL, "localdisk (0)", True,
             "RPC latency in server CPU service"),
    PerLayer("obs.disk_sim_s", "sim_s", "lower", "sim_elapsed_s", "sort", "localdisk (0)", True,
             "RPC latency in server disk queue + service"),
    PerLayer("obs.server_other_sim_s", "sim_s", "lower", "sim_elapsed_s", "nemesis", "localdisk (0)", True,
             "server wall no server phase claims (locks, callbacks)"),
    PerLayer("obs.call_p50_ms", "sim_ms", "lower", "sim_elapsed_s", _ALL, "localdisk (0)", True,
             "median RPC latency, all procedures (merged quantile digests)"),
    PerLayer("obs.call_p99_ms", "sim_ms", "lower", "sim_elapsed_s", _ALL, "localdisk (0)", True,
             "99th-percentile RPC latency, all procedures"),
    # -- instrumentation -----------------------------------------------------------------
    PerLayer("instr.obs_on_ratio", "ratio", "lower", "wall_s", "nemesis", "localdisk", False,
             "pass-B body wall (repro.obs + metrics registry on) / untraced wall_s, both quiet-box"),
    # -- harness spans -------------------------------------------------------------------
    PerLayer("harness.import_s", "s", "lower", "setup_s", _ALL, "-", False,
             "importing repro through perfbench/surface.py: median of 3 imports in the fresh process"),
    PerLayer("harness.generate_s", "s", "lower", "-", "sort, localdisk", "nemesis, cluster", False,
             "make_tree / make_input_records / dealing the cluster's jobs: the load generator's "
             "own cost, outside setup_s"),
    PerLayer("harness.build_s", "s", "lower", "setup_s", "cluster", "nemesis (inside cells)", False,
             "median per body: constructing the testbeds"),
    PerLayer("harness.stage_s", "s", "lower", "setup_s", "sort, andrew", "nemesis, cluster", False,
             "median per body: populating /data/src, writing /input/unsorted, sync"),
    PerLayer("harness.verify_s", "s", "lower", "-", "sort", "nemesis", False,
             "median per body: reading outputs back and comparing"),
    PerLayer("harness.wall_spread", "ratio", "lower", "wall_s", _ALL, "-", False,
             "(max - min) / median of the raw untraced body walls in this run: the box's noise"),
    PerLayer("harness.trace_overhead", "ratio", "lower", "-", _ALL, "-", False,
             "pass-A (sampled) body wall / untraced wall_s, both quiet-box"),
    PerLayer("harness.samples", "count", "higher", "-", _ALL, "-", False,
             "SIGPROF ticks taken in pass A; shares are withheld below 200"),
    PerLayer("harness.cell_ms_p50", "ms", "lower", "wall_s", "nemesis", "-", False,
             "median per-cell body wall"),
    PerLayer("harness.cell_ms_p95", "ms", "lower", "wall_s", "nemesis", "-", False,
             "95th-percentile per-cell body wall"),
    PerLayer("harness.rss_kb_per_client", "KB", "lower", "peak_rss_mb", "cluster", "nemesis", False,
             "peak-RSS growth since input generation / simulated client hosts alive at once"),
    # -- calibration and model ---------------------------------------------------------------
    PerLayer("calib.spin_s", "s", "lower", "-", "-", "-", False,
             "fastest timing of the fixed pure-Python spin kernel, run 5 times before every body: "
             "the box, not the program"),
    PerLayer("calib.engine_entries_per_s", "1/s", "higher", "-", "-", "-", False,
             "repro.bench.run_engine_cell('timeout-chain', quick=True): ops / wall"),
    PerLayer("model.snfs_over_nfs", "ratio", "lower", "sim_elapsed_s", "andrew, sort, cluster", "localdisk (0)", True,
             "simulated elapsed SNFS / NFS (andrew /tmp remote, sort 2816 KB, cluster, "
             "nemesis calm cells); 0 = not applicable"),
    PerLayer("model.paper_ratio_err", "ratio", "lower", "sim_elapsed_s", "andrew, sort", "others (0)", True,
             "|ours - paper| / paper against 0.825 (Andrew, section 5.2) and 127/234 "
             "(sort, Table 5-3); 0 = the paper gives no reference"),
)
