"""Ablation experiments for the design decisions DESIGN.md calls out.

1. Write policy (§7: "Sprite's performance advantage over NFS comes
   mostly from its delayed write-back policy, not directly from the
   explicit cache consistency protocol") — SNFS with write-through
   forced, on the sort benchmark.
2. Delete-before-writeback cancellation (§4.2.3) — SNFS with
   cancellation disabled.
3. The invalidate-on-close client bug (§5.2) — NFS with the bug fixed.
4. Attribute-probe interval (§2.1) — NFS with fixed fast probes vs the
   adaptive 3–150 s schedule.
5. Delayed close (§6.2) — open/close RPC counts on the Andrew Make
   phase (repeatedly-opened header files).

Ablations 1–8 are rows of one shape (a labelled run, its elapsed time, one
RPC count) handed to :func:`_ablate`; baselines are Table 5-1/5-3 cells.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..host import HostConfig
from ..metrics import format_table
from ..nfs import NfsClientConfig
from ..snfs import SnfsClientConfig
from .andrew import run_andrew
from .consistency import run_consistency
from .memo import shared_run
from .sort import SORT_SIZES, run_sort

__all__ = [
    "ablation_write_policy",
    "ablation_delete_cancellation",
    "ablation_invalidate_bug",
    "ablation_probe_interval",
    "ablation_delayed_close",
    "ablation_name_cache",
    "ablation_consistent_dir_cache",
    "ablation_block_size",
    "ablation_lease",
    "all_ablations",
]

#: where each runner's result keeps its elapsed seconds
_ELAPSED = {run_sort: "elapsed", run_andrew: "total"}


def _ablate(title, runner, count_key, header, *variants) -> Tuple[str, Dict]:
    """One table row per variant ``(label, keys, args, config)``, run as
    ``runner(*args, **config)``: its label, then under ``header`` its
    elapsed seconds and its ``count_key`` RPCs (``"open+close"`` sums two
    rows of Table 5-2).  ``keys`` name, in ``header`` order, the measures
    the results dict keeps."""
    rows, results = [], {}
    for label, keys, args, config in variants:
        run = shared_run(runner, *args, **config)
        count = sum(run.rpc_rows.get(op, 0) for op in count_key.split("+"))
        measures = {"Elapsed (s)": getattr(run.result, _ELAPSED[runner])}
        values = [measures.get(column, count) for column in header[1:]]
        rows.append([label] + ["%.0f" % value for value in values])
        results.update(zip(keys, values))
    return format_table(list(header), rows, title=title), results


def ablation_write_policy(size: int = SORT_SIZES[1]) -> Tuple[str, Dict[str, float]]:
    """SNFS delayed-write vs SNFS write-through vs NFS, on the sort."""
    through = {"client_config": SnfsClientConfig(write_through=True)}
    return _ablate(
        "Ablation 1: the write policy is most of the win (§7)",
        run_sort, "write", ("Configuration", "Elapsed (s)", "Write RPCs"),
        ("SNFS (delayed write)", ("delayed",), ("snfs", size, True), {}),
        ("SNFS (write-through)", ("write_through",), ("snfs", size, True), through),
        ("NFS", ("nfs",), ("nfs", size, True), {}),
    )


def ablation_delete_cancellation(size: int = SORT_SIZES[1]) -> Tuple[str, Dict[str, int]]:
    """SNFS with and without delayed-write cancellation on delete."""
    off = {"client_config": SnfsClientConfig(cancel_on_delete=False)}
    return _ablate(
        "Ablation 2: delete-before-writeback cancellation (§4.2.3)",
        run_sort, "write", ("Configuration", "Write RPCs", "Elapsed (s)"),
        ("cancellation on (default)", ("with_cancel_writes",), ("snfs", size, False), {}),
        ("cancellation off", ("without_cancel_writes",), ("snfs", size, False), off),
    )


def ablation_invalidate_bug(size: int = SORT_SIZES[1]) -> Tuple[str, Dict[str, int]]:
    """How much of NFS's read traffic is the invalidate-on-close bug?"""
    fixed = {"client_config": NfsClientConfig(invalidate_on_close=False)}
    return _ablate(
        "Ablation 3: the invalidate-on-close client bug (§5.2)",
        run_sort, "read", ("Configuration", "Read RPCs", "Elapsed (s)"),
        ("NFS (paper's buggy client)", ("buggy_reads",), ("nfs", size, True), {}),
        ("NFS (bug fixed)", ("fixed_reads",), ("nfs", size, True), fixed),
    )


def ablation_probe_interval() -> Tuple[str, Dict[str, int]]:
    """Adaptive 3-150 s probes vs fixed 3 s probes on the Andrew run."""
    fixed = NfsClientConfig(attr_min_interval=3.0, attr_max_interval=3.0)
    return _ablate(
        "Ablation 4: NFS attribute-probe interval (§2.1)",
        run_andrew, "getattr", ("Configuration", "Getattr RPCs", "Elapsed (s)"),
        ("adaptive 3-150 s (default)", ("adaptive_getattrs",), ("nfs", True), {}),
        ("fixed 3 s", ("fixed_getattrs",), ("nfs", True), {"client_config": fixed}),
    )


def ablation_delayed_close() -> Tuple[str, Dict[str, int]]:
    """§6.2: delayed close removes most open/close RPCs from the Andrew
    run (header files are reopened constantly during Make)."""
    delayed = {"client_config": SnfsClientConfig(delayed_close=True)}
    return _ablate(
        "Ablation 5: delaying the SNFS close operation (§6.2)",
        run_andrew, "open+close", ("Configuration", "Open+Close RPCs", "Elapsed (s)"),
        ("immediate close (default)", ("base_openclose",), ("snfs", True), {}),
        ("delayed close (§6.2)", ("delayed_openclose",), ("snfs", True), delayed),
    )


def ablation_name_cache() -> Tuple[str, Dict[str, int]]:
    """§7: 'any mechanism that reduced the number of lookups would
    improve performance' — a TTL name cache on the Andrew run."""
    cached = {"client_config": NfsClientConfig(name_cache_ttl=30.0)}
    return _ablate(
        "Ablation 6: caching name translations (§7)",
        run_andrew, "lookup", ("Configuration", "Lookup RPCs", "Elapsed (s)"),
        ("no name cache (default)", ("base_lookups",), ("nfs", True), {}),
        ("30 s TTL name cache", ("cached_lookups",), ("nfs", True), cached),
    )


def ablation_consistent_dir_cache() -> Tuple[str, Dict[str, int]]:
    """§7's suggestion implemented exactly: SNFS directory-entry
    caching kept consistent by server name-invalidation callbacks."""
    cached = {"client_config": SnfsClientConfig(consistent_dir_cache=True)}
    return _ablate(
        "Ablation 7: Sprite-consistent directory-entry caching (§7)",
        run_andrew, "lookup", ("Configuration", "Lookup RPCs", "Elapsed (s)"),
        ("no dir cache (default)", ("base_lookups",), ("snfs", True), {}),
        ("consistent dir cache (§7)", ("cached_lookups",), ("snfs", True), cached),
    )


def ablation_block_size() -> Tuple[str, Dict[str, float]]:
    """The Table 5-2 footnote: "Because the Ultrix NFS implementation
    delays partial-block writes, it is more sensitive than SNFS to the
    'natural' file system block size used at the server ... NFS might
    have performed slightly better had we used an 8k byte block size."
    """
    hc, sc = HostConfig.titan_client(), HostConfig.titan_server()
    hc.block_size = sc.block_size = 8192
    big = {"host_config": hc, "server_config": sc}
    return _ablate(
        "Ablation 8: NFS block-size sensitivity (Table 5-2 footnote)",
        run_andrew, "write", ("Configuration", "Elapsed (s)", "Write RPCs"),
        # 4 KB is the Titans' configured block size: Table 5-1's own run
        ("4 KB blocks", ("total_4k", "writes_4k"), ("nfs", True), {}),
        ("8 KB blocks", ("total_8k", "writes_8k"), ("nfs", True), big),
    )


def ablation_lease() -> Tuple[str, Dict[str, int]]:
    """NQNFS-style leases under two sharing intensities.

    Heavy sharing (a write every 4 s against a 1 s reader) is the
    lease scheme's worst case: every conflicting open triggers a
    recall, so its wire traffic lands near SNFS's.  When writes are
    rare, the reader's lease just keeps getting renewed and nearly
    every read is served from cache with *zero* wire calls — while
    SNFS, whose server has both clients marked write-sharing, keeps
    every read synchronous.  Both regimes stay at zero stale reads.
    """
    rows, results = [], {}
    for label, kwargs in (
        ("heavy sharing", dict(write_period=4.0)),
        ("rare sharing", dict(n_updates=8, write_period=20.0)),
    ):
        for proto in ("nfs", "snfs", "lease"):
            o = run_consistency(proto, **kwargs)
            rows.append([label, proto.upper(), str(o.stale), str(o.rpc_calls)])
            results["%s_%s_stale" % (label.split()[0], proto)] = o.stale
            results["%s_%s_rpcs" % (label.split()[0], proto)] = o.rpc_calls
    table = format_table(
        ["Regime", "Protocol", "Stale reads", "Wire calls (incl. pushes)"],
        rows,
        title="Ablation 9: time-bounded leases vs probes and opens (NQNFS)",
    )
    return table, results


def all_ablations() -> str:
    ablations = [
        ablation_write_policy, ablation_delete_cancellation, ablation_invalidate_bug,
        ablation_probe_interval, ablation_delayed_close, ablation_name_cache,
        ablation_consistent_dir_cache, ablation_block_size, ablation_lease,
    ]
    return "\n\n".join(ablation()[0] for ablation in ablations)
