"""Experiment harnesses reproducing every table and figure in the paper."""

from .ablations import (
    ablation_block_size,
    ablation_consistent_dir_cache,
    ablation_delayed_close,
    ablation_name_cache,
    ablation_delete_cancellation,
    ablation_invalidate_bug,
    ablation_lease,
    ablation_probe_interval,
    ablation_write_policy,
    all_ablations,
)
from .blocksharing import BlockSharingResult, block_sharing_table, run_block_sharing
from .andrew import (
    ANDREW_CONFIGS,
    AndrewRun,
    andrew_table_5_1,
    andrew_table_5_2,
    run_andrew,
)
from .bed import PROTOCOL_REGISTRY, Bed, ProtocolSpec, build_bed, drive
from .cluster import (
    PROTOCOLS,
    Testbed,
    build_cluster,
    build_sharded_cluster,
    build_testbed,
)
from .consistency import ConsistencyOutcome, consistency_table, run_consistency
from .figures import FigureData, figure_series, render_figure
from .lifetimes import LifetimePoint, lifetime_sweep, run_lifetime_point
from .memo import shared_run
from .micro import micro_write_close_reread
from .readpattern import read_pattern_comparison
from .resilience import (
    ResilienceBed,
    ResilienceRun,
    resilience_table,
    run_resilience,
)
from .scaling import ScalingPoint, run_scaling_point, scaling_table
from .traced import TracedRun, run_traced_andrew, small_tree
from .window import Window
from .sort import (
    SORT_SIZES,
    SortRun,
    run_sort,
    sort_table_5_3,
    sort_table_5_4,
    sort_table_5_5,
    sort_table_5_6,
)

__all__ = [
    "build_testbed",
    "Testbed",
    "PROTOCOLS",
    "Window",
    "shared_run",
    "TracedRun",
    "run_traced_andrew",
    "small_tree",
    "run_andrew",
    "AndrewRun",
    "andrew_table_5_1",
    "andrew_table_5_2",
    "ANDREW_CONFIGS",
    "run_sort",
    "SortRun",
    "sort_table_5_3",
    "sort_table_5_4",
    "sort_table_5_5",
    "sort_table_5_6",
    "SORT_SIZES",
    "figure_series",
    "render_figure",
    "FigureData",
    "run_consistency",
    "block_sharing_table",
    "run_block_sharing",
    "BlockSharingResult",
    "consistency_table",
    "ConsistencyOutcome",
    "micro_write_close_reread",
    "read_pattern_comparison",
    "scaling_table",
    "lifetime_sweep",
    "run_lifetime_point",
    "LifetimePoint",
    "run_scaling_point",
    "ScalingPoint",
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
    "ResilienceBed",
    "ResilienceRun",
    "resilience_table",
    "run_resilience",
    "build_cluster",
    "build_sharded_cluster",
    "PROTOCOL_REGISTRY",
    "ProtocolSpec",
    "Bed",
    "build_bed",
    "drive",
]
