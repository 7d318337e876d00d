"""The import surface: every ``repro`` symbol the harness depends on.

This is the only perfbench module that imports ``repro`` (a self-test
enforces it), so code-diet PRs can read one file to learn which public
entry points are load-bearing for the benchmark.  ``LocalFileSystem.check``
is reached through ``LocalMount.lfs`` and needs no import of its own.
"""

import os

import repro
from repro import (
    AndrewBenchmark,
    ExternalSort,
    NfsClientConfig,
    OpenMode,
    SortConfig,
    build_testbed,
    make_input_records,
    make_tree,
)
from repro.bench import run_engine_cell
from repro.experiments import ResilienceBed, build_sharded_cluster
from repro.experiments.cluster import build_cluster
from repro.faults import FaultPlan
from repro.nemesis import (
    ALL_PROTOCOLS,
    NEMESIS_PLANS,
    NEMESIS_WORKLOADS,
    cell_id,
    cell_seed,
    plan_events,
    run_cell,
    run_workload,
)
from repro.obs import QuantileDigest, merge_obs_documents, obs_document
from repro.sim import AllOf

#: where the imported package lives; the sampler classifies frames by it
REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__))

__all__ = [
    "ALL_PROTOCOLS",
    "AllOf",
    "AndrewBenchmark",
    "ExternalSort",
    "FaultPlan",
    "NEMESIS_PLANS",
    "NEMESIS_WORKLOADS",
    "NfsClientConfig",
    "OpenMode",
    "QuantileDigest",
    "REPRO_DIR",
    "ResilienceBed",
    "SortConfig",
    "build_cluster",
    "build_sharded_cluster",
    "build_testbed",
    "cell_id",
    "cell_seed",
    "make_input_records",
    "make_tree",
    "merge_obs_documents",
    "obs_document",
    "plan_events",
    "run_cell",
    "run_engine_cell",
    "run_workload",
]
