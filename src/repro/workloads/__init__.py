"""Workloads: the paper's benchmarks, driven through the syscall layer."""

from .andrew import AndrewBenchmark, AndrewConfig, AndrewResult
from .editcompile import edit_compile
from .lifetimes import LifetimeConfig, LifetimeResult, LifetimeWorkload
from .microbench import ReadQuicklySlowly, WriteCloseReread
from .sharing import SharingResult, run_sharing_experiment
from .sort import ExternalSort, SortConfig, SortResult, make_input_records
from .trace import Trace, TraceOp, TraceReplayer, dump_trace, parse_trace, synthesize_trace
from .tree import SourceFile, TreeSpec, make_tree

__all__ = [
    "AndrewBenchmark",
    "AndrewConfig",
    "AndrewResult",
    "ExternalSort",
    "SortConfig",
    "SortResult",
    "make_input_records",
    "edit_compile",
    "WriteCloseReread",
    "LifetimeWorkload",
    "LifetimeConfig",
    "LifetimeResult",
    "ReadQuicklySlowly",
    "SharingResult",
    "run_sharing_experiment",
    "TreeSpec",
    "SourceFile",
    "make_tree",
    "Trace",
    "TraceOp",
    "TraceReplayer",
    "parse_trace",
    "dump_trace",
    "synthesize_trace",
]
