"""Workloads: the paper's benchmarks, driven through the syscall layer."""

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "AndrewBenchmark": ".andrew",
    "AndrewConfig": ".andrew",
    "AndrewResult": ".andrew",
    "ExternalSort": ".sort",
    "SortConfig": ".sort",
    "SortResult": ".sort",
    "make_input_records": ".sort",
    "edit_compile": ".editcompile",
    "WriteCloseReread": ".microbench",
    "LifetimeWorkload": ".lifetimes",
    "LifetimeConfig": ".lifetimes",
    "LifetimeResult": ".lifetimes",
    "ReadQuicklySlowly": ".microbench",
    "SharingResult": ".sharing",
    "run_sharing_experiment": ".sharing",
    "TreeSpec": ".tree",
    "SourceFile": ".tree",
    "make_tree": ".tree",
    "Trace": ".trace",
    "TraceOp": ".trace",
    "TraceReplayer": ".trace",
    "parse_trace": ".trace",
    "dump_trace": ".trace",
    "synthesize_trace": ".trace",
})
