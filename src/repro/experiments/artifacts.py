"""The paper's artifacts: one ``name -> builder`` table.

The paper is a fixed set of tables, figures and demos, so there is one
table of them.  ``python -m repro table|figure|all``, the single-
artifact subcommands (``consistency``, ``micro`` ...) and the golden
output digests (:data:`repro.bench.golden.GOLDEN_OUTPUTS`) all resolve
a name here; each builder runs its experiment and returns the rendered
text.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..metrics import format_table
from ..snfs import StateTable
from .ablations import all_ablations
from .andrew import andrew_table_5_1, andrew_table_5_2
from .blocksharing import block_sharing_table
from .consistency import consistency_table
from .figures import figure_series, render_figure
from .lifetimes import lifetime_sweep
from .micro import micro_write_close_reread
from .readpattern import read_pattern_comparison
from .resilience import resilience_table
from .scaling import scaling_table
from .sort import sort_table_5_3, sort_table_5_4, sort_table_5_5, sort_table_5_6

__all__ = ["ARTIFACTS", "ALL_ARTIFACTS", "table_4_1"]


def table_4_1() -> str:
    """Key transitions, live from the state machine (the full
    enumeration lives in benchmarks/test_table_4_1.py)."""
    rows = []
    table = StateTable()
    table.open_file("f", "A", False)
    rows.append(["CLOSED", "open read", table.state_of("f").value])
    table.open_file("f", "B", True)
    rows.append(["ONE_READER", "other client opens write", table.state_of("f").value])
    table.close_file("f", "A", False)
    table.close_file("f", "B", True)
    rows.append(["WRITE_SHARED", "all closed", table.state_of("f").value])
    return format_table(
        ["From", "Event", "To"], rows,
        title="Table 4-1 (sample rows; run benchmarks/test_table_4_1.py for all)",
        align_left_cols=3,
    )


def _text(experiment: Callable) -> Callable[..., str]:
    """``experiment`` returns ``(text, data)``; the artifact is the text."""
    return lambda **kwargs: experiment(**kwargs)[0]


#: artifact name -> builder returning the rendered text, in the order
#: ``all`` prints them.  ``resilience`` alone takes an argument (``seed``).
ARTIFACTS: Dict[str, Callable[..., str]] = {
    "table-4-1": table_4_1,
    "table-5-1": _text(andrew_table_5_1),
    "table-5-2": _text(andrew_table_5_2),
    "table-5-3": _text(sort_table_5_3),
    "table-5-4": _text(sort_table_5_4),
    "table-5-5": _text(sort_table_5_5),
    "table-5-6": _text(sort_table_5_6),
    "figure-5-1": lambda: render_figure(figure_series("nfs")),
    "figure-5-2": lambda: render_figure(figure_series("snfs")),
    "consistency": _text(consistency_table),
    "micro": _text(micro_write_close_reread),
    "readpatterns": _text(read_pattern_comparison),
    "scaling": _text(scaling_table),
    "lifetimes": _text(lifetime_sweep),
    "blocksharing": _text(block_sharing_table),
    "ablations": all_ablations,
    "resilience": _text(resilience_table),
}

#: what ``python -m repro all`` prints: every artifact but the Table 4-1
#: sample (the benchmark prints the full table) and the seeded
#: fault-injection table
ALL_ARTIFACTS = tuple(
    name for name in ARTIFACTS if name not in ("table-4-1", "resilience")
)
