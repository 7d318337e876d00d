"""Determinism checkers.

One seed must reproduce a run bit-for-bit (that is what makes the
fault-injection harness and the paper-table regression tests
trustworthy), so simulation code may not consult ambient mutable state:
the process-global RNG, the wall clock, OS entropy, or hash-order
artifacts like set iteration.

Each checker reads the module's per-type node buckets and yields
``(rule, node, message)``; ids and severities live in
:data:`repro.analysis.linter.RULES`.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from .callgraph import Module, dotted

__all__ = ["DETERMINISM_CHECKS"]

Hit = Tuple[str, ast.AST, str]

_RNG_CONSTRUCTORS = {"Random", "SystemRandom"}  # DET004 vets their seeding

_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
}
_WALL_CLOCK_SUFFIX = (
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)

_SET_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
}


def global_random(module: Module) -> Iterator[Hit]:
    """``random.random()``, ``random.choice()``, ``random.seed()`` & co.
    share one hidden global state across the whole process: two
    experiments in one run perturb each other, and library imports can
    shift the stream between versions.  Construct a seeded
    ``random.Random(seed)`` and pass it down instead.
    """
    for node in module.by_type[ast.Call]:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "random"
            and func.attr not in _RNG_CONSTRUCTORS
        ):
            yield "DET001", node, (
                "call to the process-global RNG (random.%s); use a "
                "seeded random.Random instance plumbed from the "
                "experiment seed" % func.attr
            )


def wall_clock(module: Module) -> Iterator[Hit]:
    """Simulated time is ``sim.now``; real time and entropy differ run
    to run and machine to machine."""
    for node in module.by_type[ast.Call]:
        name = dotted(node.func)
        if name is not None and (
            name in _WALL_CLOCK
            or any(name == s or name.endswith("." + s) for s in _WALL_CLOCK_SUFFIX)
            or name.startswith("secrets.")
        ):
            yield "DET002", node, (
                "%s() reads the wall clock or OS entropy; simulation "
                "code must use sim.now / a seeded RNG" % name
            )


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
            return True
    return False


def set_iteration(module: Module) -> Iterator[Hit]:
    """Set iteration order follows hash seeds and insertion history;
    when the loop body schedules events or sends RPCs, that order
    becomes event order and runs stop being reproducible.  Model code
    only: iterate a list/dict (insertion-ordered) or wrap in
    ``sorted()``.
    """
    if not module.model_code:
        return
    # a for-loop and each generator of a comprehension both carry .iter
    for node in module.by_type[ast.For] + module.by_type[ast.comprehension]:
        if _is_set_expr(node.iter):
            yield "DET003", node.iter, (
                "iteration over a set: order depends on hashing, "
                "which leaks into event order; iterate a list/dict "
                "or sorted(...) instead"
            )


def unseeded_random(module: Module) -> Iterator[Hit]:
    """``random.Random()`` seeds itself from OS entropy, and
    ``random.SystemRandom`` cannot be seeded at all."""
    for node in module.by_type[ast.Call]:
        name = dotted(node.func)
        if name in ("SystemRandom", "random.SystemRandom"):
            yield "DET004", node, (
                "SystemRandom draws from OS entropy and cannot be "
                "seeded; use random.Random(seed)"
            )
        elif name in ("Random", "random.Random") and not node.args and not node.keywords:
            yield "DET004", node, (
                "random.Random() with no seed falls back to OS "
                "entropy; pass the experiment seed explicitly"
            )


DETERMINISM_CHECKS = (global_random, wall_clock, set_iteration, unseeded_random)
