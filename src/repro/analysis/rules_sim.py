"""Simulation-discipline checkers.

Process coroutines drive the discrete-event engine by yielding
waitables; these checkers catch the ways that contract is silently
violated.  Like the determinism checkers they read the tables the
module's one walk left behind and yield ``(rule, node, message)``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set, Tuple

from .callgraph import Module, dotted

__all__ = ["SIM_CHECKS"]

Hit = Tuple[str, ast.AST, str]

_BLOCKING_IO = {
    "time.sleep",
    "os.system",
    "socket.socket",
    "socket.create_connection",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "open",
    "input",
}


def yield_literal(module: Module) -> Iterator[Hit]:
    """The engine waits on Events/Timeouts/Processes and on a ``float``
    number of seconds; any other yielded literal — an ``int`` such as
    ``yield 5`` included — is not waitable, so the engine raises (or,
    worse, a wrapper treats the generator as a value stream and the
    process never advances).  A bare ``yield`` is allowed — it is the
    established idiom for making a non-blocking handler a coroutine
    (``return x; yield``).
    """
    if not module.model_code:
        return
    for fn in module.functions.values():
        for node in fn.valued_yields:
            value = node.value
            if isinstance(value, ast.Constant) and type(value.value) is not float:
                yield "SIM001", node, (
                    "yield of a literal %r: the engine can only wait "
                    "on Event/Timeout/Process waitables or a float "
                    "number of seconds" % (value.value,)
                )


def discarded_generator(module: Module) -> Iterator[Hit]:
    """Calling a generator function just builds the generator object;
    as a bare expression statement the object is dropped and the body
    never executes.  The caller meant ``yield from fn(...)`` or
    ``sim.spawn(fn(...))``.
    """
    mod_level: Set[str] = set()
    by_class: Dict[ast.AST, Set[str]] = {}
    for fn in module.functions.values():
        if fn.is_generator:
            parent = module.parents[fn.node]
            if isinstance(parent, ast.Module):
                mod_level.add(fn.name)
            elif isinstance(parent, ast.ClassDef):
                by_class.setdefault(parent, set()).add(fn.name)
    for node in module.by_type[ast.Expr]:
        if not isinstance(node.value, ast.Call):
            continue
        func = node.value.func
        if isinstance(func, ast.Name) and func.id in mod_level:
            yield "SIM002", node, (
                "generator function %s() called and discarded; its "
                "body never runs — use 'yield from %s(...)' or "
                "sim.spawn(%s(...))" % (func.id, func.id, func.id)
            )
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            caller = module.functions.get(module.owner[node])
            cls = caller.class_info if caller is not None else None
            if cls is not None and func.attr in by_class.get(cls.node, ()):
                yield "SIM002", node, (
                    "generator method self.%s() called and discarded; "
                    "its body never runs — use 'yield from "
                    "self.%s(...)' or sim.spawn(self.%s(...))"
                    % (func.attr, func.attr, func.attr)
                )


def real_blocking_io(module: Module) -> Iterator[Hit]:
    """``time.sleep`` stalls the whole interpreter (simulated time does
    not advance — use ``yield <float seconds>``); sockets, subprocess
    and terminal input make the run depend on the outside world.
    """
    if not module.model_code:
        return
    for fn in module.functions.values():
        if not fn.is_generator:
            continue
        for node in fn.calls:
            what = dotted(node.func)
            if what in _BLOCKING_IO:
                yield "SIM003", node, (
                    "%s() performs real blocking I/O inside a simulated "
                    "process; a simulated delay is 'yield <float seconds>' "
                    "(or 'yield sim.timeout(...)' for a timer that is kept) "
                    "and data comes from simulated devices" % what
                )


def droppable_failure(module: Module) -> Iterator[Hit]:
    """``event.fail(exc)`` hands the exception to the event's waiters;
    if there are none by the end of the run, the engine now surfaces
    it, crashing the simulation late and far from the cause.  Sites
    that fail an event they do not own should either ``defuse()`` it
    (the failure is reported some other way) or be sure a waiter
    exists.
    """
    owner = module.owner
    defused = {
        (owner[node], dotted(node.value))
        for node in module.by_type[ast.Attribute]
        if node.attr == "defuse"
    }
    for node in module.by_type[ast.Expr]:
        call = node.value
        if (
            owner[node] is not None
            and isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "fail"
        ):
            base = dotted(call.func.value)
            if base not in (None, "self") and (owner[node], base) not in defused:
                yield "SIM004", node, (
                    "%s.fail(...) with no %s.defuse() in sight: if the "
                    "event has no waiters when the run ends, the failure "
                    "surfaces as a late crash; defuse it or guarantee a "
                    "waiter" % (base, base)
                )


SIM_CHECKS = (yield_literal, discarded_generator, real_blocking_io, droppable_failure)
