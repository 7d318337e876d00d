"""Simulation-discipline rules (SIM001-SIM004).

Process coroutines drive the discrete-event engine by yielding
waitables; these rules catch the ways that contract is silently
violated: yielding something the engine cannot wait on, calling a
process function instead of spawning it (the generator is created and
discarded — the code never runs), blocking on real OS I/O inside a
simulated process, and failing an event nobody is waiting on.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set, Tuple

from .linter import Module, Rule
from .rules_determinism import _dotted

__all__ = ["SIM_RULES"]


class YieldLiteralRule(Rule):
    """SIM001: ``yield <literal>`` in a process coroutine.

    The engine waits on Events/Timeouts/Processes and on a ``float``
    number of seconds; any other yielded literal — an ``int`` such as
    ``yield 5`` included — is not waitable, so the engine raises (or,
    worse, a wrapper treats the generator as a value stream and the
    process never advances).  A bare ``yield`` is allowed — it is the
    established idiom for making a non-blocking handler a coroutine
    (``return x; yield``).
    """

    id = "SIM001"

    def check(self, module: Module) -> Iterable[Tuple[ast.AST, str]]:
        if not module.scheduler_adjacent:
            return
        for fn in module.generator_functions():
            for node in ast.walk(fn):
                if not isinstance(node, ast.Yield) or node.value is None:
                    continue
                if module.enclosing_function(node) is not fn:
                    continue
                if (
                    isinstance(node.value, ast.Constant)
                    and type(node.value.value) is not float
                ):
                    yield node, (
                        "yield of a literal %r: the engine can only wait "
                        "on Event/Timeout/Process waitables or a float "
                        "number of seconds" % (node.value.value,)
                    )


class DiscardedGeneratorRule(Rule):
    """SIM002: a process function called as a statement.

    Calling a generator function just builds the generator object; as a
    bare expression statement the object is dropped and the body never
    executes.  The caller meant ``yield from fn(...)`` or
    ``sim.spawn(fn(...))``.
    """

    id = "SIM002"

    def _generator_names(self, module: Module) -> Tuple[Set[str], Dict[ast.ClassDef, Set[str]]]:
        mod_level: Set[str] = set()
        by_class: Dict[ast.ClassDef, Set[str]] = {}
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.FunctionDef) or not module.is_generator(node):
                continue
            parent = module.parents.get(node)
            if isinstance(parent, ast.Module):
                mod_level.add(node.name)
            elif isinstance(parent, ast.ClassDef):
                by_class.setdefault(parent, set()).add(node.name)
        return mod_level, by_class

    def check(self, module: Module) -> Iterable[Tuple[ast.AST, str]]:
        mod_level, by_class = self._generator_names(module)
        if not mod_level and not by_class:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Expr) or not isinstance(node.value, ast.Call):
                continue
            func = node.value.func
            if isinstance(func, ast.Name) and func.id in mod_level:
                yield node, (
                    "generator function %s() called and discarded; its "
                    "body never runs — use 'yield from %s(...)' or "
                    "sim.spawn(%s(...))" % (func.id, func.id, func.id)
                )
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
            ):
                cls = module.enclosing_class(node)
                if cls is not None and func.attr in by_class.get(cls, ()):
                    yield node, (
                        "generator method self.%s() called and discarded; "
                        "its body never runs — use 'yield from "
                        "self.%s(...)' or sim.spawn(self.%s(...))"
                        % (func.attr, func.attr, func.attr)
                    )


class RealBlockingIoRule(Rule):
    """SIM003: real blocking I/O inside a simulated process.

    ``time.sleep`` stalls the whole interpreter (simulated time does
    not advance — use ``yield <float seconds>``); sockets, subprocess
    and terminal input make the run depend on the outside world.
    """

    id = "SIM003"

    _DOTTED = {
        "time.sleep",
        "os.system",
        "socket.socket",
        "socket.create_connection",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
    }
    _BUILTINS = {"open", "input"}

    def check(self, module: Module) -> Iterable[Tuple[ast.AST, str]]:
        if not module.scheduler_adjacent:
            return
        for fn in module.generator_functions():
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                if module.enclosing_function(node) is not fn:
                    continue
                dotted = _dotted(node.func)
                if dotted in self._DOTTED:
                    what = dotted
                elif dotted in self._BUILTINS:
                    what = dotted
                else:
                    continue
                yield node, (
                    "%s() performs real blocking I/O inside a simulated "
                    "process; a simulated delay is 'yield <float seconds>' "
                    "(or 'yield sim.timeout(...)' for a timer that is kept) "
                    "and data comes from simulated devices" % what
                )


class DroppableFailureRule(Rule):
    """SIM004 (warning): failing an event that may have no waiters.

    ``event.fail(exc)`` hands the exception to the event's waiters; if
    there are none by the end of the run, the engine now surfaces it,
    crashing the simulation late and far from the cause.  Sites that
    fail an event they do not own should either ``defuse()`` it (the
    failure is reported some other way) or be sure a waiter exists.
    """

    id = "SIM004"
    severity = "warning"

    def check(self, module: Module) -> Iterable[Tuple[ast.AST, str]]:
        for fn in ast.walk(module.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defused: Set[str] = set()
            fails: List[Tuple[ast.AST, str]] = []
            for node in ast.walk(fn):
                if module.enclosing_function(node) is not fn:
                    continue
                if isinstance(node, ast.Attribute):
                    base = _dotted(node.value)
                    if node.attr == "defuse" and base is not None:
                        defused.add(base)
                if (
                    isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr == "fail"
                ):
                    base = _dotted(node.value.func.value)
                    if base is not None and base != "self":
                        fails.append((node, base))
            for node, base in fails:
                if base in defused:
                    continue
                yield node, (
                    "%s.fail(...) with no %s.defuse() in sight: if the "
                    "event has no waiters when the run ends, the failure "
                    "surfaces as a late crash; defuse it or guarantee a "
                    "waiter" % (base, base)
                )


SIM_RULES = [
    YieldLiteralRule,
    DiscardedGeneratorRule,
    RealBlockingIoRule,
    DroppableFailureRule,
]
