"""Static atomicity analysis: shared-state accesses across yields.

The runtime sanitizer (SimTSan) catches a read-modify-write that a
particular seed happens to interleave; this pass flags the *pattern*
across all schedules.  For every function that can suspend (per the
:mod:`~repro.analysis.callgraph` may-yield analysis) it walks the body
in source order, tracking accesses to shared locations:

* ``self.<attr>`` chains (state tables, caches, fd tables);
* locals aliased to shared state — ``c = self.client``,
  ``entry = self._entry(key)`` (the lookup-or-create accessor idiom),
  and loop variables iterating a shared container;

and the *guards* that make a crossing safe:

* a held lock — ``yield lock.acquire()`` … ``lock.release()``;
* an open flush span — ``cache.flush_begin(buf)`` … ``flush_end``
  (the stamp re-validation protocol makes the crossing safe);
* a ``# lint: ok=ATOM00x — reason`` suppression or a baseline entry.

A crossing is reported once per shared location, at
root-plus-one-attribute granularity (``self._entries``,
``entry.open_counts``); docs/ANALYSIS.md has the ATOM rule catalogue.

Writes are direct mutations only: assignments/deletions through a
shared root, the unambiguous container mutators (``pop``, ``clear``,
``update``, ``add``, ``discard``, …), and the state-table transition
API (``open_file``, ``close_file``, ``drop_client``, …).  Arbitrary
method calls on shared objects count as reads — mediated APIs carry
their own (runtime-sanitized) discipline.

Known soundness limits, by design: ``acquire`` on a capacity-N
resource is treated like a mutex, and a helper called only under a
caller-held lock still reports (suppress with a reason — the lock is
invisible from inside the helper).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .callgraph import FunctionInfo, ProjectIndex, chain

__all__ = ["check"]


#: container/table method names that mutate their receiver
_MUTATORS = frozenset(
    # builtin containers
    "pop popitem clear update setdefault add discard remove append extend "
    # the SNFS state-table transition API (repro.snfs.state_table)
    "open_file close_file drop drop_client drop_client_all rebuild_entry "
    "note_file_removed advance_versions".split()
)

#: (rule, access kind before the yield, kind after, message template)
_CROSSINGS = (
    (
        "ATOM001", "read", "write",
        "'%s' is read (line %d) and then written here across an "
        "unguarded yield (line %d): another process can interleave and "
        "this write clobbers its update",
    ),
    (
        "ATOM002", "write", "write",
        "'%s' is written (line %d) and written again here across an "
        "unguarded yield (line %d): the multi-step update is observable "
        "half-done",
    ),
    (
        "ATOM003", "write", "read",
        "'%s' was written (line %d) before an unguarded yield (line %d) "
        "and is re-read here: the value may reflect another process's "
        "interleaved update",
    ),
)


class _Access:
    __slots__ = ("idx", "kind", "node")

    def __init__(self, idx: int, kind: str, node: ast.AST):
        self.idx = idx
        self.kind = kind  # "read" | "write"
        self.node = node


class _FunctionScan:
    """Linear source-order walk of one function body."""

    def __init__(self, index: ProjectIndex, fn: FunctionInfo):
        self.index = index
        self.fn = fn
        self.suspension_ids = {id(n) for n in index.suspension_points(fn)}
        #: loc -> ordered accesses
        self.accesses: Dict[str, List[_Access]] = {}
        #: (event index, node) per unguarded suspension
        self.yields: List[Tuple[int, ast.AST]] = []
        #: (For node, loc) for snapshot loops containing unguarded yields
        self.snapshot_loops: List[Tuple[ast.For, str]] = []
        #: local name -> is shared-rooted
        self.aliases: Dict[str, bool] = {}
        #: loop variable -> the shared container it iterates, so writes
        #: through it count as mutations of the container (ATOM004)
        self.container_aliases: Dict[str, str] = {}
        self.lock_depth = 0
        self.flush_depth = 0
        self._clock = 0
        self._walk_stmts(fn.node.body)

    # -- event stream ------------------------------------------------------

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _emit_access(self, kind: str, loc: Optional[str], node: ast.AST) -> None:
        if loc is None:
            return
        self.accesses.setdefault(loc, []).append(_Access(self._tick(), kind, node))

    def _emit_yield(self, node: ast.AST) -> None:
        if self.lock_depth > 0 or self.flush_depth > 0:
            self._tick()  # guarded: advances time but is not a crossing
            return
        self.yields.append((self._tick(), node))

    # -- location & alias resolution ---------------------------------------

    def _loc(self, node: ast.AST) -> Optional[str]:
        """Root-plus-one-attribute key for a shared access, or None."""
        parts = chain(node, through=(ast.Subscript,))
        root = parts[0]
        if root == "self":
            return "self.%s" % parts[1] if len(parts) > 1 else None
        if root is not None and self.aliases.get(root):
            return root if len(parts) == 1 else "%s.%s" % (root, parts[1])
        return None

    def _is_shared_expr(self, node: ast.AST) -> bool:
        """Does this RHS evaluate to (a handle on) shared state?"""
        cur = node
        while isinstance(cur, (ast.Attribute, ast.Subscript)):
            cur = cur.value
        if isinstance(cur, ast.Name):
            return cur.id == "self" or bool(self.aliases.get(cur.id))
        if isinstance(cur, ast.Call):
            func = cur.func
            # accessor call: self._entry(key), c.cache.lookup(key), ...
            if isinstance(func, ast.Attribute) and self._is_shared_expr(func.value):
                targets = self.index.resolve_call(cur, self.fn)
                if targets:
                    return any(self.index.is_shared_accessor(t) for t in targets)
        return False

    def _bind(self, target: ast.AST, shared: bool) -> None:
        if isinstance(target, ast.Name):
            self.aliases[target.id] = shared
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, shared)

    # -- statements --------------------------------------------------------

    def _walk_stmts(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested definitions are separate functions
        if isinstance(stmt, ast.Assign):
            self._expr(stmt.value)
            for target in stmt.targets:
                self._write_target(target, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._expr(stmt.value)
                self._write_target(stmt.target, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self._expr(stmt.value)
            loc = self._loc(stmt.target)
            self._emit_access("read", loc, stmt.target)
            self._emit_access("write", loc, stmt.target)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._emit_access("write", self._loc(target), target)
        elif isinstance(stmt, ast.Expr):
            self._expr(stmt.value)
        elif isinstance(stmt, ast.Return):
            self._expr(stmt.value)
        elif isinstance(stmt, ast.If):
            self._expr(stmt.test)
            self._walk_stmts(stmt.body)
            self._walk_stmts(stmt.orelse)
        elif isinstance(stmt, ast.For):
            self._walk_for(stmt)
        elif isinstance(stmt, ast.While):
            self._expr(stmt.test)
            self._walk_stmts(stmt.body)
            self._walk_stmts(stmt.orelse)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._expr(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(
                        item.optional_vars,
                        self._is_shared_expr(item.context_expr),
                    )
            self._walk_stmts(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._walk_stmts(stmt.body)
            for handler in stmt.handlers:
                self._walk_stmts(handler.body)
            self._walk_stmts(stmt.orelse)
            self._walk_stmts(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            self._expr(getattr(stmt, "exc", None) or getattr(stmt, "test", None))
            self._expr(getattr(stmt, "cause", None) or getattr(stmt, "msg", None))

    def _write_target(self, target: ast.AST, value: ast.AST) -> None:
        if isinstance(target, (ast.Name, ast.Tuple, ast.List)):
            self._bind(target, self._is_shared_expr(value))
            return
        self._emit_access("write", self._loc(target), target)

    def _walk_for(self, stmt: ast.For) -> None:
        self._expr(stmt.iter)
        snap_loc = self._snapshot_loc(stmt.iter)
        iter_shared = snap_loc is not None or self._is_shared_expr(stmt.iter)
        self._bind(stmt.target, iter_shared)
        if snap_loc is not None and isinstance(stmt.target, (ast.Tuple, ast.Name)):
            # elements of a shared container alias the container itself
            self._alias_to_container(stmt.target, snap_loc)
        yields_before = len(self.yields)
        self._walk_stmts(stmt.body)
        self._walk_stmts(stmt.orelse)
        if snap_loc is not None and len(self.yields) > yields_before:
            self.snapshot_loops.append((stmt, snap_loc))

    def _alias_to_container(self, target: ast.AST, loc: str) -> None:
        if isinstance(target, ast.Name):
            self.container_aliases[target.id] = loc
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._alias_to_container(elt, loc)

    def _snapshot_loc(self, iter_expr: ast.AST) -> Optional[str]:
        """``list(shared)`` / ``sorted(shared.items())`` -> the shared loc."""
        if not (
            isinstance(iter_expr, ast.Call)
            and isinstance(iter_expr.func, ast.Name)
            and iter_expr.func.id in ("list", "sorted", "tuple")
            and iter_expr.args
        ):
            return None
        arg = iter_expr.args[0]
        if (
            isinstance(arg, ast.Call)
            and isinstance(arg.func, ast.Attribute)
            and arg.func.attr in ("items", "keys", "values")
        ):
            arg = arg.func.value
        return self._loc(arg)

    # -- expressions -------------------------------------------------------

    def _expr(self, node: Optional[ast.AST]) -> None:
        if node is None:
            return
        if isinstance(node, ast.Yield):
            value = node.value
            if value is None:
                return  # the `return x; yield` dead-code idiom
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "acquire"
            ):
                self.lock_depth += 1
                self._tick()
                return
            self._expr(value)
            self._emit_yield(node)
            return
        if isinstance(node, ast.YieldFrom):
            self._expr(node.value)
            if id(node) in self.suspension_ids:
                self._emit_yield(node)
            return
        if isinstance(node, ast.Call):
            self._call(node)
            return
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            self._emit_access("read", self._loc(node), node)
            if isinstance(node, ast.Subscript):
                self._expr(node.slice)
            return
        if isinstance(node, ast.Name):
            if self.aliases.get(node.id):
                self._emit_access("read", node.id, node)
            return
        if isinstance(node, (ast.Lambda,)):
            return
        for child in ast.iter_child_nodes(node):
            self._expr(child)

    def _call(self, node: ast.Call) -> None:
        func = node.func
        attr = func.attr if isinstance(func, ast.Attribute) else None
        if attr == "flush_begin":
            self.flush_depth += 1
            return
        if attr == "flush_end":
            self.flush_depth = max(0, self.flush_depth - 1)
            return
        if attr == "release":
            self.lock_depth = max(0, self.lock_depth - 1)
            return
        for arg in node.args:
            self._expr(arg)
        for kw in node.keywords:
            self._expr(kw.value)
        if isinstance(func, ast.Attribute):
            loc = self._loc(func.value)
            if loc is None:
                # a call through a container alias's element: writes
                # through loop vars mutate the container (ATOM004)
                loc = self._container_loc(func.value)
                if loc is not None and attr in _MUTATORS:
                    self._emit_access("write", loc, node)
                self._expr(func.value)
                return
            kind = "write" if attr in _MUTATORS else "read"
            self._emit_access(kind, loc, node)
        elif isinstance(func, ast.Name):
            if self.aliases.get(func.id):
                self._emit_access("read", func.id, func)

    def _container_loc(self, node: ast.AST) -> Optional[str]:
        return self.container_aliases.get(chain(node, through=(ast.Subscript,))[0])

    # -- findings ----------------------------------------------------------

    def findings(self) -> Iterator[Tuple]:
        """One raw finding per shared location; the strongest rule wins."""
        fn = self.fn
        reported = set()
        for loc in sorted(self.accesses):
            hit = self._crossing(loc)
            if hit is not None:
                reported.add(loc)
                rule, node, message = hit
                yield rule, fn.module, node, message, fn.qualname, loc
        for stmt, loc in self.snapshot_loops:
            if loc in reported:
                continue  # the stronger crossing rule already covers it
            if not any(a.kind == "write" for a in self.accesses.get(loc, ())):
                continue
            reported.add(loc)
            message = (
                "loop iterates a snapshot of '%s' across unguarded "
                "yields while the function mutates it: entries added "
                "during the loop are missed, removed ones acted upon" % loc
            )
            yield "ATOM004", fn.module, stmt, message, fn.qualname, loc

    def _crossing(self, loc: str) -> Optional[Tuple[str, ast.AST, str]]:
        accesses = self.accesses[loc]
        for rule, before_kind, after_kind, template in _CROSSINGS:
            for yidx, ynode in self.yields:
                before = [a for a in accesses if a.idx < yidx and a.kind == before_kind]
                after = [a for a in accesses if a.idx > yidx and a.kind == after_kind]
                if before and after:
                    message = template % (loc, before[0].node.lineno, ynode.lineno)
                    return rule, after[0].node, message
        return None


def check(index: ProjectIndex) -> Iterator[Tuple]:
    """The atomicity pass: raw ATOM findings over every process function."""
    for fn in index.functions.values():
        if fn.is_generator:
            yield from _FunctionScan(index, fn).findings()
