"""The project index: every file parsed once, walked once, resolved once.

:func:`index_paths` reads and parses each ``.py`` under its paths into
one :class:`Module`; a :class:`ProjectIndex` over those modules is what
every static pass consumes (see :mod:`~repro.analysis.linter`).

A :class:`Module` walks its tree a single time and leaves behind the
tables the checkers read instead of re-walking: parent links, each
node's owning ``def``, the nodes bucketed by type, and per function the
facts the call graph needs (:class:`FunctionInfo`) — valued ``yield``s
(always a suspension: the value is a waitable), bare ``yield``s (the
dead-code idiom ``return x; yield`` — *not* a suspension), ``yield
from`` expressions, calls, and the ``sim.spawn(f(...))`` /
``sim.after(d, f)`` sites that *create* processes (edges for root
discovery; the caller does not suspend at a spawn).

The simulator's interleaving points are exactly the ``yield``s, so
static reasoning about atomicity needs, for every function, the answer
to "can control leave this function mid-body?".  :class:`ProjectIndex`
solves that **may-yield** fixpoint across modules: a function may yield
if it has a valued yield of its own, or a ``yield from`` whose callee
may yield, or a ``yield from`` whose callee cannot be resolved
(conservative).

Resolution is name-based and deliberately conservative:
``self.m(...)`` and ``super().m(...)`` resolve through the enclosing
class's base-name chain; ``obj.m(...)`` falls back to every method
named ``m`` in the index; a plain name resolves to module-level
functions of that name.  Unresolvable targets are assumed to yield.
"""

from __future__ import annotations

import ast
import io
import os
import tokenize
from collections import defaultdict, deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = [
    "HARNESS_PACKAGES",
    "Module",
    "FunctionInfo",
    "ClassInfo",
    "ProjectIndex",
    "index_paths",
    "chain",
    "dotted",
]

#: The one partition of ``src/repro``.  These subpackages ("" is the
#: top-level CLI glue) drive, observe or report on simulations from
#: outside; every other subpackage is *model code*: it runs inside (or
#: feeds) the event loop, so iteration order there becomes event order
#: and it reports through ``sim.probe`` only.
HARNESS_PACKAGES = frozenset(
    {"", "analysis", "bench", "experiments", "metrics", "nemesis", "obs",
     "parallel", "trace"}
)

#: builtins that never suspend, so a ``yield from`` cannot reach them
#: and resolution may treat them as terminal non-yielding callees
_PURE_BUILTINS = frozenset(
    "list sorted tuple dict set frozenset range iter enumerate zip "
    "reversed min max sum len abs repr str bytes int float bool".split()
)

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def chain(node: ast.AST, through: tuple = ()) -> List[Optional[str]]:
    """The names along an attribute chain, root first.

    ``a.b.c`` gives ``["a", "b", "c"]``; node types listed in
    ``through`` (``ast.Subscript``, ``ast.Call``) are stepped over, so
    ``self.t[k].n`` gives ``["self", "t", "n"]``.  A root that is not a
    plain name contributes ``None``.
    """
    parts: List[Optional[str]] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, through):
            node = node.func if isinstance(node, ast.Call) else node.value
        else:
            break
    parts.append(node.id if isinstance(node, ast.Name) else None)
    parts.reverse()
    return parts


def dotted(node: ast.AST) -> Optional[str]:
    """``"a.b.c"`` for an Attribute/Name chain, else None."""
    parts = chain(node)
    return None if parts[0] is None else ".".join(parts)


def _parse_suppressions(source: str) -> Dict[int, Tuple[Optional[Set[str]], str]]:
    """Parse ``# lint: ok[=RULES][ — reason]`` comments.

    Returns line -> (None (suppress all) or rule-id set, the
    justifying reason, "" when absent).
    """
    out: Dict[int, Tuple[Optional[Set[str]], str]] = {}
    if "lint:" not in source:
        return out
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type != tokenize.COMMENT:
                continue
            text = tok.string.lstrip("#").strip()
            if not text.startswith("lint:"):
                continue
            directive = text[len("lint:"):].strip()
            reason = ""
            for sep in ("—", "--"):  # em-dash or ASCII fallback
                if sep in directive:
                    directive, reason = directive.split(sep, 1)
                    directive = directive.strip()
                    reason = reason.strip()
                    break
            if directive == "ok":
                out[tok.start[0]] = (None, reason)
            elif directive.startswith("ok="):
                rules = {r.strip() for r in directive[3:].split(",") if r.strip()}
                out[tok.start[0]] = (rules, reason)
    except tokenize.TokenError:
        pass
    return out


class FunctionInfo:
    """One function or method definition plus its suspension structure."""

    __slots__ = (
        "module",
        "node",
        "name",
        "qualname",
        "class_info",
        "valued_yields",
        "bare_yields",
        "yieldfroms",
        "calls",
        "spawn_sites",
        "after_sites",
    )

    def __init__(self, module: Module, node: ast.FunctionDef, class_info=None):
        self.module = module
        self.node = node
        self.name = node.name
        self.class_info: Optional[ClassInfo] = class_info
        self.qualname = (
            "%s.%s" % (class_info.name, node.name) if class_info else node.name
        )
        #: ``yield <value>`` expressions of its own (genuine suspensions)
        self.valued_yields: List[ast.Yield] = []
        #: ``yield`` with no value: the dead-code/coroutine-marker idiom
        self.bare_yields: List[ast.Yield] = []
        #: every ``yield from`` expression owned by this function
        self.yieldfroms: List[ast.YieldFrom] = []
        #: every call expression owned by this function
        self.calls: List[ast.Call] = []
        #: ``sim.spawn(f(...))`` call sites (process roots)
        self.spawn_sites: List[ast.Call] = []
        #: ``sim.after(delay, f, ...)`` call sites (timer roots)
        self.after_sites: List[ast.Call] = []

    @property
    def local_suspends(self) -> bool:
        return bool(self.valued_yields)

    @property
    def is_generator(self) -> bool:
        return bool(self.valued_yields or self.bare_yields or self.yieldfroms)

    def region(self) -> Tuple[str, str, int, int]:
        """(path, qualname, first line, last line) of this definition."""
        return (self.module.path, self.qualname, self.node.lineno, self.node.end_lineno)

    def __repr__(self) -> str:
        return "<FunctionInfo %s at %s:%d>" % (
            self.qualname, self.module.path, self.node.lineno,
        )


class ClassInfo:
    """One class definition: its methods, base names, and class attrs."""

    __slots__ = ("module", "node", "name", "base_names", "methods", "assigns")

    def __init__(self, module: Module, node: ast.ClassDef):
        self.module = module
        self.node = node
        self.name = node.name
        #: ``Base`` or ``pkg.Base`` -> ``"Base"``; anything fancier is dropped
        self.base_names = [b for b in (chain(base)[-1] for base in node.bases) if b]
        self.methods: Dict[str, FunctionInfo] = {}
        #: class-level ``name = value`` assignments (protocol knobs)
        self.assigns: Dict[str, ast.AST] = {}
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.assigns[target.id] = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                if isinstance(stmt.target, ast.Name):
                    self.assigns[stmt.target.id] = stmt.value

    def __repr__(self) -> str:
        return "<ClassInfo %s at %s:%d>" % (
            self.name, self.module.path, self.node.lineno,
        )


class Module:
    """One source file, parsed once and walked once."""

    def __init__(self, path: str, source: str, package_root: Optional[str] = None):
        self.path = path
        # where does this file sit relative to the package?
        self.subpackage = self._subpackage(path, package_root)
        #: why the file did not parse, else None; such a module is empty
        #: (no nodes, no suppressions) and draws the PARSE finding
        self.syntax_error: Optional[SyntaxError] = None
        try:
            self.tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.tree, source = ast.Module(body=[], type_ignores=[]), ""
            self.syntax_error = exc
        #: line -> (rule ids its ``# lint: ok`` covers or None for all, reason)
        self.suppressions = _parse_suppressions(source)
        #: parent links (ast has none): node -> enclosing node
        self.parents: Dict[ast.AST, ast.AST] = {}
        #: node -> the ``def`` whose body owns it (None at module level)
        self.owner: Dict[ast.AST, Optional[ast.AST]] = {self.tree: None}
        #: every node, bucketed by exact type: what the checkers iterate
        self.by_type: Dict[type, List[ast.AST]] = defaultdict(list)
        #: ``def`` node -> its facts / ``class`` node -> its facts
        self.functions: Dict[ast.AST, FunctionInfo] = {}
        self.classes: Dict[ast.AST, ClassInfo] = {}
        self._walk()

    def _walk(self) -> None:
        """The one pass over the tree, breadth-first like ``ast.walk``."""
        parents, owner, by_type = self.parents, self.owner, self.by_type
        klass: Dict[ast.AST, Optional[ast.AST]] = {self.tree: None}
        todo = deque([self.tree])
        while todo:
            node = todo.popleft()
            kind = type(node)
            by_type[kind].append(node)
            # what this node's children belong to: its own context, unless
            # the node is itself a class or a def
            child_fn, child_cls = owner[node], klass[node]
            if kind is ast.ClassDef:
                # even method-less classes: a policy that only declares
                # class attributes still has seam contracts
                self.classes[node] = ClassInfo(self, node)
                child_cls = node
            elif kind in _DEFS:
                if kind is ast.FunctionDef:
                    cls = self.classes.get(child_cls)
                    self.functions[node] = info = FunctionInfo(self, node, cls)
                    if cls is not None:
                        cls.methods.setdefault(info.name, info)
                child_fn = node
            elif child_fn in self.functions:
                self._record(self.functions[child_fn], kind, node)
            for child in ast.iter_child_nodes(node):
                parents[child] = node
                owner[child] = child_fn
                klass[child] = child_cls
                todo.append(child)

    @staticmethod
    def _record(fn: FunctionInfo, kind: type, node: ast.AST) -> None:
        """File ``node`` under the facts of ``fn``, the def that owns it."""
        if kind is ast.Yield:
            (fn.bare_yields if node.value is None else fn.valued_yields).append(node)
        elif kind is ast.YieldFrom:
            fn.yieldfroms.append(node)
        elif kind is ast.Call:
            fn.calls.append(node)
            callee = chain(node.func)[-1]
            if callee == "spawn" and node.args:
                fn.spawn_sites.append(node)
            elif callee == "after" and len(node.args) >= 2:
                fn.after_sites.append(node)

    @staticmethod
    def _subpackage(path: str, package_root: Optional[str]) -> Optional[str]:
        norm = path.replace(os.sep, "/")
        root = package_root and package_root.replace(os.sep, "/").rstrip("/") + "/"
        if root and norm.startswith(root):
            rel = norm[len(root):]
        elif "/repro/" in norm:
            rel = norm.rsplit("/repro/", 1)[1]
        else:
            return None
        return rel.split("/", 1)[0] if "/" in rel else ""

    @property
    def model_code(self) -> bool:
        """Outside :data:`HARNESS_PACKAGES`?  Unknown provenance
        (fixtures, tests) counts as model code: apply every rule."""
        return self.subpackage not in HARNESS_PACKAGES

    def qualname_at(self, node: ast.AST) -> str:
        """Qualified name of the ``def`` owning ``node`` ("" at module level)."""
        fn = self.owner.get(node)
        if fn is None:
            return ""
        info = self.functions.get(fn)
        return info.qualname if info is not None else fn.name

    def suppressed(self, rule: str, line: int) -> bool:
        if line not in self.suppressions:
            return False
        rules, _reason = self.suppressions[line]
        if rule == "SUP001":
            # the suppression-audit rule cannot be silenced by the very
            # bare `ok` it is auditing; only an explicit ok=SUP001 can
            return rules is not None and rule in rules
        return rules is None or rule in rules


class ProjectIndex:
    """Functions, classes, and the may-yield fixpoint over a module set."""

    def __init__(self, modules: Sequence[Module]):
        self.modules = list(modules)
        self.by_path: Dict[str, Module] = {m.path: m for m in self.modules}
        #: (module path, qualname) -> FunctionInfo
        self.functions: Dict[Tuple[str, str], FunctionInfo] = {}
        #: simple class name -> every definition with that name
        self.classes: Dict[str, List[ClassInfo]] = {}
        #: method name -> every method with that name, any class
        self.methods_by_name: Dict[str, List[FunctionInfo]] = {}
        #: module-level function name -> definitions
        self.module_functions: Dict[str, List[FunctionInfo]] = {}
        #: pass name -> its findings before suppression, kept by
        #: :func:`repro.analysis.linter.raw_findings`
        self.raw: Dict[str, list] = {}
        self._may_yield: Dict[FunctionInfo, bool] = {}
        self._accessor_memo: Dict[FunctionInfo, bool] = {}
        for module in self.modules:
            for cls in module.classes.values():
                self.classes.setdefault(cls.name, []).append(cls)
            for fn in module.functions.values():
                self.functions[(module.path, fn.qualname)] = fn
                if fn.class_info is not None:
                    self.methods_by_name.setdefault(fn.name, []).append(fn)
                elif module.owner[fn.node] is None:
                    self.module_functions.setdefault(fn.name, []).append(fn)
        self._solve_may_yield()

    # -- method resolution -------------------------------------------------

    def mro(self, cls: ClassInfo) -> List[ClassInfo]:
        """Linearised base chain by simple-name lookup (cycle-safe)."""
        out: List[ClassInfo] = []
        seen = set()
        queue = [cls]
        while queue:
            cur = queue.pop(0)
            if id(cur) in seen:
                continue
            seen.add(id(cur))
            out.append(cur)
            for base in cur.base_names:
                queue.extend(self.classes.get(base, ()))
        return out

    def resolve_method(self, cls: ClassInfo, name: str) -> Optional[FunctionInfo]:
        for candidate in self.mro(cls):
            if name in candidate.methods:
                return candidate.methods[name]
        return None

    def subclasses_of(self, base_name: str) -> List[ClassInfo]:
        """Every class whose transitive base-name chain reaches ``base_name``."""
        out = []
        for infos in self.classes.values():
            for info in infos:
                if info.name == base_name:
                    continue
                if any(c.name == base_name for c in self.mro(info)[1:]):
                    out.append(info)
        out.sort(key=lambda c: (c.module.path, c.node.lineno))
        return out

    def resolve_call(
        self, call: ast.AST, caller: FunctionInfo
    ) -> Optional[List[FunctionInfo]]:
        """Candidate callees of a call expression.

        Returns ``None`` when the target cannot be resolved at all
        (the conservative may-yield answer), and a — possibly empty —
        candidate list otherwise.  An empty list means "resolved to
        something known not to suspend" (a pure builtin).
        """
        if not isinstance(call, ast.Call):
            return None
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in _PURE_BUILTINS:
                return []
            local = [
                f
                for f in self.module_functions.get(func.id, ())
                if f.module is caller.module
            ]
            if local:
                return local
            anywhere = self.module_functions.get(func.id)
            return list(anywhere) if anywhere else None
        if isinstance(func, ast.Attribute):
            name = func.attr
            base = func.value
            # super().m(...)
            if (
                isinstance(base, ast.Call)
                and isinstance(base.func, ast.Name)
                and base.func.id == "super"
                and caller.class_info is not None
            ):
                for candidate in self.mro(caller.class_info)[1:]:
                    if name in candidate.methods:
                        return [candidate.methods[name]]
                return None
            # self.m(...)
            if (
                isinstance(base, ast.Name)
                and base.id == "self"
                and caller.class_info is not None
            ):
                found = self.resolve_method(caller.class_info, name)
                if found is not None:
                    return [found]
                # fall through: mixin methods resolved globally
            candidates = self.methods_by_name.get(name)
            if candidates:
                return list(candidates)
            plain = self.module_functions.get(name)
            return list(plain) if plain else None
        return None

    # -- may-yield ---------------------------------------------------------

    def _suspends_at(self, yf: ast.YieldFrom, fn: FunctionInfo) -> bool:
        targets = self.resolve_call(yf.value, fn)
        return targets is None or any(self._may_yield[t] for t in targets)

    def _solve_may_yield(self) -> None:
        may = self._may_yield
        for fn in self.functions.values():
            may[fn] = fn.local_suspends
        changed = True
        while changed:
            changed = False
            for fn in self.functions.values():
                if not may[fn] and any(self._suspends_at(yf, fn) for yf in fn.yieldfroms):
                    may[fn] = changed = True

    def may_yield(self, fn: FunctionInfo) -> bool:
        return self._may_yield[fn]

    def suspension_points(self, fn: FunctionInfo) -> List[ast.AST]:
        """Every expression in ``fn`` at which control may leave the
        function: valued yields, plus yield-froms whose callee may
        yield (or is unresolvable)."""
        points: List[ast.AST] = list(fn.valued_yields)
        points += [yf for yf in fn.yieldfroms if self._suspends_at(yf, fn)]
        points.sort(key=lambda n: (n.lineno, n.col_offset))
        return points

    # -- shared-accessor heuristic (used by the atomicity pass) ------------

    def is_shared_accessor(self, fn: FunctionInfo) -> bool:
        """Does ``fn`` return (a handle to) shared ``self`` state?

        True for the ``_entry``/``_token``/``_gnode`` lookup-or-create
        idiom: any ``return`` whose expression is rooted at a ``self``
        attribute, or at a local previously assigned from one.
        """
        memo = self._accessor_memo
        if fn in memo:
            return memo[fn]
        self_rooted = set()
        result = False
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and _rooted_at_self(node.value):
                    self_rooted.add(target.id)
            elif isinstance(node, ast.Return) and node.value is not None:
                value = node.value
                if _rooted_at_self(value):
                    result = True
                elif isinstance(value, ast.Name) and value.id in self_rooted:
                    result = True
        memo[fn] = result
        return result


def _rooted_at_self(node: ast.AST) -> bool:
    """Is this expression an attribute/subscript/call chain on ``self``?"""
    return chain(node, through=(ast.Subscript, ast.Call))[0] == "self"


def iter_py_files(paths: Sequence[str]) -> List[str]:
    out = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                out.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    out.append(os.path.join(dirpath, name))
    return out


def index_paths(
    paths: Sequence[str], package_root: Optional[str] = None
) -> ProjectIndex:
    """Read and parse every ``.py`` under ``paths``, once, into one
    :class:`ProjectIndex`.  A file that does not parse stays in the
    index as an empty module carrying its ``syntax_error``."""
    modules = []
    for path in iter_py_files(paths):
        with open(path, "r", encoding="utf-8") as fh:
            modules.append(Module(path, fh.read(), package_root=package_root))
    return ProjectIndex(modules)
