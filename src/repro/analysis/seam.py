"""The ConsistencyPolicy / RemoteFsServer seam contract checker.

PR 4 split every protocol into mechanism (client/server core) and
policy (a :class:`~repro.proto.policy.ConsistencyPolicy` subclass);
PR 6 added the crash-recovery seam on top.  The contract is implicit
in the base classes — this pass makes it checkable:

``SEAM001`` (error) — hook conformance.
    A policy override of a base hook must be callable with the base
    hook's positional arity (variadic base hooks set a minimum), and
    overrides of coroutine hooks must be generator functions (the
    client drives them with ``yield from``; a plain function would
    raise at dispatch).  Server-side, every ``proc_*`` procedure must
    take the caller's address ``src`` as its first argument and be a
    generator.

``SEAM002`` (error) — crash-recovery declaration.
    A policy that sets ``crash_recovery = True`` must override
    :meth:`reclaim`; a policy overriding ``reclaim`` must declare
    ``crash_recovery = True`` (the seam's capability flag).  And no
    policy method may call ``*.rpc.call(...)`` directly except
    ``call`` itself and the recovery path (``reclaim``,
    ``on_server_recovering``) — anything else bypasses the hard-mount
    retry loop and its :class:`ServerRecovering` handling.

``SEAM003`` (error) — server table discipline.
    Protocol servers must not override ``on_host_crash``/
    ``on_host_reboot`` (the core owns host lifecycle; protocols hook
    ``on_server_crash``/``on_server_reboot``).  Attributes the crash
    path wholesale-resets (``self.x = ...`` or ``self.x.clear()``)
    are *crash-state* attributes: resetting one outside ``__init__``
    and the crash/reboot hooks silently re-runs crash semantics on a
    live server.

``SEAM004`` (error) — one probe seam.
    Model code reports through ``sim.probe`` and nothing else: reading
    ``.tracer``/``.metrics``/``.obs``/``.sanitizer`` off a simulator, or
    importing ``repro.trace``, ``repro.metrics.registry``, ``repro.obs``
    or ``repro.analysis``, is allowed only in ``sim/engine.py`` (which
    owns the slots) and the instrumentation and harness packages.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, List, Optional, Set, Tuple

from .callgraph import ClassInfo, FunctionInfo, ProjectIndex
from .linter import Finding, finding_fingerprint

__all__ = ["seam_findings", "analyze_index"]

POLICY_BASE = "ConsistencyPolicy"
SERVER_BASE = "RemoteFsServer"

#: base-class hooks the client drives with ``yield from``
_COROUTINE_HOOKS = frozenset(
    "call on_server_recovering reclaim on_open on_close on_read on_write "
    "on_getattr write_rpc before_remove".split()
)

#: policy methods allowed to touch ``rpc.call`` directly: the retry
#: loop itself, and the recovery path it invokes (a reclaim that went
#: through ``call`` would recurse into its own ServerRecovering
#: handler)
_RPC_EXEMPT = frozenset({"call", "reclaim", "on_server_recovering"})

#: host-lifecycle methods owned by the server core
_HOST_HOOKS = ("on_host_crash", "on_host_reboot")

_CRASH_HOOKS = ("on_server_crash", "on_server_reboot")

#: what only sim/engine.py and _OBSERVER_OWNERS ("": the CLI glue) may reach
_OBSERVER_REACH = re.compile(
    r"sim\.(tracer|metrics|obs|sanitizer)$"
    r"|repro\.(trace|metrics\.registry|obs|analysis)(\.|$)"
)
_OBSERVER_OWNERS = frozenset(
    {"", "trace", "metrics", "obs", "analysis", "bench", "experiments", "nemesis", "parallel"}
)


def _arity(node: ast.FunctionDef) -> Tuple[int, int, bool]:
    """(min positional, max positional, has *args), excluding self."""
    args = node.args
    positional = list(getattr(args, "posonlyargs", [])) + list(args.args)
    if positional and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    required = len(positional) - len(args.defaults)
    return required, len(positional), args.vararg is not None


def _finding(
    rule: str, fn_or_cls, path: str, function: str, subject: str, message: str
) -> Finding:
    node = fn_or_cls
    return Finding(
        rule=rule,
        path=path,
        line=getattr(node, "lineno", 0),
        col=getattr(node, "col_offset", 0),
        message=message,
        severity="error",
        function=function,
        subject=subject,
        fingerprint=finding_fingerprint(rule, path, function, subject),
    )


def _is_generator_def(module, node: ast.FunctionDef) -> bool:
    return module.is_generator(node)


def _class_attr_in_mro(
    index: ProjectIndex, cls: ClassInfo, name: str, stop_at: str
) -> Optional[ast.AST]:
    """The class-level assignment of ``name`` below ``stop_at``."""
    for info in index.mro(cls):
        if info.name == stop_at:
            return None
        if name in info.assigns:
            return info.assigns[name]
    return None


def _truthy_literal(node: Optional[ast.AST]) -> bool:
    return isinstance(node, ast.Constant) and bool(node.value)


def _overrides_in_mro(
    index: ProjectIndex, cls: ClassInfo, name: str, stop_at: str
) -> Optional[FunctionInfo]:
    for info in index.mro(cls):
        if info.name == stop_at:
            return None
        if name in info.methods:
            return info.methods[name]
    return None


def _dotted_tail(node: ast.AST, depth: int) -> List[str]:
    """The last ``depth`` attribute names of a dotted chain."""
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute) and len(parts) < depth:
        parts.append(cur.attr)
        cur = cur.value
    parts.reverse()
    return parts


def analyze_index(index: ProjectIndex) -> List[Finding]:
    """Raw SEAM findings over the whole index, **before** suppression."""
    findings: List[Finding] = []
    findings.extend(_check_policies(index))
    findings.extend(_check_servers(index))
    findings.extend(_check_probe_seam(index))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


# -- policies --------------------------------------------------------------


def _policy_bases(index: ProjectIndex) -> List[ClassInfo]:
    return index.classes.get(POLICY_BASE, [])


def _check_policies(index: ProjectIndex) -> Iterable[Finding]:
    bases = _policy_bases(index)
    if not bases:
        return []
    out: List[Finding] = []
    base_methods = {}
    for base in bases:
        for name, fn in base.methods.items():
            base_methods.setdefault(name, fn)
    for cls in index.subclasses_of(POLICY_BASE):
        out.extend(_check_policy_hooks(index, cls, base_methods))
        out.extend(_check_crash_recovery(index, cls))
    # the rpc-bypass audit covers the bases too (call is exempt by name)
    for cls in bases + index.subclasses_of(POLICY_BASE):
        out.extend(_check_rpc_bypass(cls))
    return out


def _check_policy_hooks(
    index: ProjectIndex, cls: ClassInfo, base_methods
) -> Iterable[Finding]:
    path = cls.module.path
    for name, fn in sorted(cls.methods.items()):
        base_fn = base_methods.get(name)
        if base_fn is None or name.startswith("__"):
            continue
        qual = fn.qualname
        b_req, b_max, b_var = _arity(base_fn.node)
        o_req, o_max, o_var = _arity(fn.node)
        if b_var:
            # variadic base: the override narrows *args to the
            # protocol's own signature; it must still accept the
            # fixed prefix
            if o_max < b_req and not o_var:
                yield _finding(
                    "SEAM001", fn.node, path, qual, name,
                    "override of variadic hook %s() accepts at most %d "
                    "positional arg(s); the seam passes at least %d"
                    % (name, o_max, b_req),
                )
        else:
            if o_req > b_req or (o_max < b_req and not o_var):
                yield _finding(
                    "SEAM001", fn.node, path, qual, name,
                    "override of hook %s() cannot be called with the "
                    "base signature's %d positional arg(s) "
                    "(override requires %d, accepts at most %s)"
                    % (name, b_req, o_req, "*" if o_var else o_max),
                )
        if name in _COROUTINE_HOOKS and not _is_generator_def(cls.module, fn.node):
            yield _finding(
                "SEAM001", fn.node, path, qual, name,
                "%s() is a coroutine hook (driven by 'yield from') but "
                "this override is not a generator function; use the "
                "'return value; yield' idiom for non-blocking overrides"
                % name,
            )


def _check_crash_recovery(index: ProjectIndex, cls: ClassInfo) -> Iterable[Finding]:
    path = cls.module.path
    declares = _truthy_literal(
        _class_attr_in_mro(index, cls, "crash_recovery", POLICY_BASE)
    )
    reclaim = _overrides_in_mro(index, cls, "reclaim", POLICY_BASE)
    if declares and reclaim is None:
        yield _finding(
            "SEAM002", cls.node, path, cls.name, "crash_recovery",
            "%s declares crash_recovery = True but never overrides "
            "reclaim(): nothing reasserts its state after a server "
            "reboot" % cls.name,
        )
    if reclaim is not None and not declares and "reclaim" in cls.methods:
        yield _finding(
            "SEAM002", cls.methods["reclaim"].node, path,
            cls.methods["reclaim"].qualname, "crash_recovery",
            "%s overrides reclaim() without declaring "
            "crash_recovery = True: the seam's capability flag and the "
            "recovery implementation must travel together" % cls.name,
        )


def _check_rpc_bypass(cls: ClassInfo) -> Iterable[Finding]:
    path = cls.module.path
    for name, fn in sorted(cls.methods.items()):
        if name in _RPC_EXEMPT:
            continue
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            if cls.module.enclosing_function(node) is not fn.node:
                continue
            tail = _dotted_tail(node.func, 2)
            if tail == ["rpc", "call"]:
                yield _finding(
                    "SEAM002", node, path, fn.qualname, "rpc.call",
                    "%s() calls rpc.call directly, bypassing "
                    "ConsistencyPolicy.call's hard-mount retry loop and "
                    "its ServerRecovering handling" % name,
                )


# -- servers ---------------------------------------------------------------


def _check_servers(index: ProjectIndex) -> Iterable[Finding]:
    if SERVER_BASE not in index.classes:
        return []
    out: List[Finding] = []
    for cls in index.subclasses_of(SERVER_BASE):
        out.extend(_check_server_procs(cls))
        out.extend(_check_host_hooks(cls))
        out.extend(_check_table_discipline(cls))
    return out


def _check_server_procs(cls: ClassInfo) -> Iterable[Finding]:
    path = cls.module.path
    for name, fn in sorted(cls.methods.items()):
        if not name.startswith("proc_"):
            continue
        args = [a.arg for a in fn.node.args.args]
        if len(args) < 2 or args[0] != "self" or args[1] != "src":
            yield _finding(
                "SEAM001", fn.node, path, fn.qualname, name,
                "%s() must take the caller's address as its first "
                "argument, named 'src' (the dispatch contract)" % name,
            )
        if not _is_generator_def(cls.module, fn.node):
            yield _finding(
                "SEAM001", fn.node, path, fn.qualname, name,
                "%s() must be a generator (RpcEndpoint._serve drives "
                "procedures with 'yield from'); use the "
                "'return value; yield' idiom if it never blocks" % name,
            )


def _check_host_hooks(cls: ClassInfo) -> Iterable[Finding]:
    path = cls.module.path
    for hook in _HOST_HOOKS:
        if hook in cls.methods:
            fn = cls.methods[hook]
            yield _finding(
                "SEAM003", fn.node, path, fn.qualname, hook,
                "%s overrides %s(): host lifecycle belongs to the "
                "server core; protocols hook on_server_crash/"
                "on_server_reboot" % (cls.name, hook),
            )


def _reset_attrs(module, fn_node: ast.FunctionDef) -> Set[str]:
    """Attributes wholesale-reset in this method body."""
    out: Set[str] = set()
    for node in ast.walk(fn_node):
        if module.enclosing_function(node) is not fn_node:
            continue
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    out.add(target.attr)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "clear"
                and isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id == "self"
            ):
                out.add(func.value.attr)
    return out


def _check_table_discipline(cls: ClassInfo) -> Iterable[Finding]:
    path = cls.module.path
    crash_state: Set[str] = set()
    for hook in _CRASH_HOOKS:
        if hook in cls.methods:
            crash_state |= _reset_attrs(cls.module, cls.methods[hook].node)
    if not crash_state:
        return
    allowed = set(_CRASH_HOOKS) | {"__init__"}
    for name, fn in sorted(cls.methods.items()):
        if name in allowed:
            continue
        for node in ast.walk(fn.node):
            if cls.module.enclosing_function(node) is not fn.node:
                continue
            reset_attr = None
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and target.attr in crash_state
                    ):
                        reset_attr = target.attr
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "clear"
                    and isinstance(func.value, ast.Attribute)
                    and isinstance(func.value.value, ast.Name)
                    and func.value.value.id == "self"
                    and func.value.attr in crash_state
                ):
                    reset_attr = func.value.attr
            if reset_attr is not None:
                yield _finding(
                    "SEAM003", node, path, fn.qualname, reset_attr,
                    "%s() wholesale-resets self.%s, which the crash path "
                    "owns: mutating table state off the on_server_crash/"
                    "reboot path re-runs crash semantics on a live "
                    "server" % (name, reset_attr),
                )


# -- the probe seam --------------------------------------------------------


def _check_probe_seam(index: ProjectIndex) -> Iterable[Finding]:
    for module in index.modules:
        path, package = module.path, module.subpackage
        if package in _OBSERVER_OWNERS or (package == "sim" and path.endswith("engine.py")):
            continue
        for node in ast.walk(module.tree):
            reached: List[str] = []
            if isinstance(node, ast.Attribute):
                owner = node.value  # "on a simulator": sim.x or <anything>.sim.x
                if getattr(owner, "attr", getattr(owner, "id", None)) == "sim":
                    reached = ["sim." + node.attr]
            elif isinstance(node, ast.Import):
                reached = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level != 1:  # 1: a sibling
                base = ("repro." if node.level == 2 else "") + (node.module or "")
                reached = [base] + ["%s.%s" % (base, a.name) for a in node.names]
            subject = next(filter(_OBSERVER_REACH.match, reached), None)
            if subject is not None:
                fn = module.enclosing_function(node)
                yield _finding(
                    "SEAM004", node, path, fn.name if fn else "<module>", subject,
                    "%s reaches past the probe seam: model code reports each "
                    "event once through sim.probe (repro.obs.probe)" % subject,
                )


def seam_findings(index: ProjectIndex) -> List[Finding]:
    """SEAM findings with ``# lint: ok=...`` suppressions applied."""
    by_path = {m.path: m for m in index.modules}
    out = []
    for finding in analyze_index(index):
        module = by_path.get(finding.path)
        if module is not None and module.suppressed(finding.rule, finding.line):
            continue
        out.append(finding)
    return out
