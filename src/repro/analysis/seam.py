"""The ConsistencyPolicy / RemoteFsServer seam contract checker.

PR 4 split every protocol into mechanism (client/server core) and
policy (a :class:`~repro.proto.policy.ConsistencyPolicy` subclass);
PR 6 added the crash-recovery seam on top.  The contract is implicit
in the base classes — this pass makes it checkable.  In brief
(docs/ANALYSIS.md has the SEAM rule catalogue):

* hook conformance — a policy override must be callable with the base
  hook's positional arity (variadic base hooks set a minimum), and
  overrides of coroutine hooks must be generator functions (the client
  drives them with ``yield from``; a plain function would raise at
  dispatch).  Server-side, every ``proc_*`` procedure takes the
  caller's address ``src`` first and is a generator;
* crash-recovery declaration — ``crash_recovery = True`` and a
  :meth:`reclaim` override travel together, and no policy method calls
  ``*.rpc.call(...)`` directly except ``call`` itself and the recovery
  path — anything else bypasses the hard-mount retry loop and its
  :class:`ServerRecovering` handling;
* server table discipline — the core owns host lifecycle (protocols
  hook ``on_server_crash``/``on_server_reboot``), and attributes the
  crash path wholesale-resets (``self.x = ...`` or ``self.x.clear()``)
  are *crash-state*: resetting one outside ``__init__`` and the
  crash/reboot hooks silently re-runs crash semantics on a live server;
* one probe seam — model code reports through ``sim.probe`` and
  nothing else; only ``sim/engine.py`` (which owns the slots) and the
  harness packages may reach the observers themselves.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional, Tuple

from .callgraph import ClassInfo, ProjectIndex, chain

__all__ = ["check"]

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

#: what only sim/engine.py and the harness packages may reach
_OBSERVER_REACH = re.compile(
    r"sim\.(tracer|metrics|obs|sanitizer)$"
    r"|repro\.(trace|metrics\.registry|obs|analysis)(\.|$)"
)


def _arity(node: ast.FunctionDef) -> Tuple[int, int, bool]:
    """(min positional, max positional, has *args), excluding self."""
    args = node.args
    positional = list(getattr(args, "posonlyargs", [])) + list(args.args)
    if positional and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    required = len(positional) - len(args.defaults)
    return required, len(positional), args.vararg is not None


def _below_base(index: ProjectIndex, cls: ClassInfo, table: str, name: str):
    """``name`` in the ``table`` (``"assigns"`` or ``"methods"``) of
    ``cls`` or of a base class below :data:`POLICY_BASE`, else None."""
    for info in index.mro(cls):
        if info.name == POLICY_BASE:
            return None
        if name in getattr(info, table):
            return getattr(info, table)[name]
    return None


def check(index: ProjectIndex) -> Iterator[Tuple]:
    """The seam pass: raw SEAM findings over the whole index."""
    yield from _check_policies(index)
    yield from _check_servers(index)
    yield from _check_probe_seam(index)


# -- policies --------------------------------------------------------------


def _check_policies(index: ProjectIndex) -> Iterator[Tuple]:
    bases = index.classes.get(POLICY_BASE, [])
    if not bases:
        return
    base_methods = {}
    for base in bases:
        for name, fn in base.methods.items():
            base_methods.setdefault(name, fn)
    for cls in index.subclasses_of(POLICY_BASE):
        yield from _check_policy_hooks(cls, base_methods)
        yield from _check_crash_recovery(index, cls)
    # the rpc-bypass audit covers the bases too (call is exempt by name)
    for cls in bases + index.subclasses_of(POLICY_BASE):
        yield from _check_rpc_bypass(cls)


def _check_policy_hooks(cls: ClassInfo, base_methods) -> Iterator[Tuple]:
    for name, fn in sorted(cls.methods.items()):
        base_fn = base_methods.get(name)
        if base_fn is None or name.startswith("__"):
            continue
        b_req, b_max, b_var = _arity(base_fn.node)
        o_req, o_max, o_var = _arity(fn.node)
        if b_var:
            # variadic base: the override narrows *args to the
            # protocol's own signature; it must still accept the
            # fixed prefix
            if o_max < b_req and not o_var:
                yield (
                    "SEAM001", cls.module, fn.node,
                    "override of variadic hook %s() accepts at most %d "
                    "positional arg(s); the seam passes at least %d"
                    % (name, o_max, b_req),
                    fn.qualname, name,
                )
        elif o_req > b_req or (o_max < b_req and not o_var):
            yield (
                "SEAM001", cls.module, fn.node,
                "override of hook %s() cannot be called with the "
                "base signature's %d positional arg(s) "
                "(override requires %d, accepts at most %s)"
                % (name, b_req, o_req, "*" if o_var else o_max),
                fn.qualname, name,
            )
        if name in _COROUTINE_HOOKS and not fn.is_generator:
            yield (
                "SEAM001", cls.module, fn.node,
                "%s() is a coroutine hook (driven by 'yield from') but "
                "this override is not a generator function; use the "
                "'return value; yield' idiom for non-blocking overrides"
                % name,
                fn.qualname, name,
            )


def _check_crash_recovery(index: ProjectIndex, cls: ClassInfo) -> Iterator[Tuple]:
    flag = _below_base(index, cls, "assigns", "crash_recovery")
    declares = isinstance(flag, ast.Constant) and bool(flag.value)
    reclaim = _below_base(index, cls, "methods", "reclaim")
    if declares and reclaim is None:
        yield (
            "SEAM002", cls.module, cls.node,
            "%s declares crash_recovery = True but never overrides "
            "reclaim(): nothing reasserts its state after a server "
            "reboot" % cls.name,
            cls.name, "crash_recovery",
        )
    if reclaim is not None and not declares and "reclaim" in cls.methods:
        own = cls.methods["reclaim"]
        yield (
            "SEAM002", cls.module, own.node,
            "%s overrides reclaim() without declaring "
            "crash_recovery = True: the seam's capability flag and the "
            "recovery implementation must travel together" % cls.name,
            own.qualname, "crash_recovery",
        )


def _check_rpc_bypass(cls: ClassInfo) -> Iterator[Tuple]:
    for name, fn in sorted(cls.methods.items()):
        if name in _RPC_EXEMPT:
            continue
        for node in fn.calls:
            if chain(node.func)[1:][-2:] == ["rpc", "call"]:
                yield (
                    "SEAM002", cls.module, node,
                    "%s() calls rpc.call directly, bypassing "
                    "ConsistencyPolicy.call's hard-mount retry loop and "
                    "its ServerRecovering handling" % name,
                    fn.qualname, "rpc.call",
                )


# -- servers ---------------------------------------------------------------


def _check_servers(index: ProjectIndex) -> Iterator[Tuple]:
    if SERVER_BASE not in index.classes:
        return
    for cls in index.subclasses_of(SERVER_BASE):
        yield from _check_server_procs(cls)
        yield from _check_host_hooks(cls)
        yield from _check_table_discipline(cls)


def _check_server_procs(cls: ClassInfo) -> Iterator[Tuple]:
    for name, fn in sorted(cls.methods.items()):
        if not name.startswith("proc_"):
            continue
        args = [a.arg for a in fn.node.args.args]
        if len(args) < 2 or args[0] != "self" or args[1] != "src":
            yield (
                "SEAM001", cls.module, fn.node,
                "%s() must take the caller's address as its first "
                "argument, named 'src' (the dispatch contract)" % name,
                fn.qualname, name,
            )
        if not fn.is_generator:
            yield (
                "SEAM001", cls.module, fn.node,
                "%s() must be a generator (RpcEndpoint._serve drives "
                "procedures with 'yield from'); use the "
                "'return value; yield' idiom if it never blocks" % name,
                fn.qualname, name,
            )


def _check_host_hooks(cls: ClassInfo) -> Iterator[Tuple]:
    for hook in _HOST_HOOKS:
        if hook in cls.methods:
            fn = cls.methods[hook]
            yield (
                "SEAM003", cls.module, fn.node,
                "%s overrides %s(): host lifecycle belongs to the "
                "server core; protocols hook on_server_crash/"
                "on_server_reboot" % (cls.name, hook),
                fn.qualname, hook,
            )


def _resets(cls: ClassInfo) -> Iterator[Tuple[str, ast.AST, str]]:
    """(method name, node, attr) per wholesale reset in ``cls``'s own
    methods: ``self.attr = ...`` or ``self.attr.clear()``."""
    module = cls.module
    method_of = {fn.node: name for name, fn in cls.methods.items()}
    for node in module.by_type[ast.Assign] + module.by_type[ast.Call]:
        name = method_of.get(module.owner[node])
        if name is None:
            continue
        if isinstance(node, ast.Assign):
            targets = [chain(target) for target in node.targets]
        else:
            *receiver, method = chain(node.func)
            targets = [receiver] if method == "clear" else []
        for parts in targets:
            if len(parts) == 2 and parts[0] == "self":
                yield name, node, parts[1]


def _check_table_discipline(cls: ClassInfo) -> Iterator[Tuple]:
    resets = list(_resets(cls))
    crash_state = {attr for name, _, attr in resets if name in _CRASH_HOOKS}
    allowed = set(_CRASH_HOOKS) | {"__init__"}
    for name, node, attr in resets:
        if name not in allowed and attr in crash_state:
            yield (
                "SEAM003", cls.module, node,
                "%s() wholesale-resets self.%s, which the crash path "
                "owns: mutating table state off the on_server_crash/"
                "reboot path re-runs crash semantics on a live "
                "server" % (name, attr),
                cls.methods[name].qualname, attr,
            )


# -- the probe seam --------------------------------------------------------


def _check_probe_seam(index: ProjectIndex) -> Iterator[Tuple]:
    for module in index.modules:
        if not module.model_code or (
            module.subpackage == "sim" and module.path.endswith("engine.py")
        ):
            continue
        nodes = module.by_type
        for node in nodes[ast.Attribute] + nodes[ast.Import] + nodes[ast.ImportFrom]:
            reached = []
            if isinstance(node, ast.Attribute):
                if chain(node.value)[-1] == "sim":  # sim.x or <anything>.sim.x
                    reached = ["sim." + node.attr]
            elif isinstance(node, ast.Import):
                reached = [alias.name for alias in node.names]
            elif node.level != 1:  # 1: a sibling
                base = ("repro." if node.level == 2 else "") + (node.module or "")
                reached = [base] + ["%s.%s" % (base, a.name) for a in node.names]
            subject = next(filter(_OBSERVER_REACH.match, reached), None)
            if subject is not None:
                fn = module.owner[node]
                yield (
                    "SEAM004", module, node,
                    "%s reaches past the probe seam: model code reports each "
                    "event once through sim.probe (repro.obs.probe)" % subject,
                    fn.name if fn is not None else "<module>", subject,
                )
