"""Lazy exports (PEP 562) for the harness namespaces.

A harness namespace — ``repro`` itself, ``analysis``, ``bench``,
``experiments``, ``metrics``, ``nemesis``, ``obs``, ``parallel``,
``trace`` and ``workloads`` — is a table from public name to the module
that defines it.  That module is imported the first time one of its
names is read, and the value is then stored in the namespace, so later
reads are plain attribute lookups.  Importing a module means compiling
it when no bytecode cache is kept, so a process pays only for what it
uses: ``python -m repro list`` loads no model package, and a run of one
workload does not load the lint, sweep, trace or rendering code.

The model packages (``sim``, ``net``, ``host``, ``proto``, the five
policies, ``fs``, ``vfs``, ``storage`` and ``faults``) import eagerly:
whatever uses one of them uses nearly all of it.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: Dict[str, Any], table: Dict[str, str]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package whose
    ``globals()`` is ``namespace``.

    ``table`` maps each public name, in ``__all__`` order, to the module
    that defines it, relative to the package (``".matrix"``)."""
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            module = table[name]
        except KeyError:
            raise AttributeError("module %r has no attribute %r" % (package, name)) from None
        value = namespace[name] = getattr(importlib.import_module(module, package), name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return list(table), __getattr__, __dir__
