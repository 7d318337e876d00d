"""One structural checker, one reader and one writer for every JSON
document.

Each schema-versioned artifact (``repro-obs/1``, ``repro-nemesis/1``,
``repro-lint/2``) keeps a *spec table* next to its
builder and validates in two steps.  :func:`check` walks any JSON value
against the spec and reports every structural problem as a string; it
never raises, whatever it is handed (a user may point ``repro report``
at any file).  Only when that pass is clean do the validator's own
semantic checks run (digest match, phase sums), on a value whose shape
they can then rely on.

A spec is plain data:

* a type or tuple of types — ``isinstance``, except that a JSON boolean
  is never accepted where a number is asked for;
* a ``set`` — the value must equal one of its members (enums, the
  schema string);
* a ``dict`` — the value must be an object holding every key, each
  checked against that key's spec; keys the spec does not name are
  ignored, so documents may grow;
* a one-element ``list`` — the value must be an array whose every item
  matches the element spec;
* :class:`Maybe` — the key may be absent, or null;
* :class:`MapOf` — an object with free-form keys whose every value
  matches.
"""

from __future__ import annotations

import json
import os
from typing import Any, List

__all__ = ["NUMBER", "Maybe", "MapOf", "check", "read_json", "write_json"]

NUMBER = (int, float)


class _Wrapped:
    def __init__(self, spec: Any) -> None:
        self.spec = spec


class Maybe(_Wrapped):
    """The value may be missing or null; otherwise it matches ``spec``."""


class MapOf(_Wrapped):
    """An object with arbitrary keys, every value matching ``spec``."""


def _type_names(types) -> str:
    types = types if isinstance(types, tuple) else (types,)
    return " or ".join(t.__name__ for t in types)


def check(value: Any, spec: Any, where: str = "") -> List[str]:
    """Every way ``value`` departs from ``spec``, as ``path: complaint``
    strings (empty when it conforms).  ``where`` names the value in the
    messages; the top level is called ``document``."""
    name = where or "document"
    if isinstance(spec, Maybe):
        return [] if value is None else check(value, spec.spec, where)
    if isinstance(spec, (set, frozenset)):
        # compared one by one: ``value in spec`` would hash the value,
        # and a JSON array or object is unhashable
        if any(type(value) is type(m) and value == m for m in spec):
            return []
        return ["%s is %r, expected %s" % (
            name, value, " or ".join(repr(m) for m in sorted(spec)))]
    if isinstance(spec, MapOf) and isinstance(value, dict):
        spec = dict.fromkeys(value, spec.spec)  # the value's own keys
    if isinstance(spec, (dict, MapOf)):
        if not isinstance(value, dict):
            return ["%s is not an object" % name]
        problems: List[str] = []
        for key, sub in spec.items():
            if key in value:
                problems += check(value[key], sub, _join(where, key))
            elif not isinstance(sub, Maybe):
                problems.append("%s missing %r" % (name, key))
        return problems
    if isinstance(spec, list):
        if not isinstance(value, list):
            return ["%s is not an array" % name]
        return [
            problem
            for i, item in enumerate(value)
            for problem in check(item, spec[0], "%s[%d]" % (name, i))
        ]
    if not isinstance(value, spec) or (isinstance(value, bool) and spec is not bool):
        return ["%s must be %s, not %s" % (
            name, _type_names(spec), type(value).__name__)]
    return []


def _join(where: str, key: str) -> str:
    return "%s.%s" % (where, key) if where else str(key)


def read_json(path: str) -> Any:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_json(doc: Any, path: str, indent: int = 2, sort_keys: bool = True) -> str:
    """Write ``doc`` to ``path`` (creating its directory) the way every
    committed artifact is written — indented, newline at EOF — so that
    regenerating one yields a minimal diff.  Returns ``path``."""
    out_dir = os.path.dirname(path)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=indent, sort_keys=sort_keys)
        fh.write("\n")
    return path
