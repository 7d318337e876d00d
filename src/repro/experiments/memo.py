"""The one run memo.

A run is a pure function of its configuration, and the paper's tables
draw on the same configurations again and again (Table 5-2 is Table
5-1's four remote runs counted instead of timed; six of the twelve sort
runs appear in two tables; every ablation's baseline row is a table
cell).  :func:`shared_run` performs each once per process.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict

__all__ = ["shared_run"]

_runs: Dict[tuple, Any] = {}


def shared_run(runner: Callable, *args, **config):
    """``runner(*args, **config)``, shared with every caller that asks
    for the same run.

    ``args`` is the runner's configuration spelled positionally and in
    full — it is the key, so two spellings of one run are two runs.
    ``config`` holds the keyword overrides; one left at ``None`` is the
    runner's default.  A variant configured with an unhashable object (a
    ``RemoteFsConfig``, a ``HostConfig``, a source tree) is simply run,
    as is everything under ``REPRO_TRACE``, where each run must bring
    its own tracer.
    """
    config = {name: value for name, value in config.items() if value is not None}
    key = (runner, args, tuple(sorted(config.items())))
    shareable = os.environ.get("REPRO_TRACE", "") in ("", "0")
    try:
        hash(key)
    except TypeError:
        shareable = False
    if not shareable:
        return runner(*args, **config)
    if key not in _runs:
        _runs[key] = runner(*args, **config)
    return _runs[key]
