"""A stack sampler that attributes host CPU time to package layers.

``ITIMER_PROF`` fires on consumed CPU time; the handler looks at the
frame that was executing and charges one sample to the layer its source
file belongs to.  A frame outside the classified directories (stdlib,
e.g. ``dataclasses.fields``) is charged to its nearest classified
ancestor; C builtins have no frame, so they land on their caller.

Wrapper spans around the layers' generators are not used on purpose:
every layer call is a coroutine resumed many times by the scheduler, so
a wrapper would have to re-implement ``yield from`` and would add a
frame to the hottest path.
"""

from __future__ import annotations

import os
import signal
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "LAYERS",
    "MIN_SAMPLES",
    "OTHER",
    "Sampler",
    "TooFewSamples",
    "repo_classifier",
]

#: layer names are this repository's packages (see perfbench/README.md)
LAYERS = (
    "sim", "net", "proto", "policy", "vfs", "storage", "fs", "host",
    "workloads", "instr", "harness",
)

#: samples with no classified frame anywhere on the stack
OTHER = "other"

#: shares are withheld below this many samples (the kernel delivers
#: about 250 per CPU second, so this is under one second of body)
MIN_SAMPLES = 200

_PACKAGE_LAYER = {
    "sim": "sim",
    "net": "net",
    "proto": "proto",
    "nfs": "policy", "snfs": "policy", "rfs": "policy",
    "kent": "policy", "lease": "policy", "lockd": "policy",
    "vfs": "vfs",
    "storage": "storage",
    "fs": "fs",
    "host": "host",
    "workloads": "workloads",
    "metrics": "instr", "obs": "instr", "trace": "instr", "analysis": "instr",
    "experiments": "harness", "bench": "harness", "nemesis": "harness",
    "faults": "harness", "parallel": "harness",
}


class TooFewSamples(Exception):
    """Raised when shares are asked of fewer than MIN_SAMPLES samples."""


def repo_classifier(repro_dir: str, perfbench_dir: str) -> Callable[[str], Optional[str]]:
    """Classifier for this repository: ``repro/<package>/`` by package,
    perfbench's simulated application (``apps.py``) as ``workloads``,
    the rest of perfbench as ``harness``; None for any other file."""
    repro_prefix = os.path.join(os.path.abspath(repro_dir), "")
    bench_prefix = os.path.join(os.path.abspath(perfbench_dir), "")

    def classify(filename: str) -> Optional[str]:
        if filename.startswith(repro_prefix):
            package = filename[len(repro_prefix):].split(os.sep, 1)[0]
            return _PACKAGE_LAYER.get(package, "harness")
        if filename.startswith(bench_prefix):
            if filename[len(bench_prefix):] == "apps.py":
                return "workloads"
            return "harness"
        return None

    return classify


def _label(code) -> str:
    parts = code.co_filename.split(os.sep)
    return "%s:%s" % ("/".join(parts[-2:]), code.co_name)


class Sampler:
    """Counts ``SIGPROF`` ticks per layer and per function.

    ``classify(filename)`` returns the layer of a source file or None;
    use as a context manager around the code to sample.  Main thread
    only (Python delivers signals there).
    """

    def __init__(self, classify: Callable[[str], Optional[str]], interval: float = 0.001):
        self.classify = classify
        self.interval = interval
        self.samples = 0
        self.layers: Counter = Counter()
        self.functions: Counter = Counter()
        self._file_layer: Dict[str, Optional[str]] = {}
        self._previous = None

    def _on_tick(self, signum, frame) -> None:
        top = frame
        file_layer = self._file_layer
        layer = None
        while frame is not None:
            filename = frame.f_code.co_filename
            try:
                layer = file_layer[filename]
            except KeyError:
                layer = file_layer[filename] = self.classify(filename)
            if layer is not None:
                break
            frame = frame.f_back
        self.samples += 1
        if layer is None:
            self.layers[OTHER] += 1
            self.functions[_label(top.f_code)] += 1
            return
        self.layers[layer] += 1
        label = _label(frame.f_code)
        if frame is not top:
            label += " > " + _label(top.f_code)
        self.functions[label] += 1

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        # a tick raised just before the timer was disarmed may still be
        # pending; the default disposition would kill the process
        previous = self._previous
        if previous in (None, signal.SIG_DFL):
            previous = signal.SIG_IGN
        signal.signal(signal.SIGPROF, previous)

    def shares(self) -> Dict[str, float]:
        """Fraction of samples per layer (``OTHER`` included)."""
        if self.samples < MIN_SAMPLES:
            raise TooFewSamples(
                "%d samples, need %d: sample a longer body"
                % (self.samples, MIN_SAMPLES)
            )
        return {layer: n / self.samples for layer, n in self.layers.items()}

    def top_functions(self, k: int = 10) -> List[Tuple[str, int]]:
        return self.functions.most_common(k)
