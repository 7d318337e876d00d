"""A unified registry of named, labeled instruments.

Each component keeps its own always-on :class:`~repro.metrics.Tally`
(``endpoint.client_stats``, ``disk.stats`` ...) — the paper's tables.
The registry is the optional second namespace, fed through
``sim.probe``, for what those flat counts cannot slice:

* :class:`Counter` — monotonically increasing count (``rpc.retrans``);
* :class:`Histogram` — bucketed distribution (``rpc.latency``).

Each instrument keys its values by a **label set** (sorted key/value
tuple), e.g. ``registry.counter("rpc.retrans").inc(proc="snfs.write",
endpoint="m1")`` — so one instrument carries the per-proc / per-host
breakdown that the paper's tables slice by.

The registry is opt-in (``sim.enable_metrics()``), costs nothing when
off, and is deterministic: :meth:`MetricsRegistry.as_dict` sorts every
level so a JSON dump of two same-seed runs is byte-identical.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["MetricsRegistry", "Counter", "Histogram"]

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_str(key: LabelKey) -> str:
    return ",".join("%s=%s" % kv for kv in key)


class _Instrument:
    kind = "instrument"

    def __init__(self, name: str):
        self.name = name

    def as_dict(self) -> Dict[str, Any]:
        raise NotImplementedError


class Counter(_Instrument):
    """Monotonic count, one total per label set."""

    kind = "counter"

    def __init__(self, name: str):
        super().__init__(name)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, n: float = 1, **labels) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + n

    def get(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0)

    def total(self) -> float:
        return sum(self._values.values())

    def as_dict(self) -> Dict[str, Any]:
        return {_label_str(k): v for k, v in sorted(self._values.items())}


#: default latency-style buckets (simulated seconds)
_DEFAULT_BUCKETS = (
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0,
)


class Histogram(_Instrument):
    """Bucketed distribution with count/sum/min/max per label set."""

    kind = "histogram"

    def __init__(self, name: str, buckets: Tuple[float, ...] = _DEFAULT_BUCKETS):
        super().__init__(name)
        self.buckets = tuple(sorted(buckets))
        self._series: Dict[LabelKey, Dict[str, Any]] = {}

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        cell = self._series.get(key)
        if cell is None:
            cell = self._series[key] = {
                "count": 0,
                "sum": 0.0,
                "min": value,
                "max": value,
                "bucket_counts": [0] * (len(self.buckets) + 1),
            }
        cell["count"] += 1
        cell["sum"] += value
        cell["min"] = min(cell["min"], value)
        cell["max"] = max(cell["max"], value)
        for i, edge in enumerate(self.buckets):
            if value <= edge:
                cell["bucket_counts"][i] += 1
                break
        else:
            cell["bucket_counts"][-1] += 1

    def count(self, **labels) -> int:
        cell = self._series.get(_label_key(labels))
        return cell["count"] if cell else 0

    def mean(self, **labels) -> float:
        cell = self._series.get(_label_key(labels))
        if not cell or not cell["count"]:
            return 0.0
        return cell["sum"] / cell["count"]

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for key, cell in sorted(self._series.items()):
            out[_label_str(key)] = {
                "count": cell["count"],
                "sum": round(cell["sum"], 9),
                "min": cell["min"],
                "max": cell["max"],
                "buckets": [
                    [edge, n] for edge, n in zip(self.buckets, cell["bucket_counts"])
                ] + [["inf", cell["bucket_counts"][-1]]],
            }
        return out


class MetricsRegistry:
    """Create-or-fetch instruments by name; export deterministically."""

    def __init__(self, sim=None):
        self.sim = sim
        self._instruments: Dict[str, _Instrument] = {}

    def _get(self, name: str, factory, kind: str):
        inst = self._instruments.get(name)
        if inst is None:
            inst = self._instruments[name] = factory()
        elif inst.kind != kind:
            raise TypeError(
                "instrument %r is a %s, not a %s" % (name, inst.kind, kind)
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, lambda: Counter(name), "counter")

    def histogram(
        self, name: str, buckets: Optional[Tuple[float, ...]] = None
    ) -> Histogram:
        """Create-or-fetch a histogram.

        ``buckets=None`` means "any boundaries" and never conflicts.
        Passing explicit ``buckets`` re-buckets an existing empty
        instrument (creation order between readers and writers is
        arbitrary), but differing boundaries on an instrument that has
        already observed data is an error — silently mixing bucket
        layouts would corrupt the distribution.
        """
        factory = lambda: Histogram(name, buckets or _DEFAULT_BUCKETS)
        inst = self._get(name, factory, "histogram")
        if buckets is not None and inst.buckets != tuple(sorted(buckets)):
            if inst._series:
                raise ValueError(
                    "histogram %r already has data with buckets %r; "
                    "cannot re-bucket to %r" % (name, inst.buckets, buckets)
                )
            inst.buckets = tuple(sorted(buckets))
        return inst

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for name, inst in sorted(self._instruments.items()):
            entry: Dict[str, Any] = {"kind": inst.kind, "values": inst.as_dict()}
            if inst.kind == "histogram":
                # self-describing: a report consumer should not need the
                # source to know the bucket boundaries
                entry["buckets"] = list(inst.buckets)
            out[name] = entry
        return out

    def __repr__(self) -> str:
        return "<MetricsRegistry %s>" % ", ".join(self.names())
