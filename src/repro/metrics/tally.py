"""Always-on operation counts: the model's output (Tables 5-2/5-4/5-6),
not an observation, so each layer bumps its :class:`Tally` in place
(``stats["hits"] += 1``) — no probe, no guard, nothing to switch on."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Optional

__all__ = ["Tally"]


class Tally(defaultdict):
    """``defaultdict(int)`` whose reads never insert."""

    def __init__(self):
        super().__init__(int)

    def get(self, name: str, default: int = 0) -> int:
        return dict.get(self, name, default)

    def total(self, names: Optional[Iterable[str]] = None) -> int:
        if names is None:
            return sum(self.values())
        return sum(dict.get(self, n, 0) for n in names)

    def as_dict(self) -> Dict[str, int]:
        return dict(self)

    def reset(self) -> None:
        self.clear()
