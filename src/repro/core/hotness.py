"""``H = Freq / Size`` hotness tracking with the adaptive threshold (§IV-C.1).

Every cached object carries a read-frequency counter (reset when the object
enters the cache). Its hotness indicator is ``H = Freq / Size``: frequently
read objects matter more, and — given equal frequency — smaller objects win
because protecting them buys more hit ratio per redundancy byte.

The hot/cold cutoff ``H_hot`` is adaptive: sort objects by H descending and
greedily mark them hot until the projected redundancy overhead of the hot
set fills the reserved parity budget; ``H_hot`` is the H value of the last
admitted object. The threshold is recomputed periodically so it follows the
workload.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Tuple

__all__ = ["HotnessTracker"]

#: Evicted-object histories the tracker remembers (0 disables the ghosts).
GHOST_CAPACITY = 16_384


@dataclass
class _Heat:
    size: int
    freq: int = 0
    #: ``size ** size_exponent`` precomputed at registration.
    weight: float = 1.0

    @property
    def h_value(self) -> float:
        if self.size <= 0:
            return 0.0
        return self.freq / self.weight


class HotnessTracker:
    """Tracks per-object read frequency and the adaptive ``H_hot`` cutoff.

    The paper counts ``Freq`` "since [the object] enters the cache". Under
    heavy LRU churn that would reset a popular object's history on every
    re-admission and make the hot set oscillate, so the tracker keeps a
    bounded *ghost* history (:data:`GHOST_CAPACITY` entries): an evicted
    object's frequency is remembered (and halved, as an aging step) and
    restored when it re-enters the cache. DESIGN.md records this as an
    engineering deviation.
    """

    def __init__(self, size_exponent: float = 1.0) -> None:
        """
        Args:
            size_exponent: exponent on the size term of ``H = Freq/Size``.
                1.0 is the paper's indicator; 0.0 gives the size-blind
                ``H = Freq`` variant used by the ablation study.
        """
        if size_exponent < 0:
            raise ValueError("size exponent cannot be negative")
        self.size_exponent = size_exponent
        self._heat: Dict[Hashable, _Heat] = {}
        self._ghosts: "OrderedDict[Hashable, int]" = OrderedDict()
        #: Nothing is hot until the first threshold update runs.
        self.threshold: float = math.inf
        self.updates = 0

    # ------------------------------------------------------------------
    # Tracking
    # ------------------------------------------------------------------
    def register(self, key: Hashable, size: int) -> None:
        """Start tracking an object that just entered the cache, at ``Freq = 1``.

        A ghost entry (from a prior eviction) seeds the frequency, so
        popular objects regain their hot standing immediately.
        """
        if size < 0:
            raise ValueError("object size cannot be negative")
        remembered = self._ghosts.pop(key, 0)
        self._heat[key] = _Heat(
            size=size,
            freq=remembered + 1,
            weight=self._weight(size),
        )

    def forget(self, key: Hashable) -> None:
        """Stop tracking an evicted or lost object, keeping a decayed ghost."""
        heat = self._heat.pop(key, None)
        if heat is None or GHOST_CAPACITY == 0:
            return
        decayed = heat.freq // 2
        if decayed > 0:
            self._ghosts[key] = decayed
            self._ghosts.move_to_end(key)
            while len(self._ghosts) > GHOST_CAPACITY:
                self._ghosts.popitem(last=False)

    def record_read(self, key: Hashable) -> None:
        """Count one cache read of a tracked object."""
        heat = self._heat.get(key)
        if heat is not None:
            heat.freq += 1

    def __contains__(self, key: Hashable) -> bool:
        return key in self._heat

    def __len__(self) -> int:
        return len(self._heat)

    def h_value(self, key: Hashable) -> float:
        """Current ``Freq / Size`` for a tracked object (0 if unknown)."""
        heat = self._heat.get(key)
        return heat.h_value if heat is not None else 0.0

    def freq(self, key: Hashable) -> int:
        heat = self._heat.get(key)
        return heat.freq if heat is not None else 0

    def is_hot(self, key: Hashable) -> bool:
        """True when the object's H value clears the current threshold."""
        heat = self._heat.get(key)
        if heat is None:
            return False
        return heat.h_value >= self.threshold

    def projected_h(self, key: Hashable, size: int) -> float:
        """The H value the object would have right after (re-)admission.

        Consults the ghost history, so a popular object about to re-enter
        the cache is recognised as hot *at insert time* rather than only at
        the next periodic reclassification.
        """
        if size <= 0:
            return 0.0
        return (self._ghosts.get(key, 0) + 1) / self._weight(size)

    def would_be_hot(self, key: Hashable, size: int) -> bool:
        """Insert-time hot check against the current threshold."""
        return self.projected_h(key, size) >= self.threshold

    # ------------------------------------------------------------------
    # Adaptive threshold (paper §IV-C.1)
    # ------------------------------------------------------------------
    def update_threshold(
        self, budget_bytes: float, overhead_per_byte: float
    ) -> float:
        """Recompute ``H_hot`` against the available redundancy budget.

        Args:
            budget_bytes: redundancy bytes still available for protecting
                hot objects (the reserve minus what metadata/dirty replicas
                already consume).
            overhead_per_byte: extra stored bytes per logical byte when an
                object is promoted to the hot scheme (e.g. ``2/3`` for
                2-parity stripes on a five-wide array).

        Returns:
            The new threshold. With no budget at all, the threshold is
            ``inf`` (nothing is hot); if every object fits, it is the
            smallest positive H value seen.
        """
        self.updates += 1
        if budget_bytes <= 0 or overhead_per_byte < 0:
            self.threshold = math.inf
            return self.threshold
        ranked: List[Tuple[float, int]] = sorted(
            ((heat.h_value, heat.size) for heat in self._heat.values()),
            reverse=True,
        )
        spent = 0.0
        cutoff = math.inf
        for h_value, size in ranked:
            if h_value <= 0.0:
                break
            cost = size * overhead_per_byte
            if spent + cost > budget_bytes:
                break
            spent += cost
            cutoff = h_value
        self.threshold = cutoff
        return cutoff

    def _weight(self, size: int) -> float:
        if self.size_exponent == 1.0:
            return float(size) if size > 0 else 1.0
        if self.size_exponent == 0.0:
            return 1.0
        return float(size) ** self.size_exponent if size > 0 else 1.0

    def __repr__(self) -> str:
        return f"HotnessTracker(objects={len(self._heat)}, threshold={self.threshold})"
