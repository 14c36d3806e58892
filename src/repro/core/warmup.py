"""Bonfire-style cache warm-up (paper §III, Zhang et al., FAST'13).

The paper's introduction motivates Reo partly by the cost of re-warming a
huge flash cache from scratch ("hours to even days"), and its related-work
section points at Bonfire — monitor the storage-server workload, track warm
data, and preload it — as the complementary technique. This module
implements that counterpart so the library covers both sides:

- the :class:`~repro.backend.store.BackendStore` records per-object read
  counts (the storage-server view of warmth);
- :class:`WarmupAdvisor` turns those counts into a preload plan (warmest
  objects first, sized to a byte budget);
- :meth:`WarmupAdvisor.preload` bulk-loads the plan into a fresh cache,
  off the request path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.backend.store import BackendStore
from repro.core.reo import ReoCache

__all__ = ["PreloadReport", "WarmupAdvisor"]

#: Share of the cache's usable capacity a preload fills.
PRELOAD_FRACTION = 0.9


@dataclass
class PreloadReport:
    """Outcome of one preload pass."""

    objects_loaded: int = 0
    bytes_loaded: int = 0
    #: Simulated seconds the bulk load consumed.
    seconds: float = 0.0


class WarmupAdvisor:
    """Builds and applies preload plans from backend access history."""

    def __init__(self, backend: BackendStore) -> None:
        self.backend = backend

    def plan(self, budget_bytes: float) -> List[str]:
        """Warmest objects first, greedily packed into ``budget_bytes``.

        Only objects the backend has served are candidates: cold data is
        exactly what warm-up should not waste time on.
        """
        if budget_bytes <= 0:
            return []
        candidates = sorted(
            (name for name in self.backend.access_counts if name in self.backend),
            key=lambda name: self.backend.access_counts[name],
            reverse=True,
        )
        chosen: List[str] = []
        used = 0.0
        for name in candidates:
            size = self.backend.size_of(name)
            if used + size > budget_bytes:
                continue
            used += size
            chosen.append(name)
        return chosen

    def preload(self, cache: ReoCache) -> PreloadReport:
        """Bulk-load the plan into a (typically fresh) cache.

        The budget is :data:`PRELOAD_FRACTION` of the cache's usable
        capacity, leaving headroom for demand fills. Loads run coldest-first
        so the warmest objects end at the MRU side of the replacement order.
        """
        report = PreloadReport()
        names = self.plan(PRELOAD_FRACTION * cache.target.usable_bytes)
        start = cache.clock.now
        for name in reversed(names):  # coldest first, warmest last (MRU)
            result = cache.read(name)
            cache.clock.advance(result.latency)
            if name in cache.manager:
                report.objects_loaded += 1
                report.bytes_loaded += result.num_bytes
        report.seconds = cache.clock.now - start
        # The preload is maintenance traffic, not client requests.
        cache.stats.reset()
        return report
