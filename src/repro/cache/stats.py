"""Cumulative cache-manager statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["CacheStats"]


@dataclass
class CacheStats:
    """Operational counters kept by the cache manager."""

    #: Hits broken down by the object's class at hit time (class id -> count):
    #: shows which protection level actually serves the traffic.
    hits_by_class: Dict[int, int] = field(default_factory=dict)

    read_requests: int = 0
    write_requests: int = 0
    hits: int = 0
    misses: int = 0
    bytes_from_cache: int = 0
    bytes_from_backend: int = 0
    insertions: int = 0
    evictions: int = 0
    #: Dirty objects flushed to the backend (on eviction or explicit sync).
    flushes: int = 0
    #: Objects whose class changed and were re-encoded.
    reclassifications: int = 0
    #: Cache objects dropped because a failure made them unrecoverable.
    lost_objects: int = 0
    #: Misses that found the object present but unreadable (degraded miss).
    corruption_misses: int = 0
    #: Objects never admitted because they exceed the cache capacity.
    admission_bypasses: int = 0

    @property
    def requests(self) -> int:
        return self.read_requests + self.write_requests

    @property
    def hit_ratio(self) -> float:
        """Hit fraction over read requests, in [0, 1]."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def hit_ratio_percent(self) -> float:
        return 100.0 * self.hit_ratio

    def record_class_hit(self, class_id: int) -> None:
        self.hits_by_class[class_id] = self.hits_by_class.get(class_id, 0) + 1

    def reset(self) -> None:
        """Zero every counter (used between warm-up and measurement)."""
        for field_name in self.__dataclass_fields__:
            if field_name == "hits_by_class":
                self.hits_by_class = {}
            else:
                setattr(self, field_name, 0)
