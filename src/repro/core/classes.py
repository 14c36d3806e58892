"""The four-class semantic taxonomy of cache objects (paper Table II).

=====  ================  ========  =========  =====
Name   Metadata          Read-freq Dirty      Class
=====  ================  ========  =========  =====
A      yes               (any)     (any)      0
B      no                (any)     yes        1
C      no                high      no         2
D      no                low       no         3
=====  ================  ========  =========  =====

Class 0 (system metadata) and class 1 (dirty data) are identified directly
from the object storage and the cache manager; classes 2 and 3 are separated
by the adaptive hotness threshold (:mod:`repro.core.hotness`).
"""

from __future__ import annotations

import enum

__all__ = ["ObjectClass", "classify"]


class ObjectClass(enum.IntEnum):
    """Reo class ids, ordered from most to least important."""

    #: Group #0: system metadata (root/partition/super block/device table/...).
    METADATA = 0
    #: Group #1: dirty cache data — the only valid copy in the system.
    DIRTY = 1
    #: Group #2: hot clean data — protects the hit ratio through failures.
    HOT_CLEAN = 2
    #: Group #3: cold clean data — majority of the cache, no redundancy.
    COLD_CLEAN = 3

    @property
    def description(self) -> str:
        return _DESCRIPTIONS[self]


_DESCRIPTIONS = {
    ObjectClass.METADATA: "system metadata",
    ObjectClass.DIRTY: "dirty cache data",
    ObjectClass.HOT_CLEAN: "hot clean data",
    ObjectClass.COLD_CLEAN: "cold clean data",
}


def classify(metadata: bool, dirty: bool, hot: bool) -> ObjectClass:
    """Apply Table II: metadata beats dirty beats hot beats cold."""
    if metadata:
        return ObjectClass.METADATA
    if dirty:
        return ObjectClass.DIRTY
    if hot:
        return ObjectClass.HOT_CLEAN
    return ObjectClass.COLD_CLEAN
