"""Pluggable eviction policies for the cache manager.

The paper's cache manager uses standard LRU at object granularity (§V).
Replacement is orthogonal to Reo's redundancy/recovery contributions, so the
manager accepts any policy implementing the small :class:`EvictionPolicy`
protocol; the alternatives here (FIFO, LFU, CLOCK) exist to demonstrate that
orthogonality in the ablation harness.

Protocol: ``touch`` records an access (inserting the key if new), ``discard``
drops a resident key, and ``pop_victim`` removes and returns the best victim,
running the policy's own eviction step (CLOCK clears reference bits, ARC
records ghosts and adapts).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Generic, Optional, TypeVar

__all__ = [
    "ArcPolicy",
    "ClockPolicy",
    "EvictionPolicy",
    "FifoPolicy",
    "LfuPolicy",
    "LruPolicy",
    "make_eviction_policy",
]

K = TypeVar("K")


def _pop_oldest(queue: "OrderedDict[K, None]", exclude: Optional[K]) -> K:
    """Remove and return the first key of ``queue`` other than ``exclude``."""
    for key in queue:
        if key != exclude:
            del queue[key]
            return key
    raise KeyError("no victim")


class EvictionPolicy(Generic[K]):
    """Interface the cache manager drives."""

    name: str = "abstract"

    def touch(self, key: K) -> None:
        """Record an access; inserts the key if it is new."""
        raise NotImplementedError

    def discard(self, key: K) -> None:
        """Forget a resident key if present."""
        raise NotImplementedError

    def pop_victim(self, exclude: Optional[K] = None) -> K:
        """Remove and return the best eviction victim other than ``exclude``.

        Raises:
            KeyError: the policy tracks no key but ``exclude``.
        """
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __contains__(self, key: K) -> bool:
        raise NotImplementedError


class LruPolicy(EvictionPolicy[K]):
    """Least-recently-used — the paper's replacement algorithm."""

    name = "lru"

    def __init__(self) -> None:
        self._queue: "OrderedDict[K, None]" = OrderedDict()

    def touch(self, key: K) -> None:
        if key in self._queue:
            self._queue.move_to_end(key)
        else:
            self._queue[key] = None

    def discard(self, key: K) -> None:
        self._queue.pop(key, None)

    def pop_victim(self, exclude: Optional[K] = None) -> K:
        return _pop_oldest(self._queue, exclude)

    def __len__(self) -> int:
        return len(self._queue)

    def __contains__(self, key: K) -> bool:
        return key in self._queue


class FifoPolicy(LruPolicy[K]):
    """First-in-first-out: LRU's queue, but an access does not promote."""

    name = "fifo"

    def touch(self, key: K) -> None:
        if key not in self._queue:
            self._queue[key] = None


class LfuPolicy(EvictionPolicy[K]):
    """Least-frequently-used, ties broken by recency (older first)."""

    name = "lfu"

    def __init__(self) -> None:
        self._freq: Dict[K, int] = {}
        self._recency: "OrderedDict[K, None]" = OrderedDict()

    def touch(self, key: K) -> None:
        self._freq[key] = self._freq.get(key, 0) + 1
        if key in self._recency:
            self._recency.move_to_end(key)
        else:
            self._recency[key] = None

    def discard(self, key: K) -> None:
        self._freq.pop(key, None)
        self._recency.pop(key, None)

    def pop_victim(self, exclude: Optional[K] = None) -> K:
        candidates = [key for key in self._recency if key != exclude]
        if not candidates:
            raise KeyError("lfu is empty")
        # min keeps the first of equals: the oldest of the least frequent.
        victim = min(candidates, key=self._freq.__getitem__)
        self.discard(victim)
        return victim

    def __len__(self) -> int:
        return len(self._freq)

    def __contains__(self, key: K) -> bool:
        return key in self._freq


class ClockPolicy(EvictionPolicy[K]):
    """CLOCK (second-chance): a one-bit LRU approximation.

    Keys sit on a circular list with a reference bit set on access; the hand
    sweeps, clearing bits, and evicts the first unreferenced key.
    """

    name = "clock"

    def __init__(self) -> None:
        self._referenced: "OrderedDict[K, bool]" = OrderedDict()

    def touch(self, key: K) -> None:
        if key in self._referenced:
            self._referenced[key] = True
        else:
            self._referenced[key] = False  # inserted behind the hand

    def discard(self, key: K) -> None:
        self._referenced.pop(key, None)

    def pop_victim(self, exclude: Optional[K] = None) -> K:
        if all(key == exclude for key in self._referenced):
            raise KeyError("clock is empty")
        while True:
            key, referenced = next(iter(self._referenced.items()))
            if key == exclude:
                self._referenced.move_to_end(key)  # the hand passes it by
            elif referenced:
                # Second chance: clear the bit, move behind the hand.
                self._referenced[key] = False
                self._referenced.move_to_end(key)
            else:
                del self._referenced[key]
                return key

    def __len__(self) -> int:
        return len(self._referenced)

    def __contains__(self, key: K) -> bool:
        return key in self._referenced


class ArcPolicy(EvictionPolicy[K]):
    """ARC (Adaptive Replacement Cache), Megiddo & Modha, FAST'03.

    Balances recency (T1) against frequency (T2) with ghost lists (B1, B2)
    steering the adaptation target ``p``: a hit in B1 says "recency was
    evicted too eagerly" and grows ``p``; a hit in B2 shrinks it.

    Simplification: the classic algorithm knows the cache size ``c`` in
    entries; an object cache's capacity is in bytes, so ``c`` is taken as
    the current resident count, which bounds the ghost lists and the
    adaptation range dynamically.
    """

    name = "arc"

    def __init__(self) -> None:
        self._t1: "OrderedDict[K, None]" = OrderedDict()  # recent, seen once
        self._t2: "OrderedDict[K, None]" = OrderedDict()  # frequent
        self._b1: "OrderedDict[K, None]" = OrderedDict()  # ghosts of T1
        self._b2: "OrderedDict[K, None]" = OrderedDict()  # ghosts of T2
        self._p = 0.0

    @property
    def _c(self) -> int:
        return max(1, len(self._t1) + len(self._t2))

    def touch(self, key: K) -> None:
        if key in self._t1:
            del self._t1[key]
            self._t2[key] = None
        elif key in self._t2:
            self._t2.move_to_end(key)
        elif key in self._b1:
            delta = max(1.0, len(self._b2) / max(1, len(self._b1)))
            self._p = min(self._p + delta, self._c)
            del self._b1[key]
            self._t2[key] = None
        elif key in self._b2:
            delta = max(1.0, len(self._b1) / max(1, len(self._b2)))
            self._p = max(self._p - delta, 0.0)
            del self._b2[key]
            self._t2[key] = None
        else:
            self._t1[key] = None
        self._trim_ghosts()

    def discard(self, key: K) -> None:
        # Residents only: the ghost an eviction just recorded must survive
        # the cache manager dropping the victim.
        self._t1.pop(key, None)
        self._t2.pop(key, None)

    def pop_victim(self, exclude: Optional[K] = None) -> K:
        sides = [(self._t1, self._b1), (self._t2, self._b2)]
        if not (self._t1 and (len(self._t1) > self._p or not self._t2)):
            sides.reverse()
        for resident, ghosts in sides:
            try:
                key = _pop_oldest(resident, exclude)
            except KeyError:
                continue
            ghosts[key] = None
            self._trim_ghosts()
            return key
        raise KeyError("ARC is empty")

    def _trim_ghosts(self) -> None:
        limit = self._c
        while len(self._b1) > limit:
            self._b1.popitem(last=False)
        while len(self._b2) > limit:
            self._b2.popitem(last=False)

    def __len__(self) -> int:
        return len(self._t1) + len(self._t2)

    def __contains__(self, key: K) -> bool:
        return key in self._t1 or key in self._t2


_POLICIES = {
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "lfu": LfuPolicy,
    "clock": ClockPolicy,
    "arc": ArcPolicy,
}


def make_eviction_policy(name: str) -> EvictionPolicy:
    """Factory by name: ``lru`` (default), ``fifo``, ``lfu``, ``clock``, ``arc``."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown eviction policy {name!r}; pick one of {sorted(_POLICIES)}"
        ) from None
