"""The object-based cache manager (paper §V, initiator side).

Implements the paper's cache-server behaviour on top of the OSD initiator,
its only way to storage (the target owns Reo's redundancy reserve):

- **LRU replacement at object granularity**. Admission is the target's
  answer: a write or re-encode it refuses with sense 0x64 evicts the LRU
  victim and is retried; one it refuses with FAIL bypasses the cache.
- **Write-back**: client writes land in cache as Class-1 (dirty) objects;
  dirty objects are flushed to the backend only on eviction or explicit
  sync, so their replicas keep occupying flash — the effect Fig. 9 measures.
- **Classification**: read frequencies feed the
  :class:`~repro.core.hotness.HotnessTracker`; periodically the adaptive
  ``H_hot`` threshold is recomputed against the redundancy budget and
  changed objects are reclassified through ``#SETID#`` control messages,
  which re-encode them under their new scheme.
- **Failure semantics**: a read that finds its object lost (sense 0x63)
  counts as a miss, purges the object, and refetches from the backend.

Simulated-time accounting: the latency returned for a request is its
critical path (cache I/O for hits, backend fetch for misses). Cache-fill
writes, dirty flushes, and re-encodes advance device/backend queues — so
they contend with foreground traffic — but are not added to the requesting
client's latency, matching the asynchronous handling in the paper's server.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional

from repro.backend.store import BackendStore
from repro.cache.policies import EvictionPolicy
from repro.cache.stats import CacheStats
from repro.core.classes import ObjectClass, classify
from repro.core.hotness import HotnessTracker
from repro.errors import ObjectNotFoundError
from repro.osd.initiator import OsdInitiator, OsdResponse
from repro.osd.sense import SenseCode
from repro.osd.types import FIRST_USER_OID, PARTITION_BASE, ObjectId

__all__ = ["AccessResult", "CacheManager", "CachedObject"]


@dataclass
class CachedObject:
    """Manager-side state for one cached object."""

    name: str
    object_id: ObjectId
    size: int
    dirty: bool = False
    #: Content version; client writes bump it ahead of the backend's.
    version: int = 0
    class_id: int = int(ObjectClass.COLD_CLEAN)


@dataclass
class AccessResult:
    """Outcome of one client request against the cache."""

    name: str
    hit: bool
    latency: float
    num_bytes: int
    is_write: bool = False
    #: True when the payload came from (or went through) the backend store.
    from_backend: bool = False
    #: True when the cache served the request by decoding around failures.
    degraded: bool = False


class CacheManager:
    """Object cache with LRU replacement, write-back, and classification.

    Every argument is required: :meth:`~repro.core.reo.ReoCache.build` holds
    the defaults, so none can be swapped for a fallback here.
    """

    def __init__(
        self,
        initiator: OsdInitiator,
        backend: BackendStore,
        hotness: HotnessTracker,
        reclassify_interval: int,
        eviction: EvictionPolicy,
    ) -> None:
        """
        Args:
            hotness: the ``H = Freq / Size`` tracker and its ``H_hot``.
            reclassify_interval: reads between ``H_hot`` recomputations.
            eviction: replacement policy (LRU is the paper's).
        """
        if reclassify_interval < 1:
            raise ValueError("reclassify interval must be >= 1")
        self.initiator = initiator
        self.backend = backend
        self.hotness = hotness
        self.stats = CacheStats()
        self.reclassify_interval = reclassify_interval
        self._objects: Dict[str, CachedObject] = {}
        self._by_oid: Dict[ObjectId, str] = {}
        self._eviction: EvictionPolicy[str] = eviction
        self._next_oid = FIRST_USER_OID
        self._reads_since_reclassify = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def cached_names(self) -> Iterable[str]:
        return self._objects.keys()

    def get_cached(self, name: str) -> CachedObject:
        try:
            return self._objects[name]
        except KeyError:
            raise ObjectNotFoundError(f"{name!r} is not cached") from None

    def name_for(self, object_id: ObjectId) -> Optional[str]:
        return self._by_oid.get(object_id)

    @property
    def dirty_count(self) -> int:
        return sum(1 for obj in self._objects.values() if obj.dirty)

    # ------------------------------------------------------------------
    # Client read path
    # ------------------------------------------------------------------
    def read(self, name: str) -> AccessResult:
        """Serve a client read: cache hit, degraded hit, or backend miss."""
        self.stats.read_requests += 1
        cached = self._objects.get(name)
        if cached is not None:
            payload, response = self.initiator.read(cached.object_id)
            if response.ok and payload is not None:
                self.stats.hits += 1
                self.stats.record_class_hit(cached.class_id)
                self.stats.bytes_from_cache += len(payload)
                self._eviction.touch(name)
                self.hotness.record_read(name)
                self._after_read()
                return AccessResult(
                    name=name,
                    hit=True,
                    latency=response.io.elapsed,
                    num_bytes=len(payload),
                    degraded=response.io.degraded,
                )
            # Present but unreadable: the failure took it out (sense 0x63).
            self.stats.corruption_misses += 1
            self._drop(name, lost=True)
        result = self._miss(name)
        self._after_read()
        return result

    def _miss(self, name: str) -> AccessResult:
        self.stats.misses += 1
        payload, backend_latency = self.backend.read(name)
        self.stats.bytes_from_backend += len(payload)
        version = self.backend.version_of(name)
        # Like most degraded arrays, the cache serves what it holds but takes
        # on no new clean data until repaired (dirty writes are still
        # accepted). This keeps the paper's Fig. 8 hit-ratio levels flat per
        # window.
        if not self.initiator.degraded():
            self._admit(name, payload, dirty=False, version=version)
        return AccessResult(
            name=name,
            hit=False,
            latency=backend_latency,
            num_bytes=len(payload),
            from_backend=True,
        )

    # ------------------------------------------------------------------
    # Client write path (write-back)
    # ------------------------------------------------------------------
    def write(self, name: str) -> AccessResult:
        """Apply a client write: the new content lands in cache as dirty.

        The write is acknowledged once the cache copy is durable (the
        write-back model); the backend is only updated when the object is
        flushed.
        """
        self.stats.write_requests += 1
        cached = self._objects.get(name)
        if cached is not None:
            new_version = max(cached.version, self.backend.version_of(name)) + 1
        else:
            new_version = self.backend.version_of(name) + 1
        payload = self.backend.payload_for(name, new_version)
        if cached is not None:
            elapsed = self._rewrite_dirty(cached, payload, new_version)
        else:
            elapsed = self._admit(name, payload, dirty=True, version=new_version)
        return AccessResult(
            name=name,
            hit=cached is not None,
            latency=elapsed,
            num_bytes=len(payload),
            is_write=True,
        )

    def _rewrite_dirty(self, cached: CachedObject, payload: bytes, version: int) -> float:
        response = self._until_room(
            lambda: self.initiator.write(cached.object_id, payload, int(ObjectClass.DIRTY)),
            exclude=cached.name,
        )
        if not response.ok:
            # Full with nothing left to evict, too few devices for the dirty
            # scheme, or the old copy was lost mid-failure: replace the
            # object outright (the new content supersedes the old dirty copy
            # anyway).
            self._drop(cached.name, lost=response.sense is SenseCode.DATA_CORRUPTED)
            return self._admit(cached.name, payload, dirty=True, version=version)
        cached.dirty = True
        cached.size = len(payload)
        cached.version = version
        cached.class_id = int(ObjectClass.DIRTY)
        self._eviction.touch(cached.name)
        return response.io.elapsed

    # ------------------------------------------------------------------
    # Admission and eviction
    # ------------------------------------------------------------------
    def _admit(self, name: str, payload: bytes, dirty: bool, version: int) -> float:
        """Insert an object, evicting LRU victims until it fits.

        Returns the simulated time of the cache write (the caller decides
        whether it is on the request's critical path).
        """
        size = len(payload)
        class_id = int(self._initial_class(name, size, dirty))
        object_id = ObjectId(PARTITION_BASE, self._next_oid)
        response = self._until_room(
            lambda: self.initiator.write(object_id, payload, class_id)
        )
        if not response.ok:
            # The target answered FAIL (the object cannot fit even in an
            # empty cache, or its class cannot be laid out on the online
            # devices), or 0x64 with nothing left to evict. Clean objects
            # are simply not admitted; dirty writes go straight through to
            # the backend so no update is ever dropped.
            self.stats.admission_bypasses += 1
            if dirty:
                return self.backend.write(name, payload, version=version)
            return 0.0
        self._next_oid += 1
        entry = CachedObject(
            name=name,
            object_id=object_id,
            size=size,
            dirty=dirty,
            version=version,
            class_id=class_id,
        )
        self._objects[name] = entry
        self._by_oid[object_id] = name
        self._eviction.touch(name)
        self.hotness.register(name, size)
        self.stats.insertions += 1
        return response.io.elapsed

    def _until_room(
        self, command: Callable[[], OsdResponse], exclude: Optional[str] = None
    ) -> OsdResponse:
        """Send a write or re-encode; while the target answers 0x64, evict and retry.

        The manager's only way to make room: the refused command is the
        question. 0x64 comes back only once nothing other than ``exclude``
        is left.
        """
        while True:
            response = command()
            if response.sense is not SenseCode.CACHE_FULL or not self.evict_one(exclude):
                return response

    def _initial_class(self, name: str, size: int, dirty: bool) -> ObjectClass:
        hot = (
            not dirty
            and self.hotness.would_be_hot(name, size)
            and self.initiator.can_afford_hot(size)
        )
        return classify(metadata=False, dirty=dirty, hot=hot)

    def evict_one(self, exclude: Optional[str] = None) -> bool:
        """Evict the policy's victim, flushing it first if dirty.

        Returns False when nothing other than ``exclude`` is left. Recovery
        calls it too, trading unimportant cached data for room to restripe
        important objects on a shrunken array.
        """
        try:
            victim = self._eviction.pop_victim(exclude)
        except KeyError:
            return False
        self._flush_if_dirty(victim)
        self._drop(victim, lost=False)
        self.stats.evictions += 1
        return True

    def _flush_if_dirty(self, name: str) -> None:
        cached = self._objects.get(name)
        if cached is None or not cached.dirty:
            return
        payload, response = self.initiator.read(cached.object_id)
        if not response.ok or payload is None:
            # The only valid copy is gone: permanent data loss (the paper's
            # catastrophic case). Record it; nothing can be flushed.
            self.stats.lost_objects += 1
            return
        self.backend.write(name, payload, version=cached.version)
        cached.dirty = False
        self.stats.flushes += 1

    def _drop(self, name: str, lost: bool) -> None:
        cached = self._objects.pop(name, None)
        if cached is None:
            return
        self._by_oid.pop(cached.object_id, None)
        self._eviction.discard(name)
        self.hotness.forget(name)
        self.initiator.remove(cached.object_id)  # FAIL when already gone
        if lost:
            self.stats.lost_objects += 1

    def drop_lost(self, object_id: ObjectId) -> None:
        """Purge an object recovery or a scrub found unrecoverable.

        The one purge above the array: a cached object is dropped and
        booked as lost; an object the cache has no name for (metadata, or
        written straight through the initiator) loses its target record.
        """
        name = self._by_oid.get(object_id)
        if name is not None:
            self._drop(name, lost=True)
        else:
            self.initiator.remove(object_id)

    # ------------------------------------------------------------------
    # Write-back sync
    # ------------------------------------------------------------------
    def flush_all(self) -> int:
        """Flush every dirty object to the backend; returns the count."""
        flushed = 0
        for name in list(self._objects):
            cached = self._objects[name]
            if cached.dirty:
                self._flush_if_dirty(name)
                if not cached.dirty:
                    flushed += 1
        return flushed

    # ------------------------------------------------------------------
    # Classification maintenance (paper §IV-C.1)
    # ------------------------------------------------------------------
    def _after_read(self) -> None:
        self._reads_since_reclassify += 1
        if self._reads_since_reclassify >= self.reclassify_interval:
            self.reclassify()

    def reclassify(self) -> int:
        """Recompute ``H_hot`` and re-encode objects whose class changed.

        Returns the number of objects reclassified. Requires a redundancy
        reserve (uniform policies have nothing to differentiate).
        """
        self._reads_since_reclassify = 0
        if self.initiator.degraded():
            # Re-encoding healthy objects mid-failure would compete with
            # recovery for the surviving devices; classification resumes
            # once the array is whole again.
            return 0
        reserve = self.initiator.hot_reserve()
        if reserve is None:
            return 0
        available, overhead = reserve
        self.hotness.update_threshold(available, overhead)
        # Decide the hot set hottest-first so H-value ties cannot blow past
        # the reserve, then apply demotions before promotions so freed space
        # and budget are available when hot objects are re-encoded.
        clean = sorted(
            (item for item in self._objects.items() if not item[1].dirty),
            key=lambda item: self.hotness.h_value(item[0]),
            reverse=True,
        )
        demotions = []
        promotions = []
        spent = 0.0
        for name, cached in clean:
            cost = cached.size * overhead if cached.size else 0.0
            wants_hot = (
                self.hotness.is_hot(name)
                and math.isfinite(cost)
                and spent + cost <= available
            )
            if wants_hot:
                spent += cost
            desired = classify(metadata=False, dirty=False, hot=wants_hot)
            if int(desired) != cached.class_id:
                target_list = promotions if desired is ObjectClass.HOT_CLEAN else demotions
                target_list.append((name, desired))
        changed = 0
        for name, desired in demotions + promotions:
            changed += self._apply_class_change(name, desired)
        self.stats.reclassifications += changed
        return changed

    def _apply_class_change(self, name: str, desired: ObjectClass) -> int:
        """Re-encode one object under its new class; returns 1 on success.

        A re-encode the target refuses with 0x64 evicts and retries like a
        write; if eviction is exhausted, or the target answers FAIL, the
        change is skipped and the object keeps its class.
        """
        cached = self._objects.get(name)
        if cached is None:  # evicted while making room for an earlier change
            return 0
        response = self._until_room(
            lambda: self.initiator.set_class(cached.object_id, int(desired)), exclude=name
        )
        if response.sense is SenseCode.DATA_CORRUPTED:
            self._drop(name, lost=True)
            return 0
        if response.ok:
            cached.class_id = int(desired)
            return 1
        return 0

    def __repr__(self) -> str:
        return (
            f"CacheManager(objects={len(self._objects)}, "
            f"dirty={self.dirty_count}, hits={self.stats.hits})"
        )
