"""Differentiated data recovery (paper §IV-D).

When a failed device is replaced by a spare, the recovery manager scans the
object table, drops what is irrecoverable, and rebuilds the rest **in class
order** — metadata, then dirty data, then hot clean, then cold clean — and
within a class by object id (see :meth:`RecoveryManager._priority` for the
paper's hotness tie-break). Object granularity means invalid blocks and
irrecoverable objects are simply skipped, unlike block-order RAID
reconstruction.

The manager owns the cache's :class:`~repro.core.supervisor.DurabilityLedger`
and books every rebuild and purge in it, supervised or not; the supervisor
adds incidents and scrub passes to the same ledger.

Recovery runs in the gaps between foreground requests: the experiment runner
calls :meth:`RecoveryManager.run_until` with the next request's arrival time
as the deadline, so reconstruction consumes idle device time and contends
with on-demand accesses only through the device queues — the paper's
"highest priority to the on-demand access" rule.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.cache.manager import CacheManager
from repro.core.supervisor import DurabilityLedger
from repro.errors import DeviceFullError, StripeLayoutError, UnrecoverableDataError
from repro.flash.array import ArrayIoResult, ObjectHealth
from repro.flash.stripe import ParityScheme, RedundancyScheme
from repro.osd.target import OsdTarget
from repro.osd.types import ObjectId

__all__ = ["RecoveryManager", "RecoveryPlan"]


@dataclass
class RecoveryPlan:
    """What a recovery scan found."""

    #: Objects to rebuild, already in priority order.
    to_rebuild: List[ObjectId] = field(default_factory=list)
    #: Objects lost beyond recovery (purged from cache and target).
    lost: List[ObjectId] = field(default_factory=list)

    @property
    def pending(self) -> int:
        return len(self.to_rebuild)


class RecoveryManager:
    """Class-ordered, object-granular reconstruction onto spare devices."""

    def __init__(
        self,
        target: OsdTarget,
        cache_manager: "CacheManager",
        prioritized: bool,
    ) -> None:
        """
        Args:
            cache_manager: object names, eviction room for restripes and
                the lost-object purge behind :meth:`purge`.
            prioritized: order reconstruction by class — the
                paper's differentiated recovery. False reconstructs in
                object-id (i.e. insertion) order, the analogue of a
                traditional block-order rebuild, for the ablation study.
        """
        self.prioritized = prioritized
        self.target = target
        self.array = target.array
        self.manager = cache_manager
        self._queue: Deque[ObjectId] = deque()
        self.active = False
        #: The cache's durability books: every rebuild and purge lands here.
        self.ledger = DurabilityLedger()
        self.chunks_rebuilt = 0
        self.seconds_spent = 0.0

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def scan(self) -> RecoveryPlan:
        """Triage every stored object against the current device states."""
        plan = RecoveryPlan()
        damaged = []
        for info in list(self.target.user_objects()):
            object_id = info.object_id
            if object_id not in self.array:
                continue
            # One stripe walk per object: missing chunks and health together.
            missing, health = self.array.triage_object(object_id)
            if not missing:
                continue
            if health is ObjectHealth.LOST:
                plan.lost.append(object_id)
            else:
                damaged.append((self._priority(info.class_id, object_id), object_id))
        damaged.sort(key=lambda item: item[0])
        plan.to_rebuild = [object_id for _, object_id in damaged]
        return plan

    def _priority(self, class_id: int, object_id: ObjectId):
        """Sort key: class ascending (§IV-D), then object id.

        Hotness is not consulted: the paper also orders a class by
        descending hotness, but every seeded recovery result was recorded
        without that tie-break, and adopting it is a behaviour change.
        """
        return (class_id if self.prioritized else 0, object_id)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(self) -> RecoveryPlan:
        """Scan, purge the lost, enqueue the rest, raise the 0x65 flag."""
        plan = self.scan()
        for object_id in plan.lost:
            self.purge(object_id)
        self._queue = deque(plan.to_rebuild)
        self.active = bool(self._queue)
        self.target.recovery_active = self.active
        return plan

    @property
    def pending(self) -> int:
        return len(self._queue)

    @property
    def objects_rebuilt(self) -> int:
        return self.ledger.objects_rebuilt

    @property
    def objects_lost(self) -> int:
        return self.ledger.objects_lost

    def step(self) -> Optional[ArrayIoResult]:
        """Reconstruct the next object; returns its I/O cost, or None when done.

        Two repair modes (paper §IV-D):

        - **rebuild** — all missing fragments have an online home device (a
          spare was inserted): decode and write just those fragments back.
        - **restripe** — some fragments live on still-failed devices (no
          spare): read the object degraded and re-lay it across the
          survivors, recreating redundancy there. The redundancy scheme is
          down-shifted if the shrunken width cannot fit it (e.g. 2-parity
          needs at least three devices).

        Objects that became unrecoverable since the scan (another failure
        mid-recovery) are purged and skipped; objects that no longer fit the
        shrunken array are left degraded.
        """
        while self._queue:
            object_id = self._queue.popleft()
            if object_id not in self.array:
                continue
            missing, _ = self.array.triage_object(object_id)
            if not missing:
                continue
            online = {device.device_id for device in self.array.online_devices}
            spare_covers_all = all(chunk.device_id in online for chunk in missing)
            try:
                if spare_covers_all:
                    result = self.array.rebuild_object(object_id)
                else:
                    result = self._restripe_with_room(object_id)
                    if result is None:
                        continue
            except UnrecoverableDataError:
                self.purge(object_id)
                continue
            self.ledger.record_rebuilt(result)
            self.chunks_rebuilt += result.chunks_written
            self.seconds_spent += result.elapsed
            if not self._queue:
                self._finish()
            return result
        self._finish()
        return None

    def run_until(self, deadline: float) -> int:
        """Rebuild objects until the simulated clock reaches ``deadline``.

        Advances the clock by each rebuild's elapsed time, so reconstruction
        occupies the idle window between foreground requests.
        """
        clock = self.array.clock
        steps = 0
        while self.active and clock.now < deadline:
            result = self.step()
            if result is None:
                break
            clock.advance(result.elapsed)
            steps += 1
        return steps

    def run_to_completion(self) -> int:
        """Drain the whole queue; returns the number of rebuilds."""
        return self.run_until(float("inf"))

    def _restripe_with_room(self, object_id: ObjectId) -> Optional[ArrayIoResult]:
        """Restripe an object, evicting LRU victims if the array is full.

        Differentiated recovery prefers keeping important data: when the
        shrunken array cannot hold the re-laid object, less-important cached
        objects are evicted (LRU order, dirty ones flushed first) until it
        fits. Returns None when the object must stay degraded.
        """
        if self.array.online_count < 1:
            # Nothing trusted left to restripe onto; leave the object
            # degraded rather than laying it out on a zero-width array.
            return None
        scheme = self._restripe_scheme(object_id)
        try:
            return self.array.restripe_object(object_id, scheme)
        except DeviceFullError:
            pass
        protected = self.manager.name_for(object_id)
        needed = self.array.estimate_stored_bytes(
            self.array.object_size(object_id), scheme
        )
        # Small headroom for per-device imbalance.
        while self.array.free_bytes < needed * 1.1:
            if not self.manager.evict_one(exclude=protected):
                break
        try:
            return self.array.restripe_object(object_id, scheme)
        except DeviceFullError:
            return None

    def _restripe_scheme(self, object_id) -> RedundancyScheme:
        """The scheme a restriped object should get, down-shifted to fit.

        Uses the target's policy for the object's current class; a parity
        count that no longer fits the online width is reduced (replication
        spans whatever width is online).
        """
        info = self.target.get_info(object_id)
        scheme = self.target.policy(info.class_id)
        width = self.array.online_count
        try:
            scheme.validate(width)
            return scheme
        except StripeLayoutError:
            if isinstance(scheme, ParityScheme):
                # validate only fails when parity >= width; keep the maximum
                # parity the shrunken stripe can hold.
                return ParityScheme(max(0, width - 1))
            return scheme

    def _finish(self) -> None:
        if self.active:
            self.target.recovery_completed = True
        self.active = False
        self.target.recovery_active = False

    def purge(self, object_id: ObjectId) -> None:
        """The one purge of an unrecoverable object: book it, then drop it."""
        # Class read before the purge removes the record; -1 once it is gone.
        info = self.target.get_info(object_id) if self.target.exists(object_id) else None
        self.ledger.record_lost(-1 if info is None else info.class_id)
        self.manager.drop_lost(object_id)

    def __repr__(self) -> str:
        return (
            f"RecoveryManager(active={self.active}, pending={self.pending}, "
            f"rebuilt={self.objects_rebuilt}, lost={self.objects_lost})"
        )
