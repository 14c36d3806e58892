"""Shard-level condemn / re-home: the shard tier's repair.

The failure plane decides once (:mod:`repro.core.health`: thresholds and
the escalation ladder; :mod:`repro.core.policy`: the class table and the
recovery order) and books into one
:class:`~repro.core.supervisor.DurabilityLedger`, where a shard incident is
keyed by ``(shard_id, generation)`` exactly like a device incident. What is
this tier's own is the *repair*: :class:`ClusterSupervisor` condemns a
shard, bumps the map epoch, and re-homes every object the shard owned
(:class:`~repro.core.supervisor.RecoverySupervisor` swaps a spare in and
rebuilds chunks instead).

Re-home flow (``condemn``):

1. Open a ledger incident for the shard's *next* generation and start the
   reduced-redundancy window.
2. Install a map with the shard ``DRAINING`` (evacuation: the shard still
   answers reads) or ``CONDEMNED`` (crash: it is gone). Installing the
   exclusion map *first* is load-bearing — the re-home writes below must
   pass the new owners' route checks.
3. Census every known partition across the still-readable shards and ask
   the holders of each plain object for its class (a ``GetAttr``, which
   answers the class label; the table stripes one class, so stripes need
   no query),
   then, in class order 0 → 1 → 2 → 3 — the paper's differentiated
   recovery — and by object id within a class (deterministic ledger):
   - **plain / mirrored objects** — copy to any new owner that lacks them,
     reading from a surviving holder (mirrored classes keep
     ``MIRROR_WIDTH`` copies). An object none of whose copies lands and
     none of whose new owners already holds it is booked lost;
   - **stripe fragments** — only fragments of one write count
     (:func:`~repro.cluster.router.agreeing_fragments`, the router's read
     rule): those away from home (the draining shard's) are copied there,
     and the rest — lost with a crashed shard, or left behind by a write
     that failed part-way — are *reconstructed* from ``k`` of them through
     the erasure codec and written home. Fewer than ``k`` books the stripe
     lost.

   Only a write its new home answers OK is booked.
4. Flip the shard to ``CONDEMNED``, stop it, and close the incident if every
   write planned for a surviving object landed. A home that is down keeps
   the incident and the reduced-redundancy window open until a later
   condemn lands the missing writes and closes every open incident.

Everything is timestamped with a logical step clock (one tick per booked
action), not wall time: two runs with the same seed produce byte-identical
ledgers despite asyncio's scheduling noise.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.cluster.map import (
    ClusterMap,
    ShardState,
    fragment_object_id,
    is_fragment,
    parent_of_fragment,
)
from repro.cluster.router import (
    RouterClient,
    StripeKey,
    agreeing_fragments,
    decode_fragment,
    encode_fragment,
)
from repro.cluster.service import ClusterService
from repro.core.classes import ObjectClass
from repro.core.policy import CLASS_LAYOUT, MIRROR_WIDTH, RECOVERY_ORDER
from repro.core.supervisor import DurabilityLedger
from repro.net.client import OsdServiceError
from repro.osd import commands
from repro.osd.target import OsdResponse
from repro.osd.types import ObjectId

if TYPE_CHECKING:  # pragma: no cover - imports only for annotations
    from repro.cluster.health import ShardHealthMonitor, ShardTransition

__all__ = ["ClusterSupervisor", "RehomeReport"]

#: ``GetAttr`` answer bytes → class id, for the classes the table knows.
_CLASS_OF_ATTRIBUTE: Dict[Optional[bytes], int] = {str(c).encode(): c for c in CLASS_LAYOUT}
#: The one class the table stripes: the class every stripe is re-homed under.
_STRIPED_CLASS = next(
    class_id for class_id, layout in CLASS_LAYOUT.items() if layout == "stripe"
)


@dataclass
class RehomeReport:
    """What one condemn/re-home cycle moved, rebuilt, and lost."""

    shard_id: int
    epoch_before: int
    epoch_after: int = 0
    objects_examined: int = 0
    objects_moved: int = 0
    fragments_moved: int = 0
    fragments_reconstructed: int = 0
    bytes_moved: int = 0
    lost_by_class: Dict[int, int] = field(default_factory=dict)
    #: Writes planned for a surviving object that no new home took. Not in
    #: :meth:`to_dict`, which the committed campaign ledgers embed.
    writes_missed: int = 0

    @property
    def objects_lost(self) -> int:
        return sum(self.lost_by_class.values())

    def to_dict(self) -> Dict[str, object]:
        return {
            "shard_id": self.shard_id,
            "epoch_before": self.epoch_before,
            "epoch_after": self.epoch_after,
            "objects_examined": self.objects_examined,
            "objects_moved": self.objects_moved,
            "fragments_moved": self.fragments_moved,
            "fragments_reconstructed": self.fragments_reconstructed,
            "bytes_moved": self.bytes_moved,
            "objects_lost": self.objects_lost,
            "lost_by_class": {
                str(class_id): count
                for class_id, count in sorted(self.lost_by_class.items())
            },
        }


class ClusterSupervisor:
    """Executes shard condemnations against a live :class:`ClusterService`."""

    def __init__(self, service: ClusterService, router: RouterClient) -> None:
        self.service = service
        self.router = router
        self.ledger = DurabilityLedger()
        self._step = 0.0
        #: Attached failure detector (see :meth:`attach_monitor`).
        self.monitor: "Optional[ShardHealthMonitor]" = None
        #: ``(transition, report)`` pairs for every autonomous condemn.
        self.auto_events: "List[Tuple[ShardTransition, RehomeReport]]" = []
        self._failure_queue: "Optional[asyncio.Queue]" = None
        self._auto_task: Optional[asyncio.Task] = None
        #: Shards currently mid-condemn (re-entrancy guard).
        self._condemning: set = set()

    def _tick(self) -> float:
        """The logical clock: one tick per booked action, never wall time."""
        self._step += 1.0
        return self._step

    # ------------------------------------------------------------------
    # Autonomous self-healing
    # ------------------------------------------------------------------
    def attach_monitor(self, monitor: "ShardHealthMonitor") -> None:
        """Subscribe to a failure detector's transition stream.

        FAILED verdicts are queued for the autonomous loop; everything
        else (suspect, recovery) is the detector's business. Nothing is
        booked in the ledger at transition time — transition *timing* is
        wall-clock noise (probe cadence, scheduler jitter), and booking it
        would break the byte-identical-ledger property. The ledger records
        detection on the logical step clock inside :meth:`condemn`.
        """
        self.monitor = monitor
        if self._failure_queue is None:
            self._failure_queue = asyncio.Queue()
        monitor.listeners.append(self._on_transition)

    def _on_transition(self, transition: "ShardTransition") -> None:
        if transition.new == "failed" and self._failure_queue is not None:
            self._failure_queue.put_nowait(transition)

    async def start_autonomous(self) -> None:
        """Run the SUSPECT→drain→condemn→re-home loop in the background."""
        if self.monitor is None:
            raise RuntimeError("attach_monitor() before start_autonomous()")
        if self._auto_task is None:
            self._auto_task = asyncio.ensure_future(self._autonomous_loop())

    async def stop_autonomous(self) -> None:
        task, self._auto_task = self._auto_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    async def _autonomous_loop(self) -> None:
        assert self._failure_queue is not None
        while True:
            transition = await self._failure_queue.get()
            await self.handle_failure(transition)

    async def handle_failure(
        self, transition: "ShardTransition"
    ) -> Optional[RehomeReport]:
        """React to one FAILED verdict: drain if alive, condemn, re-home.

        A shard whose server is still running (fail-slow, flapping) is
        *drained* — it keeps serving evacuation reads. A crashed shard is
        condemned outright and its objects come from survivors and erasure
        reconstruction. Verdicts for shards already being handled (or
        already out of the map) are dropped: the detector may re-fail a
        shard the supervisor is mid-way through removing.
        """
        shard_id = transition.shard_id
        cluster_map = self.service.cluster_map
        shard = cluster_map.shard(shard_id) if cluster_map is not None else None
        if (
            shard is None
            or shard.state is not ShardState.ONLINE
            or shard_id in self._condemning
        ):
            return None
        evacuate = shard_id in self.service.shards
        # The ledger reason is fixed text: the transition's own reason
        # embeds wall-clock EWMA readings, which would break the
        # byte-identical-ledger property. The full diagnostic rides along
        # in ``auto_events`` instead.
        report = await self.condemn(
            shard_id,
            reason="auto: detector verdict",
            evacuate=evacuate,
            detected=True,
        )
        self.auto_events.append((transition, report))
        return report

    # ------------------------------------------------------------------
    # The condemn / re-home cycle
    # ------------------------------------------------------------------
    async def condemn(
        self,
        shard_id: int,
        reason: str = "operator condemned",
        *,
        evacuate: bool = True,
        detected: bool = False,
    ) -> RehomeReport:
        """Remove ``shard_id`` from the cluster, re-homing what it held.

        Args:
            evacuate: the shard is still alive and readable — drain it by
                copying. ``False`` means it already crashed: survivors and
                erasure reconstruction are all we have.
        """
        cluster_map = self.service.cluster_map
        if cluster_map is None:
            raise RuntimeError("cluster not started")
        self._condemning.add(shard_id)
        try:
            report = RehomeReport(shard_id=shard_id, epoch_before=cluster_map.epoch)
            generation = cluster_map.require(shard_id).generation + 1
            incident = self.ledger.incident_for(shard_id, generation)
            if detected:
                # Detection preceded condemnation: book it as its own logical
                # step. Wall-clock detection latency is a *bench* metric — the
                # ledger stays on the deterministic step clock.
                incident.suspected_at = self._tick()
            now = self._tick()
            if not incident.reason:
                incident.reason = reason
            incident.failed_at = now
            self.ledger.begin_degraded(now)

            # Exclude the shard from placement *before* moving anything, so
            # the re-home writes pass the new owners' route checks.
            state = ShardState.DRAINING if evacuate else ShardState.CONDEMNED
            final = cluster_map.with_shard_state(shard_id, state)
            self.service.install_map(final)
            self.router.install_map(final)
            incident.swapped_at = self._tick()

            await self._rehome(final, report)

            if evacuate:
                final = final.with_shard_state(shard_id, ShardState.CONDEMNED)
                self.service.install_map(final)
                self.router.install_map(final)
            await self.service.stop_shard(shard_id)
            report.epoch_after = final.epoch
            if not report.writes_missed:
                self.ledger.mark_recovered(self._tick())
            return report
        finally:
            self._condemning.discard(shard_id)

    # ------------------------------------------------------------------
    # Join: grow the cluster and rebalance into the new shard
    # ------------------------------------------------------------------
    async def admit(self) -> RehomeReport:
        """Add one shard and move its HRW share of existing objects in.

        Rendezvous placement guarantees the new shard's share is the only
        thing that moves (≤ 1/N + ε of objects); everything else keeps its
        owners, so the census/re-home pass copies exactly the objects and
        fragments whose top-ranked owners now include the newcomer. Old
        copies are left behind as stragglers — the route check refuses
        mutations from non-owners, and reads resolve at the new homes —
        so a join never deletes anything.
        """
        before = self.service.cluster_map
        if before is None:
            raise RuntimeError("cluster not started")
        shard_id = await self.service.add_shard()
        joined = self.service.cluster_map
        assert joined is not None
        self.router.install_map(joined)
        report = RehomeReport(shard_id=shard_id, epoch_before=before.epoch)
        report.epoch_after = joined.epoch
        # Partitions exist on every shard: create them before anything
        # routes to the newcomer.
        for pid in sorted(self.router.known_partitions):
            await self._call(shard_id, commands.CreatePartition(pid))
        await self._rehome(joined, report)
        return report

    # ------------------------------------------------------------------
    # Census + movement
    # ------------------------------------------------------------------
    async def _census(self, cluster_map: ClusterMap) -> Dict[ObjectId, List[int]]:
        """Object id → shards currently holding it, across known partitions."""
        holders: Dict[ObjectId, List[int]] = {}
        for shard in cluster_map.shards:
            if shard.state is ShardState.CONDEMNED:
                continue
            client = self.router.client(shard.shard_id)
            for pid in sorted(self.router.known_partitions):
                try:
                    members, response = await client.list_partition(pid)
                except OsdServiceError:
                    break  # the shard is unreachable: nothing to list
                if not response.ok:
                    continue
                for object_id in members:
                    holders.setdefault(object_id, []).append(shard.shard_id)
        for held_by in holders.values():
            held_by.sort()
        return holders

    async def _rehome(self, cluster_map: ClusterMap, report: RehomeReport) -> None:
        holders = await self._census(cluster_map)
        plain: Dict[ObjectId, List[int]] = {}
        stripes: Dict[ObjectId, Dict[int, List[int]]] = {}
        for object_id, held_by in holders.items():
            if is_fragment(object_id):
                parent, index = parent_of_fragment(object_id)
                stripes.setdefault(parent, {})[index] = held_by
            else:
                plain[object_id] = held_by
        # Classes first, then the walk: differentiated recovery (§IV-D)
        # restores metadata and dirty data before hot clean before cold.
        queue: List[Tuple[int, ObjectId, bool]] = []
        for object_id in sorted(plain):
            class_id = await self._class_of(plain[object_id], object_id)
            queue.append((class_id, object_id, False))
        for parent in sorted(stripes):
            queue.append((_STRIPED_CLASS, parent, True))
        queue.sort(key=lambda item: (RECOVERY_ORDER.index(item[0]), item[1]))
        for class_id, object_id, striped in queue:
            report.objects_examined += 1
            if striped:
                await self._rehome_stripe(object_id, stripes[object_id], cluster_map, report)
            else:
                await self._rehome_plain(
                    object_id, class_id, plain[object_id], cluster_map, report
                )

    async def _call(
        self, shard_id: int, command: commands.OsdCommand
    ) -> Optional[OsdResponse]:
        """Send one command to a shard: its OK answer, or None when the
        shard refused the command or could not be reached."""
        try:
            response = await self.router.client(shard_id).submit(command)
        except OsdServiceError:
            return None
        return response if response.ok else None

    async def _class_of(self, held_by: List[int], object_id: ObjectId) -> int:
        """The object's class, from the first holder that states one.

        Every holder is asked in turn: one dropped ``GetAttr`` must not
        decide an object's redundancy. When none answers with a class the
        table knows, the object fails safe toward protection: it is taken
        for :attr:`ObjectClass.DIRTY`, re-homed at mirror width and tagged
        dirty. Over-protecting clean data costs a spare copy; taking dirty
        data for cold would leave the only valid copy of it unmirrored.
        """
        for shard_id in held_by:
            response = await self._call(shard_id, commands.GetAttr(object_id))
            if response is not None and response.payload in _CLASS_OF_ATTRIBUTE:
                return _CLASS_OF_ATTRIBUTE[response.payload]
        return int(ObjectClass.DIRTY)

    def _book_lost(self, report: RehomeReport, class_id: int) -> None:
        self.ledger.record_lost(class_id)
        report.lost_by_class[class_id] = report.lost_by_class.get(class_id, 0) + 1
        self._tick()

    async def _rehome_plain(
        self,
        object_id: ObjectId,
        class_id: int,
        held_by: List[int],
        cluster_map: ClusterMap,
        report: RehomeReport,
    ) -> None:
        width = MIRROR_WIDTH if CLASS_LAYOUT[class_id] == "mirror" else 1
        desired = cluster_map.owners_for(object_id, width=width)
        missing = [owner for owner in desired if owner not in held_by]
        if not missing:
            return
        read: Optional[OsdResponse] = None
        for holder in held_by:
            read = await self._call(holder, commands.Read(object_id))
            if read is not None:
                break
        landed = 0
        if read is not None:
            payload = read.payload or b""
            write = commands.Write(object_id, payload, class_id)
            for owner in missing:
                if await self._call(owner, write) is not None:
                    landed += 1
                    self.ledger.record_rehomed(len(payload))
                    report.objects_moved += 1
                    report.bytes_moved += len(payload)
                    self._tick()
        # A copy already on a new owner survives the leaving shard.
        if not landed and len(missing) == len(desired):
            self._book_lost(report, class_id)
        else:
            report.writes_missed += len(missing) - landed

    async def _rehome_stripe(
        self,
        parent: ObjectId,
        fragment_holders: Dict[int, List[int]],
        cluster_map: ClusterMap,
        report: RehomeReport,
    ) -> None:
        codec = self.router.codec
        plan = cluster_map.stripe_shards_for(parent, codec.n)
        # One copy of each surviving fragment, read from its home first: a
        # copy already home stays put unless it belongs to another write.
        present: Dict[int, Tuple[StripeKey, memoryview]] = {}
        source: Dict[int, int] = {}
        for index, held_by in sorted(fragment_holders.items()):
            fragment_id = fragment_object_id(parent, index)
            for holder in sorted(held_by, key=plan[index].__ne__):
                read = await self._call(holder, commands.Read(fragment_id))
                if read is None:
                    continue
                try:
                    present[index] = decode_fragment(read.payload or b"")
                except OsdServiceError:
                    continue
                source[index] = holder
                break
        key, agreed = agreeing_fragments(present)
        if key is None or len(agreed) < codec.k:
            self._book_lost(report, _STRIPED_CLASS)
            return
        missing = [index for index in range(codec.n) if index not in agreed]
        fragments = {**agreed, **codec.reconstruct(agreed, missing)} if missing else agreed
        for index, home in enumerate(plan):
            if index in agreed and source[index] == home:
                continue
            fragment_id = fragment_object_id(parent, index)
            payload = fragments[index]
            blob = encode_fragment(payload, key, index)
            write = commands.Write(fragment_id, blob, key.class_id)
            if await self._call(home, write) is None:
                report.writes_missed += 1  # not booked: the home is down or refused it
                continue
            self.ledger.record_rehomed(len(payload))
            if index in agreed:
                report.fragments_moved += 1
            else:
                report.fragments_reconstructed += 1
            report.bytes_moved += len(payload)
            self._tick()
        self.router.note_layout(parent, "stripe")
