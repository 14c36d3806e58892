"""The OSD target: the server side of the object cache (paper §V).

The target owns the flash array and executes object commands. As in the
paper's prototype — where the stock osd-target's host file system and SQLite
metadata were replaced by the flash array and a hash table — object metadata
here is a plain dict keyed by :class:`~repro.osd.types.ObjectId`.

Partitions are a namespace (``pid`` → member ids): a partition's own id,
OID 0, names no stored object and answers FAIL to reads, writes, removes,
GetAttr and ``#SETID#``.

The target is policy-agnostic: it maps an object's *class id* to a
:class:`~repro.flash.stripe.RedundancyScheme` through the
``policy(class_id)`` callable every constructor passes. Reo's
differentiated policy and the uniform baselines (paper §VI) are both
implemented in :mod:`repro.core.policy` and injected here, so every
experiment runs the same target code and varies only the policy.
The target also owns the policy's redundancy reserve, if it declares one,
and answers write queries with sense 0x67 while the reserve is exhausted.

Admission is the target's too: a write or re-encode that would carry the
stored bytes past :attr:`OsdTarget.usable_bytes` is answered with 0x64, so
the initiator evicts and retries; one that could not fit in an empty array,
or whose scheme is wider than the online devices, is answered with FAIL,
since no eviction helps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.core.redundancy import RedundancyBudget
from repro.errors import (
    ControlMessageError,
    DeviceFullError,
    FlashError,
    ObjectNotFoundError,
    StripeLayoutError,
    UnrecoverableDataError,
)
from repro.flash.array import ArrayIoResult, FlashArray, ObjectHealth
from repro.flash.stripe import RedundancyScheme
from repro.osd.control import QueryMessage, SetClassMessage, parse_control_message
from repro.osd.sense import SenseCode
from repro.osd.types import CONTROL_OBJECT, ROOT_OBJECT, ObjectId, ObjectInfo, ObjectKind

__all__ = ["OsdResponse", "OsdTarget", "SchemePolicy"]

#: Maps a Reo class id to the redundancy scheme objects of that class get.
SchemePolicy = Callable[[int], RedundancyScheme]

#: Share of the online capacity kept free; it absorbs per-device imbalance
#: from rotated parity and uneven tail chunks.
CAPACITY_MARGIN = 0.02


@dataclass
class OsdResponse:
    """Outcome of one OSD command."""

    sense: SenseCode
    io: ArrayIoResult = field(default_factory=ArrayIoResult)
    payload: Optional[bytes] = None

    @property
    def ok(self) -> bool:
        return self.sense is SenseCode.OK


class OsdTarget:
    """Executes object commands against a flash array."""

    def __init__(self, array: FlashArray, policy: SchemePolicy) -> None:
        self.array = array
        self.policy = policy
        #: Stored (user and collection) objects; a partition is only a key
        #: of ``_partitions``, holding no data and no attributes.
        self._objects: Dict[ObjectId, ObjectInfo] = {}
        self._partitions: Dict[int, Set[ObjectId]] = {}
        #: Set by the recovery manager while reconstruction is in progress;
        #: surfaces to initiators as sense 0x65/0x66 on queries.
        self.recovery_active = False
        #: True once a recovery pass has completed (drives sense 0x66).
        self.recovery_completed = False
        #: Reo's redundancy reserve; None when the policy declares none.
        self.budget: Optional[RedundancyBudget] = (
            RedundancyBudget(array, policy)
            if getattr(policy, "reserve_fraction", None) is not None
            else None
        )

    # ------------------------------------------------------------------
    # Namespace
    # ------------------------------------------------------------------
    def create_partition(self, pid: int) -> OsdResponse:
        """Create partition ``pid``: a namespace, not a stored object.

        Its object id (``pid``, OID 0) answers FAIL to every data and
        control command.
        """
        if pid in self._partitions:
            return OsdResponse(SenseCode.FAIL)
        self._partitions[pid] = set()
        return OsdResponse(SenseCode.OK)

    def has_partition(self, pid: int) -> bool:
        return pid in self._partitions

    def exists(self, object_id: ObjectId) -> bool:
        return object_id in self._objects

    def get_info(self, object_id: ObjectId) -> ObjectInfo:
        try:
            return self._objects[object_id]
        except KeyError:
            raise ObjectNotFoundError(f"no object {object_id}") from None

    def list_partition(self, pid: int) -> List[ObjectId]:
        """User/collection objects within a partition, sorted by id."""
        if pid not in self._partitions:
            raise ObjectNotFoundError(f"no partition {pid:#x}")
        return sorted(self._partitions[pid])

    def user_objects(self) -> Iterable[ObjectInfo]:
        return self._objects.values()

    @property
    def usable_bytes(self) -> float:
        """Stored bytes the target admits up to: online capacity less the margin."""
        return self.array.capacity_bytes * (1.0 - CAPACITY_MARGIN)

    def _room_for(self, object_id: ObjectId, size: int, scheme: RedundancyScheme) -> SenseCode:
        """Admission of ``size`` bytes under ``scheme`` in place of ``object_id``'s copy.

        FAIL when no eviction helps (the scheme is wider than the online
        devices, or the object alone exceeds the usable bytes), 0x64 when
        the stored bytes, with the old copy counted once, would cross them.
        An overwrite lays the new copy down before it drops the old one, so
        it also answers 0x64 when the new copy exceeds the free bytes: the
        array would program it only to roll it back.
        """
        usable = self.usable_bytes
        try:
            projected = self.array.estimate_stored_bytes(size, scheme)
        except StripeLayoutError:
            return SenseCode.FAIL
        if projected > usable:
            return SenseCode.FAIL
        old = 0
        if object_id in self.array:
            if projected > self.array.free_bytes:
                return SenseCode.CACHE_FULL
            old = self.array.stored_bytes_for(object_id)
        if self.array.used_bytes - old + projected > usable:
            return SenseCode.CACHE_FULL
        return SenseCode.OK

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def write_object(
        self,
        object_id: ObjectId,
        payload: bytes,
        class_id: Optional[int] = None,
        kind: ObjectKind = ObjectKind.USER,
    ) -> OsdResponse:
        """Create or overwrite an object, encoding it per its class's scheme.

        Writes to the control object are intercepted and interpreted as
        control messages (paper §IV-C.2). A partition object (OID 0) holds
        no data: a write naming one answers FAIL.
        """
        if object_id == CONTROL_OBJECT:
            return self._handle_control_write(payload)
        if object_id.pid not in self._partitions or object_id.oid == 0:
            return OsdResponse(SenseCode.FAIL)
        existing = self._objects.get(object_id)
        if existing is not None:
            effective_class = class_id if class_id is not None else existing.class_id
        else:
            effective_class = class_id if class_id is not None else 3
        scheme = self.policy(effective_class)
        room = self._room_for(object_id, len(payload), scheme)
        if room is not SenseCode.OK:
            return OsdResponse(room)
        try:
            io = self.array.write_object(object_id, payload, scheme, overwrite=True)
        except UnrecoverableDataError:
            return OsdResponse(SenseCode.DATA_CORRUPTED)
        except DeviceFullError:
            return OsdResponse(SenseCode.CACHE_FULL)
        info = existing
        if info is None:
            info = ObjectInfo(
                object_id=object_id,
                kind=kind,
                size=len(payload),
                class_id=effective_class,
            )
            self._objects[object_id] = info
            self._partitions[object_id.pid].add(object_id)
        else:
            info.size = len(payload)
            info.class_id = effective_class
        return OsdResponse(SenseCode.OK, io=io)

    def update_object(self, object_id: ObjectId, offset: int, data: bytes) -> OsdResponse:
        """Partial in-place WRITE at a byte offset (paper §II-B update path).

        Touches only the affected stripes, choosing delta vs direct parity
        updating per stripe by fragment-read cost. Fails (0x63) when the
        object is degraded — repair precedes update.
        """
        if object_id not in self._objects:
            return OsdResponse(SenseCode.FAIL)
        if self.array.object_health(object_id) is not ObjectHealth.HEALTHY:
            return OsdResponse(SenseCode.DATA_CORRUPTED)
        try:
            io = self.array.update_range(object_id, offset, data)
        except FlashError:
            return OsdResponse(SenseCode.FAIL)
        return OsdResponse(SenseCode.OK, io=io)

    def read_object(self, object_id: ObjectId) -> OsdResponse:
        """Read an object; degraded stripes are decoded transparently."""
        if object_id not in self._objects:
            return OsdResponse(SenseCode.FAIL)
        try:
            payload, io = self.array.read_object(object_id)
        except UnrecoverableDataError:
            return OsdResponse(SenseCode.DATA_CORRUPTED)
        return OsdResponse(SenseCode.OK, io=io, payload=payload)

    def remove_object(self, object_id: ObjectId) -> OsdResponse:
        """Remove a user or collection object; a partition is not one."""
        if object_id not in self._objects:
            return OsdResponse(SenseCode.FAIL)
        del self._objects[object_id]
        self._partitions[object_id.pid].discard(object_id)
        return OsdResponse(SenseCode.OK, io=self.array.delete_object(object_id))

    # ------------------------------------------------------------------
    # Classification (differentiated redundancy hookup)
    # ------------------------------------------------------------------
    def set_class(self, object_id: ObjectId, class_id: int) -> OsdResponse:
        """Reclassify an object, re-encoding it if its scheme changes.

        Re-encoding reads the object (degraded reads allowed) and rewrites it
        under the new scheme, admitted like a write; a lost object cannot be
        reclassified and returns sense 0x63. Whatever the answer other than
        OK, the object keeps its old class and layout.
        """
        info = self._objects.get(object_id)
        if info is None:
            return OsdResponse(SenseCode.FAIL)
        new_scheme = self.policy(class_id)
        io = ArrayIoResult()
        if new_scheme != self.policy(info.class_id):
            room = self._room_for(object_id, info.size, new_scheme)
            if room is not SenseCode.OK:
                return OsdResponse(room)
            try:
                payload, io = self.array.read_object(object_id)
                io.merge(self.array.write_object(object_id, payload, new_scheme, overwrite=True))
            except UnrecoverableDataError:
                return OsdResponse(SenseCode.DATA_CORRUPTED)
            except DeviceFullError:
                return OsdResponse(SenseCode.CACHE_FULL)
        info.class_id = class_id
        return OsdResponse(SenseCode.OK, io=io)

    # ------------------------------------------------------------------
    # Control object (paper §IV-C.2)
    # ------------------------------------------------------------------
    def _handle_control_write(self, payload: bytes) -> OsdResponse:
        try:
            message = parse_control_message(payload)
        except ControlMessageError:
            return OsdResponse(SenseCode.FAIL)
        # A control write is a few dozen bytes, written synchronously
        # (fsync); bill one small device write on the simulated clock.
        io = ArrayIoResult(
            elapsed=self.array.devices[0].model.write_time(len(payload)),
            chunks_written=1,
            bytes_written=len(payload),
        )
        if isinstance(message, SetClassMessage):
            response = self.set_class(message.object_id, message.class_id)
            response.io.merge(io)
            return response
        assert isinstance(message, QueryMessage)
        sense = self.query(message)
        return OsdResponse(sense, io=io)

    def query(self, message: QueryMessage) -> SenseCode:
        """Answer a #QUERY# status probe (paper Table III semantics).

        A query against the root object (PID 0/OID 0) reports the global
        recovery state: 0x65 while reconstruction runs, 0x66 once it has
        completed, 0x0 when no recovery ever happened.
        """
        if message.object_id == ROOT_OBJECT:
            if self.recovery_active:
                return SenseCode.RECOVERY_STARTED
            if self.recovery_completed:
                return SenseCode.RECOVERY_ENDED
            return SenseCode.OK
        if message.object_id not in self._objects:
            if message.operation != "W":
                return SenseCode.FAIL
            if self.budget is not None and self.budget.is_full:
                return SenseCode.REDUNDANCY_FULL
            # A new object of the default class; a refused write of any
            # kind reads as no room.
            room = self._room_for(message.object_id, message.size, self.policy(3))
            return SenseCode.OK if room is SenseCode.OK else SenseCode.CACHE_FULL
        health = self.array.object_health(message.object_id)
        if health is ObjectHealth.LOST:
            return SenseCode.DATA_CORRUPTED
        if health is ObjectHealth.DEGRADED and self.recovery_active:
            return SenseCode.RECOVERY_STARTED
        return SenseCode.OK

    def __repr__(self) -> str:
        return f"OsdTarget(objects={len(self._objects)}, array={self.array!r})"
