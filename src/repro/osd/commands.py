"""OSD command set, modelled on the T10 OSD-2 service actions the paper uses.

Commands are plain dataclasses with an :meth:`apply` method executing them
against an :class:`~repro.osd.target.OsdTarget`. The indirection mirrors the
SCSI command boundary of the real open-osd stack: the initiator builds
command PDUs, the target interprets them, and all status flows back as sense
codes. Keeping the boundary explicit lets tests drive the target exactly the
way the cache manager does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.osd.sense import SenseCode
from repro.osd.target import OsdResponse, OsdTarget
from repro.osd.types import ObjectId

__all__ = [
    "CreatePartition",
    "GetAttr",
    "ListPartition",
    "OsdCommand",
    "Read",
    "Remove",
    "Update",
    "Write",
]


class OsdCommand:
    """Base class for OSD commands (marker + shared docstring)."""

    def apply(self, target: OsdTarget) -> OsdResponse:
        raise NotImplementedError


@dataclass(frozen=True)
class CreatePartition(OsdCommand):
    """CREATE PARTITION service action."""

    pid: int

    def apply(self, target: OsdTarget) -> OsdResponse:
        return target.create_partition(self.pid)


@dataclass(frozen=True)
class Write(OsdCommand):
    """WRITE service action. ``class_id`` rides along as a capability hint."""

    object_id: ObjectId
    payload: bytes
    class_id: Optional[int] = None

    def apply(self, target: OsdTarget) -> OsdResponse:
        return target.write_object(self.object_id, self.payload, class_id=self.class_id)


@dataclass(frozen=True)
class Update(OsdCommand):
    """Partial in-place WRITE at a byte offset (delta/direct parity path)."""

    object_id: ObjectId
    offset: int
    payload: bytes

    def apply(self, target: OsdTarget) -> OsdResponse:
        return target.update_object(self.object_id, self.offset, self.payload)


@dataclass(frozen=True)
class Read(OsdCommand):
    """READ service action — whole-object read."""

    object_id: ObjectId

    def apply(self, target: OsdTarget) -> OsdResponse:
        return target.read_object(self.object_id)


@dataclass(frozen=True)
class Remove(OsdCommand):
    """REMOVE service action."""

    object_id: ObjectId

    def apply(self, target: OsdTarget) -> OsdResponse:
        return target.remove_object(self.object_id)


@dataclass(frozen=True)
class GetAttr(OsdCommand):
    """GET ATTRIBUTES service action: the object's class label as the payload.

    The one attribute a stored object has is its class (the §IV-B
    "semantic hint", set by ``#SETID#``); a partition is not a stored
    object and has none.
    """

    object_id: ObjectId

    def apply(self, target: OsdTarget) -> OsdResponse:
        if not target.exists(self.object_id):
            return OsdResponse(SenseCode.FAIL)
        class_id = target.get_info(self.object_id).class_id
        return OsdResponse(SenseCode.OK, payload=str(class_id).encode("ascii"))


@dataclass(frozen=True)
class ListPartition(OsdCommand):
    """LIST service action: member object ids, newline-separated."""

    pid: int

    def apply(self, target: OsdTarget) -> OsdResponse:
        if not target.has_partition(self.pid):
            return OsdResponse(SenseCode.FAIL)
        listing = "\n".join(str(oid) for oid in target.list_partition(self.pid))
        return OsdResponse(SenseCode.OK, payload=listing.encode("ascii"))
