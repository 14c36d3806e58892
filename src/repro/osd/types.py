"""Object identifiers and metadata, after the T10 OSD-2 model.

Table I of the paper (itself following OSD-2 and Linux exofs) defines the
object taxonomy reproduced here:

- the **root object** at PID 0x0 / OID 0x0 records global device information;
- **partition objects** have PID >= 0x10000 and OID 0x0;
- **collection** and **user objects** share their partition's PID and have
  OID >= 0x10000;
- exofs reserves OIDs 0x10000-0x10002 of partition 0x10000 for the super
  block, device table, and root directory, and Reo reserves OID 0x10004 of
  the same partition as the control-message object.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "CLUSTER_MAP_OBJECT",
    "CONTROL_OBJECT",
    "DEVICE_TABLE",
    "FIRST_USER_OID",
    "ObjectId",
    "ObjectInfo",
    "ObjectKind",
    "PARTITION_BASE",
    "ROOT_DIRECTORY",
    "ROOT_OBJECT",
    "SERVICE_STATS_OBJECT",
    "SUPER_BLOCK",
]

#: Lowest PID/OID value for partitions, collections, and user objects.
PARTITION_BASE = 0x10000

#: First OID available for regular user objects (0x10000-0x10004 are
#: reserved by exofs/Reo, 0x10006 by the repro.net service layer, and
#: 0x10007 by the repro.cluster map-exchange endpoint; 0x10005 itself is
#: kept free for examples/tests that predate the extra reservations).
FIRST_USER_OID = 0x10005


class ObjectKind(enum.Enum):
    """The four OSD object types (OSD-2 §4.2, paper Table I)."""

    ROOT = "root"
    PARTITION = "partition"
    COLLECTION = "collection"
    USER = "user"


@dataclass(frozen=True, order=True)
class ObjectId:
    """A (partition id, object id) pair — the unique name of an OSD object."""

    pid: int
    oid: int

    def __post_init__(self) -> None:
        if self.pid < 0 or self.oid < 0:
            raise ValueError("PID and OID must be non-negative")

    def __str__(self) -> str:
        return f"{self.pid:#x}/{self.oid:#x}"


#: The root object: global OSD information.
ROOT_OBJECT = ObjectId(0x0, 0x0)
#: exofs super block object.
SUPER_BLOCK = ObjectId(PARTITION_BASE, 0x10000)
#: exofs device table object.
DEVICE_TABLE = ObjectId(PARTITION_BASE, 0x10001)
#: exofs root directory object.
ROOT_DIRECTORY = ObjectId(PARTITION_BASE, 0x10002)
#: Reo's reserved control-message object (paper §IV-C.2).
CONTROL_OBJECT = ObjectId(PARTITION_BASE, 0x10004)
#: The service layer's stats endpoint: a ``#QUERY#`` control write naming
#: this id is answered by the server itself (mirroring OID 0x10004
#: semantics) with a JSON :class:`~repro.net.stats.ServiceStats` payload.
SERVICE_STATS_OBJECT = ObjectId(PARTITION_BASE, 0x10006)
#: The cluster layer's map-exchange endpoint: a ``#QUERY#`` control write
#: naming this id is answered by a shard server with its current
#: epoch-versioned :class:`~repro.cluster.map.ClusterMap` as a JSON payload.
CLUSTER_MAP_OBJECT = ObjectId(PARTITION_BASE, 0x10007)


@dataclass
class ObjectInfo:
    """Target-side record for one stored object."""

    object_id: ObjectId
    kind: ObjectKind
    size: int = 0
    #: Reo class id (0 metadata, 1 dirty, 2 hot clean, 3 cold clean).
    class_id: int = 3
