"""The epoch-versioned cluster map: shard membership, state, and placement.

The map is the cluster's single routing truth: ``shard id → (host, port,
state, generation)`` plus a monotonically increasing **epoch**. Every
membership or state change produces a *new* map with ``epoch + 1`` — maps
are immutable values, so a router and a shard server can exchange and
compare them without locking, and "is my map stale?" is one integer
comparison.

Shard lifecycle (mirroring the device lifecycle of
:mod:`repro.core.health`):

- ``ONLINE`` — full member: takes new placement, serves everything.
- ``DRAINING`` — condemned-but-readable: loses placement (new writes route
  elsewhere) but still serves reads while its objects are evacuated.
- ``CONDEMNED`` — gone: excluded from placement and reads; its
  ``generation`` is bumped so a later replacement at the same id is a
  distinct failure-domain in the durability books.

Placement is rendezvous hashing (:mod:`repro.cluster.placement`) over the
*placement-eligible* shard ids, so a state flip moves only the objects the
flipped shard owned — the minimal-movement property the rebalance loop and
its property tests rely on. The same HRW ranking orders replicas and
erasure-stripe fragments, which is what lands the ``k + m`` fragments of a
class-2 stripe on distinct shards (declustered redundancy: one shard's
loss degrades a stripe instead of killing it). Because a map never
changes, it derives its eligible-id tuples and its id index once, and an
object's ranking is a lookup in the bounded memo of
:func:`repro.cluster.placement.ranking` after its first touch.

Fragment objects (see :mod:`repro.cluster.router`) live in a shadow
partition; they are placed by their *parent's* HRW ranking at their stripe
index, so one stripe's fragments never pile onto one shard merely because
their ids hash alike.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.cluster.placement import ranking
from repro.osd.types import ObjectId

__all__ = [
    "ClusterMap",
    "ClusterMapError",
    "STRIPE_PARTITION_OFFSET",
    "ShardInfo",
    "ShardState",
    "fragment_object_id",
    "is_fragment",
    "parent_of_fragment",
]

#: Fragment objects of a striped object in partition ``pid`` live in the
#: shadow partition ``pid + STRIPE_PARTITION_OFFSET`` — far above any real
#: partition id, so fragments can never collide with user objects.
STRIPE_PARTITION_OFFSET = 1 << 48

#: Fragment index bits within a fragment OID (``oid << 8 | index``).
_FRAGMENT_INDEX_BITS = 8
_MAX_FRAGMENTS = 1 << _FRAGMENT_INDEX_BITS


class ClusterMapError(ValueError):
    """A malformed map, an unknown shard, or an impossible placement."""


class ShardState(enum.Enum):
    """Lifecycle state of one shard within the map."""

    ONLINE = "online"
    DRAINING = "draining"
    CONDEMNED = "condemned"


def fragment_object_id(object_id: ObjectId, index: int) -> ObjectId:
    """The shadow-partition id of stripe fragment ``index`` of an object."""
    if not 0 <= index < _MAX_FRAGMENTS:
        raise ClusterMapError(f"fragment index {index} outside [0, {_MAX_FRAGMENTS})")
    return ObjectId(
        object_id.pid + STRIPE_PARTITION_OFFSET,
        (object_id.oid << _FRAGMENT_INDEX_BITS) | index,
    )


def is_fragment(object_id: ObjectId) -> bool:
    """Whether ``object_id`` names a stripe fragment (shadow partition)."""
    return object_id.pid >= STRIPE_PARTITION_OFFSET


def parent_of_fragment(object_id: ObjectId) -> Tuple[ObjectId, int]:
    """Invert :func:`fragment_object_id`: ``(parent id, fragment index)``."""
    if not is_fragment(object_id):
        raise ClusterMapError(f"{object_id} is not a fragment object")
    return (
        ObjectId(
            object_id.pid - STRIPE_PARTITION_OFFSET,
            object_id.oid >> _FRAGMENT_INDEX_BITS,
        ),
        object_id.oid & (_MAX_FRAGMENTS - 1),
    )


@dataclass(frozen=True)
class ShardInfo:
    """One shard's entry in the map."""

    shard_id: int
    host: str
    port: int
    state: ShardState = ShardState.ONLINE
    #: Bumped when the shard is condemned, so a replacement at the same id
    #: is a new failure domain in the durability ledger.
    generation: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "shard_id": self.shard_id,
            "host": self.host,
            "port": self.port,
            "state": self.state.value,
            "generation": self.generation,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ShardInfo":
        try:
            return cls(
                shard_id=int(data["shard_id"]),  # type: ignore[arg-type]
                host=str(data["host"]),
                port=int(data["port"]),  # type: ignore[arg-type]
                state=ShardState(str(data.get("state", "online"))),
                generation=int(data.get("generation", 0)),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ClusterMapError(f"malformed shard entry: {data!r}") from exc


@dataclass(frozen=True)
class ClusterMap:
    """An immutable, epoch-versioned view of cluster membership."""

    epoch: int
    shards: Tuple[ShardInfo, ...]

    def __post_init__(self) -> None:
        if self.epoch < 1:
            raise ClusterMapError("epoch must be >= 1")
        index: Dict[int, ShardInfo] = {}
        for shard in self.shards:
            if shard.shard_id in index:
                raise ClusterMapError(f"duplicate shard id {shard.shard_id}")
            index[shard.shard_id] = shard
        # Derived once, because the map never changes. Plain attributes, not
        # fields: ``==``, ``hash``, ``repr`` and the wire format ignore them.
        derive = object.__setattr__
        derive(self, "_index", index)
        online = [s.shard_id for s in self.shards if s.state is ShardState.ONLINE]
        readable = [
            s.shard_id for s in self.shards if s.state is not ShardState.CONDEMNED
        ]
        derive(self, "_placement", tuple(sorted(online)))
        derive(self, "_readable", tuple(sorted(readable)))

    # ------------------------------------------------------------------
    # Membership views
    # ------------------------------------------------------------------
    def shard(self, shard_id: int) -> Optional[ShardInfo]:
        return self._index.get(shard_id)  # type: ignore[attr-defined]

    def require(self, shard_id: int) -> ShardInfo:
        shard = self.shard(shard_id)
        if shard is None:
            raise ClusterMapError(f"no shard {shard_id} in epoch-{self.epoch} map")
        return shard

    @property
    def placement_ids(self) -> List[int]:
        """Shards eligible for *new* placement (ONLINE only, sorted)."""
        return list(self._placement)  # type: ignore[attr-defined]

    @property
    def readable_ids(self) -> List[int]:
        """Shards that may still serve reads (ONLINE + DRAINING, sorted)."""
        return list(self._readable)  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def ranking_for(self, object_id: ObjectId) -> Tuple[int, ...]:
        """The placement-eligible shards in HRW order for ``object_id``.

        A lookup in :func:`repro.cluster.placement.ranking` after the
        object's first touch. Rank 0 is the primary, rank 1 the mirror slot,
        and rank ``i`` (cycling while shards are scarce) the home of stripe
        fragment ``i`` — rank the *parent's* id, never a fragment's.
        """
        eligible = self._placement  # type: ignore[attr-defined]
        if not eligible:
            raise ClusterMapError(
                f"epoch-{self.epoch} map has no placement-eligible shards"
            )
        return ranking(object_id, eligible)

    def owners_for(self, object_id: ObjectId, width: int = 1) -> List[int]:
        """The ``width`` shards that may legitimately hold ``object_id``.

        Plain objects get the top-``width`` HRW ranking (primary first,
        then mirror slots). Fragment objects are placed by their *parent's*
        ranking at their stripe index — a single owner each — so one
        stripe's fragments occupy distinct shards while enough remain.
        """
        if is_fragment(object_id):
            parent, index = parent_of_fragment(object_id)
            ranked = self.ranking_for(parent)
            return [ranked[index % len(ranked)]]
        ranked = self.ranking_for(object_id)
        return list(ranked[: max(1, min(width, len(ranked)))])

    def stripe_shards_for(self, object_id: ObjectId, fragments: int) -> List[int]:
        """Shard per stripe fragment, distinct while shards suffice.

        With fewer eligible shards than fragments the ranking cycles; the
        failure-domain guarantee (one shard loss erases at most ⌈n/N⌉
        fragments) degrades gracefully instead of refusing writes.
        """
        if fragments < 1:
            raise ClusterMapError("a stripe needs at least one fragment")
        ranked = self.ranking_for(object_id)
        return [ranked[index % len(ranked)] for index in range(fragments)]

    # ------------------------------------------------------------------
    # Evolution (every change is a new map with a bumped epoch)
    # ------------------------------------------------------------------
    def with_shard_state(self, shard_id: int, state: ShardState) -> "ClusterMap":
        """A new map with ``shard_id`` flipped to ``state`` and epoch + 1."""
        current = self.require(shard_id)
        generation = current.generation
        if state is ShardState.CONDEMNED and current.state is not ShardState.CONDEMNED:
            generation += 1
        updated = replace(current, state=state, generation=generation)
        return ClusterMap(
            epoch=self.epoch + 1,
            shards=tuple(
                updated if shard.shard_id == shard_id else shard
                for shard in self.shards
            ),
        )

    def with_shard(self, shard: ShardInfo) -> "ClusterMap":
        """A new map with ``shard`` added (join) and epoch + 1."""
        if self.shard(shard.shard_id) is not None:
            raise ClusterMapError(f"shard {shard.shard_id} already in the map")
        shards = tuple(sorted((*self.shards, shard), key=lambda s: s.shard_id))
        return ClusterMap(epoch=self.epoch + 1, shards=shards)

    # ------------------------------------------------------------------
    # Wire format (the WRONG_SHARD / map-exchange payload)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "epoch": self.epoch,
            "shards": [shard.to_dict() for shard in self.shards],
        }

    def to_json(self) -> bytes:
        return json.dumps(self.to_dict(), sort_keys=True).encode("ascii")

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ClusterMap":
        try:
            epoch = int(data["epoch"])  # type: ignore[arg-type]
            entries = data["shards"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ClusterMapError(f"malformed cluster map: {data!r}") from exc
        if not isinstance(entries, list):
            raise ClusterMapError("cluster map 'shards' must be a list")
        return cls(
            epoch=epoch,
            shards=tuple(ShardInfo.from_dict(entry) for entry in entries),
        )

    @classmethod
    def from_json(cls, payload: bytes) -> "ClusterMap":
        try:
            data = json.loads(payload.decode("ascii"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ClusterMapError("cluster map payload is not valid JSON") from exc
        if not isinstance(data, dict):
            raise ClusterMapError("cluster map payload must be a JSON object")
        return cls.from_dict(data)

    def __repr__(self) -> str:
        states = ", ".join(
            f"{shard.shard_id}:{shard.state.value}" for shard in self.shards
        )
        return f"ClusterMap(epoch={self.epoch}, shards=[{states}])"
