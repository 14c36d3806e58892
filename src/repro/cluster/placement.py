"""Rendezvous (HRW) object placement for the sharded OSD cluster.

Placement must satisfy three properties at once:

- **Determinism** — every router and every shard server must agree on who
  owns an object given only the object id and the eligible shard set; no
  coordination, no lookup table.
- **Balance** — sequential OIDs (the common allocation pattern) must spread
  evenly across shards.
- **Minimal movement** — when a shard joins or leaves, only the objects it
  gains or loses may move; everything else stays put. A modulo partition
  (``hash(oid) % N``) reshuffles ``(N-1)/N`` of all objects on a membership
  change, which would turn every condemned shard into a full-cluster
  rebalance.

Highest-random-weight (rendezvous) hashing gives all three: each
``(object, shard)`` pair gets a pseudo-random 64-bit score, and the object
belongs to the highest-scoring shard. Removing a shard only re-homes the
objects whose top score it held — an expected ``1/N`` fraction — and the
runner-up ranking doubles as the replica / stripe placement order, so the
``k + m`` fragments of one stripe land on distinct shards while shards
remain.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

from repro.osd.types import ObjectId

__all__ = [
    "RANKING_MEMO_ENTRIES",
    "rank_shards",
    "ranking",
    "rendezvous_score",
]

#: Rankings :func:`ranking` keeps (least recently used beyond that are
#: recomputed on their next touch). An entry is a few hundred bytes, so a
#: full memo is tens of MB at most.
RANKING_MEMO_ENTRIES = 1 << 16

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix64(value: int) -> int:
    """SplitMix64 finalizer: a cheap, well-distributed 64-bit mixer."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def rendezvous_score(object_id: ObjectId, shard_id: int) -> int:
    """The HRW weight of ``shard_id`` for ``object_id`` (64-bit, seedless).

    A pure function of ``(pid, oid, shard_id)`` — stable across processes
    and runs (never Python's salted ``hash()``), so every participant in
    the cluster computes identical rankings.
    """
    if shard_id < 0:
        raise ValueError("shard_id must be non-negative")
    key = _mix64((object_id.pid & _MASK64) * 0x9E3779B97F4A7C15 ^ _mix64(object_id.oid))
    return _mix64(key ^ _mix64(shard_id + 1))


def rank_shards(object_id: ObjectId, shard_ids: Sequence[int]) -> List[int]:
    """Shard ids ordered by descending HRW score for ``object_id``.

    The first entry is the primary owner; subsequent entries are the
    replica / stripe placement order. Ties (astronomically unlikely with a
    64-bit score) break toward the lower shard id so the order is total.
    """
    return sorted(
        shard_ids,
        key=lambda shard_id: (-rendezvous_score(object_id, shard_id), shard_id),
    )


@lru_cache(maxsize=RANKING_MEMO_ENTRIES)
def ranking(object_id: ObjectId, shard_ids: Tuple[int, ...]) -> Tuple[int, ...]:
    """:func:`rank_shards` as a bounded memo: the lookup placement runs on.

    The ranking is a pure function of its arguments, so the memo is keyed by
    the eligible set itself rather than by a map or an epoch: a new epoch
    with the same membership keeps its rankings, and a router and the shard
    servers of one process share one entry per object. The result is an
    immutable tuple because every caller is handed the same one.
    """
    return tuple(rank_shards(object_id, shard_ids))
