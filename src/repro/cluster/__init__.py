"""``repro.cluster`` — the sharded multi-OSD layer.

Modules:

- :mod:`repro.cluster.placement` — rendezvous (HRW) placement primitives;
- :mod:`repro.cluster.map` — the epoch-versioned :class:`ClusterMap`;
- :mod:`repro.cluster.service` — :class:`ShardServer` + the in-process
  :class:`ClusterService` harness;
- :mod:`repro.cluster.router` — the map-driven :class:`RouterClient` with
  class-differentiated cross-shard redundancy and degraded reads;
- :mod:`repro.cluster.supervisor` — shard condemn / re-home, booked in the
  :class:`~repro.core.supervisor.DurabilityLedger`.
"""

from __future__ import annotations

from repro.cluster.breaker import CircuitBreaker, CircuitOpenError
from repro.cluster.health import (
    SHARD_HEALTH_POLICY,
    ShardHealth,
    ShardHealthMonitor,
    ShardProbe,
    ShardTransition,
)
from repro.cluster.map import (
    ClusterMap,
    ClusterMapError,
    ShardInfo,
    ShardState,
    fragment_object_id,
    is_fragment,
    parent_of_fragment,
)
from repro.cluster.placement import rank_shards, rendezvous_score
from repro.cluster.router import RouterClient, RouterStats
from repro.cluster.service import ClusterService, ShardServer
from repro.cluster.supervisor import ClusterSupervisor, RehomeReport

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "ClusterMap",
    "ClusterMapError",
    "ClusterService",
    "ClusterSupervisor",
    "RehomeReport",
    "RouterClient",
    "RouterStats",
    "SHARD_HEALTH_POLICY",
    "ShardHealth",
    "ShardHealthMonitor",
    "ShardInfo",
    "ShardProbe",
    "ShardServer",
    "ShardState",
    "ShardTransition",
    "fragment_object_id",
    "is_fragment",
    "parent_of_fragment",
    "rank_shards",
    "rendezvous_score",
]
