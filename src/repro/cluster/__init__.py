"""``repro.cluster`` — the sharded multi-OSD layer.

Modules:

- :mod:`repro.cluster.placement` — rendezvous (HRW) placement primitives;
- :mod:`repro.cluster.map` — the epoch-versioned ``ClusterMap``;
- :mod:`repro.cluster.service` — ``ShardServer`` + the in-process
  ``ClusterService`` harness;
- :mod:`repro.cluster.router` — the map-driven ``RouterClient`` with
  class-differentiated cross-shard redundancy and degraded reads;
- :mod:`repro.cluster.supervisor` — shard condemn / re-home, booked in the
  :class:`~repro.core.supervisor.DurabilityLedger`.
"""
