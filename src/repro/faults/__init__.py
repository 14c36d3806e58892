"""Declarative fault injection for reliability campaigns.

``repro.faults`` turns failure scenarios into data. One container,
:class:`~repro.faults.plan.SeededPlan` — an immutable, seeded, typed
schedule whose every random decision comes from
:func:`~repro.faults.plan.stream` — carries two event vocabularies:

- :class:`FaultPlan`: device faults (fail-stop, latent sector errors,
  transient read errors, fail-slow, torn writes), executed by a
  :class:`FaultInjector` against a simulated flash array on simulated time;
- :class:`NetFaultPlan`: shard-grain network chaos (partitions, fail-slow
  links, flapping, drop noise), executed by :class:`ShardChaos` as the shard
  servers' fault hooks on each shard's operation count.

See :mod:`repro.faults.plan` and :mod:`repro.faults.netplan` for the event
catalogues.
"""

from repro.faults.injector import FaultInjector
from repro.faults.netplan import (
    LinkFailSlow,
    LinkFlap,
    LinkNoise,
    NetFaultEvent,
    NetFaultPlan,
    NetPartition,
    ShardChaos,
)
from repro.faults.plan import (
    FailSlow,
    FailStop,
    FaultEvent,
    FaultPlan,
    LatentErrors,
    TornWrite,
    TransientReadError,
)

__all__ = [
    "FailSlow",
    "FailStop",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "LatentErrors",
    "LinkFailSlow",
    "LinkFlap",
    "LinkNoise",
    "NetFaultEvent",
    "NetFaultPlan",
    "NetPartition",
    "ShardChaos",
    "TornWrite",
    "TransientReadError",
]
