"""Declarative fault injection for reliability campaigns.

``repro.faults`` turns failure scenarios into data: a :class:`FaultPlan` is
a seeded, typed schedule of fault events (fail-stop, latent sector errors,
transient read errors, fail-slow, torn writes) that a
:class:`FaultInjector` executes deterministically against a simulated flash
array. :class:`NetFaultPlan` lifts the same discipline to the socket
service layer: shard-grain network chaos (partitions, fail-slow links,
flapping, crashes) executed by :class:`ShardChaos` as the shard servers'
fault hooks. See
:mod:`repro.faults.plan` and :mod:`repro.faults.netplan` for the event
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
    ShardCrash,
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
    "ShardCrash",
    "TornWrite",
    "TransientReadError",
]
