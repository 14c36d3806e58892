"""Shard-grain network chaos: seeded, op-indexed fault schedules.

The second event vocabulary over :class:`~repro.faults.plan.SeededPlan`
(:class:`~repro.faults.plan.FaultPlan` holds the device one): a
:class:`NetFaultPlan` schedules shard-grain link pathologies — partitions
(blackholed shards), fail-slow links (injected latency ramps), flapping
(periodic drop/restore) and probabilistic drop noise — and
:class:`ShardChaos` adapts it into every shard server's ``fault_hook``.

Clock discipline: the net layer runs on wall time, which would make a
time-anchored schedule non-reproducible. Chaos events are therefore
anchored to each shard's **operation index** — the count of commands that
shard has served since the hooks were installed. A campaign that issues a
deterministic command sequence per shard (the chaos campaign's sequential
routed workload does) gets a byte-reproducible fault schedule: the same
ops are dropped and delayed on every run with the same seed.
Stochastic decisions (:class:`LinkNoise`) draw from the
:func:`~repro.faults.plan.stream` keyed
``"{plan.seed}:{event_index}:{shard_id}:net"``.

Fault semantics ride the server's :data:`~repro.net.server.FaultHook`
protocol — a plain function returning one of the server's three verdicts
(``None``, ``"drop"``, or the seconds to hold the reply; the server owns
the clock) — so every
injected failure lands *after* execution and before the reply: a dropped
write is the real-world ambiguous outcome (executed but unacknowledged),
exactly the case the client's idempotent-only retry and the router's
degraded paths are built to survive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.errors import FaultPlanError
from repro.faults.plan import SeededPlan, stream

if TYPE_CHECKING:  # pragma: no cover - imports only for annotations
    from repro.cluster.service import ClusterService

__all__ = [
    "LinkFailSlow",
    "LinkFlap",
    "LinkNoise",
    "NetFaultEvent",
    "NetFaultPlan",
    "NetPartition",
    "ShardChaos",
]


def _check_window(
    event: "Union[NetPartition, LinkFailSlow, LinkFlap, LinkNoise]",
) -> None:
    """Reject an op window that starts before 0 or ends at or before it starts."""
    name = type(event).__name__
    if event.from_op < 0:
        raise FaultPlanError(f"{name}.from_op must be non-negative")
    if event.until_op is not None and event.until_op <= event.from_op:
        raise FaultPlanError(f"{name}.until_op must exceed from_op")


def _active(
    event: "Union[LinkFailSlow, LinkFlap, LinkNoise]", shard_id: int, op: int
) -> bool:
    """True when ``event`` targets ``shard_id`` and its window holds ``op``."""
    return (
        event.shard == shard_id
        and event.from_op <= op
        and (event.until_op is None or op < event.until_op)
    )


@dataclass(frozen=True)
class NetPartition:
    """Blackhole the listed shards for a window of their operations.

    Our topology has exactly one kind of network edge — router client ↔
    shard — so a pairwise partition reduces to "these shards are
    unreachable from every client": each command in the window is executed
    but its connection is severed without a reply, which is what an
    ACK-less blackhole looks like from the initiator's side.
    """

    shards: Tuple[int, ...]
    from_op: int
    until_op: int

    def _validate(self) -> None:
        if not self.shards:
            raise FaultPlanError("NetPartition.shards must name at least one shard")
        if any(shard < 0 for shard in self.shards):
            raise FaultPlanError("NetPartition.shards must be shard ids")
        _check_window(self)


@dataclass(frozen=True)
class LinkFailSlow:
    """Ramp injected response latency on one shard's link.

    From ``from_op`` the delay climbs linearly over ``ramp_ops`` operations
    to ``delay`` seconds per response and stays there (until ``until_op``
    if given). The ramp is the realistic shape: fail-slow hardware degrades
    gradually, and a detector tuned on step functions misses it.
    """

    shard: int
    delay: float
    from_op: int = 0
    ramp_ops: int = 1
    until_op: Optional[int] = None

    def _validate(self) -> None:
        if self.shard < 0:
            raise FaultPlanError("LinkFailSlow.shard must be a shard id")
        if self.delay <= 0.0:
            raise FaultPlanError("LinkFailSlow.delay must be positive seconds")
        if self.ramp_ops < 1:
            raise FaultPlanError("LinkFailSlow.ramp_ops must be at least 1")
        _check_window(self)


@dataclass(frozen=True)
class LinkFlap:
    """Periodic drop/restore: the first ``down_ops`` of every period drop.

    Flapping is the detector's hardest case — each down window is short
    enough to look like noise, so a monitor that condemns on one burst
    false-positives and one that averages forever never reacts. The
    ``confirm_ops`` persistence in the shard health policy is what this
    event exists to exercise.
    """

    shard: int
    period_ops: int
    down_ops: int
    from_op: int = 0
    until_op: Optional[int] = None

    def _validate(self) -> None:
        if self.shard < 0:
            raise FaultPlanError("LinkFlap.shard must be a shard id")
        if self.period_ops < 1 or not 0 < self.down_ops <= self.period_ops:
            raise FaultPlanError(
                "LinkFlap needs period_ops >= 1 and 0 < down_ops <= period_ops"
            )
        _check_window(self)


@dataclass(frozen=True)
class LinkNoise:
    """Drop each response with probability ``drop_rate`` (seeded stream).

    The soft-error noise floor: retries must absorb it, the breaker must
    not trip on it, and the health monitor must stay below SUSPECT while
    the rate stays below its threshold.
    """

    shard: int
    drop_rate: float
    from_op: int = 0
    until_op: Optional[int] = None

    def _validate(self) -> None:
        if self.shard < 0:
            raise FaultPlanError("LinkNoise.shard must be a shard id")
        if not 0.0 <= self.drop_rate <= 1.0:
            raise FaultPlanError("LinkNoise.drop_rate must be in [0, 1]")
        _check_window(self)


NetFaultEvent = Union[NetPartition, LinkFailSlow, LinkFlap, LinkNoise]


class NetFaultPlan(SeededPlan):
    """A seeded schedule of shard-grain network fault events."""

    EVENT_TYPES = (NetPartition, LinkFailSlow, LinkFlap, LinkNoise)


class ShardChaos:
    """Executes a :class:`NetFaultPlan` as per-shard server fault hooks.

    One instance owns the per-shard operation counters and the seeded noise
    streams; :meth:`install` plugs a hook into every live shard of a
    :class:`~repro.cluster.service.ClusterService`. Counters (`drops`,
    `delays`, `delayed_seconds`) make the injected chaos auditable by
    campaigns and tests.
    """

    def __init__(self, plan: NetFaultPlan) -> None:
        self.plan = plan
        #: Commands seen per shard since install — the plan's clock.
        self.ops: Dict[int, int] = {}
        self.drops: Dict[int, int] = {}
        self.delays: Dict[int, int] = {}
        self.delayed_seconds: Dict[int, float] = {}
        self._service: "Optional[ClusterService]" = None
        self._streams: Dict[Tuple[int, int], random.Random] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def install(self, service: "ClusterService") -> "ShardChaos":
        """Hook every currently-live shard of ``service``."""
        self._service = service
        for shard_id, server in service.shards.items():
            server.fault_hook = self.hook_for(shard_id)
        return self

    def uninstall(self) -> None:
        """Remove the hooks from every still-live shard."""
        if self._service is not None:
            for server in self._service.shards.values():
                server.fault_hook = None
        self._service = None

    def hook_for(self, shard_id: int):
        """The server ``fault_hook`` enacting this plan at one shard."""

        def hook(command: object, seq: Optional[int]) -> Union[None, str, float]:
            return self._apply(shard_id)

        return hook

    # ------------------------------------------------------------------
    # The hook body
    # ------------------------------------------------------------------
    def _apply(self, shard_id: int) -> Union[None, str, float]:
        op = self.ops.get(shard_id, 0)
        self.ops[shard_id] = op + 1
        if self._dropped(shard_id, op):
            self.drops[shard_id] = self.drops.get(shard_id, 0) + 1
            return "drop"
        delay = self._delay(shard_id, op)
        if delay > 0.0:
            self.delays[shard_id] = self.delays.get(shard_id, 0) + 1
            self.delayed_seconds[shard_id] = (
                self.delayed_seconds.get(shard_id, 0.0) + delay
            )
            return delay  # the server holds the reply this long
        return None

    def _dropped(self, shard_id: int, op: int) -> bool:
        for _, event in self.plan.of_type(NetPartition):
            if shard_id in event.shards and event.from_op <= op < event.until_op:
                return True
        for _, event in self.plan.of_type(LinkFlap):
            if (
                _active(event, shard_id, op)
                and (op - event.from_op) % event.period_ops < event.down_ops
            ):
                return True
        for index, event in self.plan.of_type(LinkNoise):
            if (
                _active(event, shard_id, op)
                and self._stream(index, shard_id).random() < event.drop_rate
            ):
                return True
        return False

    def _delay(self, shard_id: int, op: int) -> float:
        total = 0.0
        for _, event in self.plan.of_type(LinkFailSlow):
            if not _active(event, shard_id, op):
                continue
            fraction = min(1.0, (op - event.from_op + 1) / event.ramp_ops)
            total += event.delay * fraction
        return total

    def _stream(self, event_index: int, shard_id: int) -> random.Random:
        key = (event_index, shard_id)
        if key not in self._streams:
            self._streams[key] = stream(self.plan.seed, event_index, shard_id, "net")
        return self._streams[key]

    def __repr__(self) -> str:
        return (
            f"ShardChaos(events={len(self.plan)}, seed={self.plan.seed}, "
            f"ops={sum(self.ops.values())}, "
            f"drops={sum(self.drops.values())})"
        )
