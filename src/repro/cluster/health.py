"""Shard-level health monitoring: the cluster's failure detector.

The *shard* (one OSD server behind a socket) is the unit of suspicion, and
the evidence is round-trip observations — passive samples reported by the
:class:`~repro.cluster.router.RouterClient` around every routed command,
plus active heartbeats from a :class:`ShardProbe` loop, both folded into
the same per-shard EWMAs:

- an **error-rate** EWMA (timeouts, connection failures, exhausted
  retries per observation), and
- a **slowdown** EWMA — observed round-trip seconds over the shard's own
  learned healthy baseline (the mean of its first successful samples), so
  the metric is scale-free: a healthy shard hovers near 1.0 and a
  fail-slow link converges to its injected multiplier.

What to conclude from the EWMAs is not decided here: the thresholds
(:class:`~repro.core.health.HealthPolicy`), the rolling record and the
ONLINE → SUSPECT → FAILED ladder (:func:`~repro.core.health.escalate`) are
the failure plane's one shared decision, in :mod:`repro.core.health`. A
threshold crossing (after ``min_ops`` warm-up) parks a shard in SUSPECT;
only a pathology that *persists* for ``confirm_ops`` further observations,
or worsens past the hard thresholds, is FAILED — so a flapping link parks a
shard without condemning it, while sustained fail-slow escalates. This
tier acts on the ``recovered`` verdict: probes keep evidence flowing to a
parked shard, so one that stopped flapping earns its way back to ONLINE.
The FAILED verdict is emitted as a :class:`ShardTransition` for the
autonomous :class:`~repro.cluster.supervisor.ClusterSupervisor` loop to
act on (drain → condemn → re-home), keeping detection separate from repair.

The monitor holds no clock of its own: callers stamp every observation
with their ``now``. Transitions carry those wall timestamps for the
chaos campaign's detection-latency metric, but nothing here feeds the
DurabilityLedger directly — the supervisor books ledger entries on its
own logical step clock, which is what keeps ledgers byte-identical per
seed despite wall-time noise.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, NamedTuple, Optional

from repro.core.health import (
    HealthPolicy,
    HealthRecord,
    TransitionLog,
    _reason,
    escalate,
)
from repro.net.client import OsdServiceError

if TYPE_CHECKING:  # pragma: no cover - imports only for annotations
    from repro.cluster.router import RouterClient

__all__ = [
    "SHARD_HEALTH_POLICY",
    "ShardHealth",
    "ShardHealthMonitor",
    "ShardProbe",
    "ShardTransition",
]

#: The shard tier's thresholds. Deliberately hotter than the device
#: defaults: a shard observation is a whole round trip (already smoothed
#: over many device ops), sample rates are lower (per command + heartbeat,
#: not per chunk), and a condemned shard is rebuilt from redundancy rather
#: than thrown away — so the detector can afford to be decisive.
SHARD_HEALTH_POLICY = HealthPolicy(
    alpha=0.15,
    min_ops=6,
    suspect_error_rate=0.25,
    fail_error_rate=0.60,
    suspect_slowdown=4.0,
    fail_slowdown=60.0,
    confirm_ops=12,
)


@dataclass
class ShardHealth(HealthRecord):
    """One shard's record, which is also where its detector state lives."""

    state: str = "online"  # "online" | "suspect" | "failed"
    #: Learned healthy round-trip baseline (seconds); None while warming up.
    baseline: Optional[float] = None
    _baseline_sum: float = field(default=0.0, repr=False)
    _baseline_count: int = field(default=0, repr=False)


class ShardTransition(NamedTuple):
    """One detector state-machine step for one shard."""

    shard_id: int
    old: str
    new: str  # "suspect" | "failed" | "online"
    at: float
    reason: str


class ShardHealthMonitor(TransitionLog[ShardTransition]):
    """Folds per-shard round-trip observations into SUSPECT/FAILED verdicts."""

    def __init__(self, policy: Optional[HealthPolicy] = None) -> None:
        super().__init__()
        self.policy = policy or SHARD_HEALTH_POLICY
        self.shards: Dict[int, ShardHealth] = {}

    # ------------------------------------------------------------------
    # Observation intake
    # ------------------------------------------------------------------
    def observe(
        self,
        shard_id: int,
        latency: Optional[float],
        *,
        ok: bool,
        now: float,
    ) -> None:
        """Fold one round-trip observation (probe or routed command).

        ``latency`` is the observed round-trip in seconds for successful
        observations; errors (``ok=False``) carry no latency sample — a
        timeout's duration measures the client's patience, not the shard.
        """
        policy = self.policy
        health = self.health_of(shard_id)
        health.ops += 1
        alpha = policy.alpha
        health.error_ewma += alpha * ((0.0 if ok else 1.0) - health.error_ewma)
        if not ok:
            health.errors += 1
        elif latency is not None:
            if health.baseline is None:
                health._baseline_sum += latency
                health._baseline_count += 1
                if health._baseline_count >= policy.min_ops:
                    health.baseline = max(
                        policy.baseline_floor,
                        health._baseline_sum / health._baseline_count,
                    )
            else:
                slowdown = latency / health.baseline
                health.slowdown_ewma += alpha * (slowdown - health.slowdown_ewma)
        if health.state != "failed":
            self._evaluate(shard_id, health, now)

    def _evaluate(self, shard_id: int, health: ShardHealth, now: float) -> None:
        verdict = escalate(self.policy, health, health.state)
        if verdict is None:
            return
        new, cause = verdict
        transition = ShardTransition(
            shard_id, health.state, new, now, _reason(cause, health)
        )
        health.state = new
        if new == "suspect":
            health.suspect_at_ops = health.ops
            health.suspect_since = now
        elif new == "online":
            health.suspect_at_ops = health.suspect_since = None
        self._emit(transition)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def health_of(self, shard_id: int) -> ShardHealth:
        health = self.shards.get(shard_id)
        if health is None:
            health = self.shards[shard_id] = ShardHealth()
        return health

    def state_of(self, shard_id: int) -> str:
        return self.health_of(shard_id).state


class ShardProbe:
    """Active heartbeat loop feeding a :class:`ShardHealthMonitor`.

    Passive router observations alone starve the detector exactly when it
    matters most: a crashed or blackholed shard stops producing routed
    traffic (the breaker fast-fails, reads fail over), so its EWMAs would
    freeze mid-suspicion. The probe keeps evidence flowing — one cheap
    ``ServiceStats`` control read per readable shard per tick, measured
    and reported like any other observation. Probes go straight to the
    per-shard client, bypassing the router's circuit breaker: they are the
    mechanism by which a SUSPECT shard either rehabilitates or confirms.
    """

    def __init__(
        self,
        router: "RouterClient",
        monitor: ShardHealthMonitor,
        *,
        interval: float = 0.02,
    ) -> None:
        self.router = router
        self.monitor = monitor
        self.interval = interval
        self.probes = 0
        self.failures = 0
        self._task: Optional[asyncio.Task] = None

    async def start(self) -> "ShardProbe":
        if self._task is None:
            self._task = asyncio.ensure_future(self._run())
        return self

    async def aclose(self) -> None:
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    async def _run(self) -> None:
        while True:
            await self.probe_once()
            await asyncio.sleep(self.interval)

    async def probe_once(self) -> None:
        """One heartbeat round over every readable shard."""
        loop = asyncio.get_running_loop()
        for shard_id in sorted(self.router.cluster_map.readable_ids):
            started = loop.time()
            try:
                await self.router.client(shard_id).service_stats()
            except OsdServiceError:
                self.failures += 1
                self.monitor.observe(shard_id, None, ok=False, now=loop.time())
            else:
                elapsed = loop.time() - started
                self.monitor.observe(shard_id, elapsed, ok=True, now=loop.time())
            finally:
                self.probes += 1
