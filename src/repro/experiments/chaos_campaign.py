"""The chaos campaign: seeded network faults vs. autonomous self-healing.

Where :func:`~repro.experiments.cluster_campaign.run_cluster_campaign`
hard-kills a shard and *asks* the supervisor to condemn it, this campaign
never tells the control plane anything. It injects a seeded
:class:`~repro.faults.netplan.NetFaultPlan` — a partition burst, a flapping link,
and a fail-slow latency ramp — under a routed read workload and requires
the cluster to save itself:

1. **Transient phase** — the partition burst and the flap hit two healthy
   shards. The detector may park them in SUSPECT, but neither may be
   condemned: both pathologies end, the shards earn their way back to
   ONLINE, and the degraded-mode client (breakers, deadline budgets,
   mirror failover, erasure reconstruction) keeps every protected-class
   read byte-exact throughout.
2. **Fail-slow phase** — a persistent latency ramp on the victim shard.
   The :class:`~repro.cluster.health.ShardHealthMonitor` (probe heartbeats
   + passive router observations) must escalate it ONLINE → SUSPECT →
   FAILED, and the autonomous :class:`ClusterSupervisor` loop must drain,
   condemn, and re-home it — no campaign involvement. Once the detector
   learns the primary is slow, mirrored reads hedge to the mirror.

The workload is read-only between populate and verify, so the census at
condemn time — and therefore the :class:`DurabilityLedger` — is a pure
function of the seed: identical seeds produce byte-identical ledger
artefacts despite wall-clock noise. Wall-clock numbers (detection
latency, degraded-window throughput, hedge rate) are reported by
the campaign's printed table, not persisted and not gated.

Losing any protected-class object (0-2) raises
:class:`~repro.experiments.campaign.CampaignLossError`; condemning the
wrong shard, or none, raises :class:`ChaosCampaignError`.
"""

from __future__ import annotations

import asyncio
import random
from typing import Dict, Optional

from repro.cluster.health import ShardHealthMonitor, ShardProbe
from repro.cluster.router import RouterClient
from repro.cluster.service import ClusterService
from repro.cluster.supervisor import ClusterSupervisor
from repro.core.health import HealthPolicy
from repro.experiments.campaign import Campaign, Population
from repro.faults.netplan import LinkFailSlow, LinkFlap, NetFaultPlan, NetPartition, ShardChaos
from repro.net.retry import NO_RETRY
from repro.osd.types import PARTITION_BASE

__all__ = [
    "CHAOS_POLICY",
    "ChaosCampaignError",
    "run_chaos_campaign",
]

CHAOS_LEDGER_NAME = "chaos_campaign_ledger.json"
#: The campaign's geometry: a victim, a flapping and a partitioned shard plus
#: one clean one. ``MAX_DEGRADED_READS`` bounds the wait for the detector.
SHARDS, OBJECTS, PAYLOAD_BYTES = 4, 48, 2048
TRANSIENT_READS, MAX_DEGRADED_READS = 120, 2000

#: The campaign's detector tuning. The transient phase *calibrates* these
#: numbers: an 8-op partition burst peaks the error EWMA near
#: ``1 - (1 - alpha)^8 ~= 0.64``, safely under ``fail_error_rate``, and
#: ends long before ``confirm_ops`` of sustained suspicion — so bursts and
#: flaps park a shard in SUSPECT at worst. A fail-slow link at ~80x the
#: loopback baseline crosses ``fail_slowdown`` within a handful of
#: observations once its ramp completes.
CHAOS_POLICY = HealthPolicy(
    alpha=0.12,
    min_ops=6,
    suspect_error_rate=0.30,
    fail_error_rate=0.80,
    suspect_slowdown=5.0,
    fail_slowdown=25.0,
    confirm_ops=20,
    baseline_floor=0.0005,
)


#: Tries per workload read. Reads are idempotent, so a few spaced attempts
#: ride out the worst transient overlap; each attempt is a separate clean
#: observation for the health monitor, and only exhausting them is a miss.
READ_ATTEMPTS = 3


class ChaosCampaignError(RuntimeError):
    """The cluster failed to heal itself (wrong condemn, no condemn)."""


def _cast(seed: int) -> Dict[str, int]:
    """Seed-deterministic fault assignment: three distinct shards."""
    rng = random.Random(f"chaos-campaign-cast/{seed}")
    victim, flap, partition = rng.sample(range(SHARDS), 3)
    return {"victim": victim, "flap": flap, "partition": partition}


async def _wait_for(predicate, timeout: float, interval: float = 0.01) -> bool:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return False


async def _run_campaign(seed: int) -> Campaign:
    cast = _cast(seed)
    victim = cast["victim"]
    transient_plan = NetFaultPlan(
        events=(
            # One short blackhole burst: total loss, but over before the
            # error EWMA can reach the hard threshold or the confirm
            # window can elapse — SUSPECT at worst.
            NetPartition(
                shards=(cast["partition"],), from_op=12, until_op=20
            ),
            # A flapping link: one dropped command in ten. Staggered to
            # start after the burst usually ends — the three spaced read
            # attempts below cover the overlap that op-clock skew can
            # still produce (together the two can briefly exceed a
            # stripe's parity tolerance).
            LinkFlap(
                shard=cast["flap"],
                period_ops=10,
                down_ops=1,
                from_op=40,
                until_op=240,
            ),
        )
    )
    failslow_plan = NetFaultPlan(
        events=(
            # Persistent fail-slow: ~80x the loopback baseline once the
            # ramp completes, but far below the client timeout — detection
            # must come from the slowdown EWMA, not from timeouts.
            LinkFailSlow(shard=victim, delay=0.04, ramp_ops=24),
        )
    )

    async with ClusterService(SHARDS) as service:
        monitor = ShardHealthMonitor(CHAOS_POLICY)
        # NO_RETRY is load-bearing for detection quality: the router
        # observes whole client submissions, so wire-level retries would
        # smear a dropped command into one huge "success" latency sample
        # and make a flapping link look fail-slow. Without them a drop is
        # a clean error observation, and resilience comes from the
        # router's own failover / reconstruction / sweep paths.
        router = service.router(
            retry=NO_RETRY,
            timeout=0.5,
            health_monitor=monitor,
        )
        assert isinstance(router, RouterClient)
        supervisor = ClusterSupervisor(service, router)
        supervisor.attach_monitor(monitor)
        probe = ShardProbe(router, monitor, interval=0.02)
        chaos: Optional[ShardChaos] = None
        loop = asyncio.get_running_loop()
        population = Population(
            "chaos-campaign",
            seed,
            objects=OBJECTS,
            payload_bytes=PAYLOAD_BYTES,
            classes=(0, 1, 2, 3),
            oid_offset=0x6000,
        )
        try:
            # ---- Populate (all four classes) and learn baselines. ----
            await router.create_partition(PARTITION_BASE)
            await population.populate(router)
            await probe.start()
            await supervisor.start_autonomous()
            await population.verify(router, "warm-up", READ_ATTEMPTS)

            # ---- Transient phase: partition burst + flapping link. ----
            chaos = ShardChaos(transient_plan).install(service)
            rng = random.Random(f"chaos-campaign-ops/{seed}")
            transient_failures = 0
            for _ in range(TRANSIENT_READS):
                index = rng.randrange(OBJECTS)
                if not await population.read(
                    router, index, "transient phase", READ_ATTEMPTS
                ):
                    transient_failures += 1
            chaos.uninstall()
            if supervisor.auto_events:
                condemned = supervisor.auto_events[0][0].shard_id
                raise ChaosCampaignError(
                    f"transient faults condemned shard {condemned}: bursts "
                    "and flaps must park a shard in SUSPECT, not remove it"
                )
            # Both transient victims must earn their way back to ONLINE
            # before the persistent fault lands (probe traffic rehabilitates
            # them once the plan windows expire).
            recovered = await _wait_for(
                lambda: monitor.state_of(cast["flap"]) == "online"
                and monitor.state_of(cast["partition"]) == "online",
                timeout=20.0,
            )
            if not recovered:
                raise ChaosCampaignError(
                    "flap/partition shards never recovered to ONLINE: "
                    f"{monitor.shards}"
                )

            # ---- Fail-slow phase: the cluster is on its own. ----
            chaos = ShardChaos(failslow_plan).install(service)
            injected_at = loop.time()
            hedges_at_injection = router.router_stats.hedged_reads
            degraded_window_reads = 0
            while (
                not supervisor.auto_events
                and degraded_window_reads < MAX_DEGRADED_READS
            ):
                index = rng.randrange(OBJECTS)
                await population.read(router, index, "fail-slow phase", READ_ATTEMPTS)
                degraded_window_reads += 1
            healed = await _wait_for(
                lambda: bool(supervisor.auto_events), timeout=30.0
            )
            window_s = loop.time() - injected_at
            window_hedged_reads = router.router_stats.hedged_reads - hedges_at_injection
            chaos.uninstall()
            if not healed:
                raise ChaosCampaignError(
                    "autonomous condemn never fired for the fail-slow shard: "
                    f"{monitor.shards}"
                )
            transition, report = supervisor.auto_events[0]
            if transition.shard_id != victim or len(supervisor.auto_events) != 1:
                raise ChaosCampaignError(
                    f"expected exactly one condemn of shard {victim}, got "
                    f"{[(t.shard_id, t.reason) for t, _ in supervisor.auto_events]}"
                )
            failed_at = next(
                t.at
                for t in monitor.transitions
                if t.shard_id == victim and t.new == "failed"
            )

            # ---- Verify: every object, byte-exact, on the healed map. ----
            await probe.aclose()
            await supervisor.stop_autonomous()
            for index in await population.verify(router, "verify", READ_ATTEMPTS):
                supervisor.ledger.record_lost(population.classes[index])

            stats = router.router_stats
            rehome = report.to_dict()
            detection_latency_s = max(0.0, failed_at - injected_at)
            campaign = Campaign(
                title=f"Chaos campaign [seed {seed}]: partition + flap + fail-slow "
                f"over {SHARDS} shards -> autonomous condemn",
                artefact=CHAOS_LEDGER_NAME,
                record={
                    "seed": seed,
                    "shards": SHARDS,
                    "victim_shard": victim,
                    "flap_shard": cast["flap"],
                    "partition_shard": cast["partition"],
                    "rehome": rehome,
                    "ledger": supervisor.ledger.to_dict(),
                },
                rows={
                    "objects populated": f"{OBJECTS}",
                    "fail-slow victim (auto-condemned)": f"{victim}",
                    "flapping shard (recovered)": f"{cast['flap']}",
                    "partitioned shard (recovered)": f"{cast['partition']}",
                    "detection latency (s)": f"{detection_latency_s:.3f}",
                    "degraded-window reads/s": (
                        f"{degraded_window_reads / window_s if window_s > 0 else 0.0:.0f}"
                    ),
                    "transient-phase reads": f"{TRANSIENT_READS}",
                    "transient-phase failures": f"{transient_failures}",
                    "hedged reads": f"{stats.hedged_reads}",
                    "hedge wins": f"{stats.hedge_wins}",
                    # Hedged reads per routed read of the degraded window.
                    "hedge rate (degraded window)": (
                        f"{window_hedged_reads / max(1, degraded_window_reads):.3f}"
                    ),
                    "breaker fast-fails": f"{stats.breaker_fastfails}",
                    "mirror failovers": f"{stats.mirror_failovers}",
                    "degraded striped reads": f"{stats.degraded_reads}",
                    "autonomous condemns": f"{len(supervisor.auto_events)}",
                    "objects re-homed": f"{rehome['objects_moved']}",
                    "fragments moved": f"{rehome['fragments_moved']}",
                },
                counts={
                    "auto_condemns": len(supervisor.auto_events),
                    "detection_latency_s": detection_latency_s,
                    "degraded_window_reads": degraded_window_reads,
                    "window_hedged_reads": window_hedged_reads,
                    "hedged_reads": stats.hedged_reads,
                },
            )
            campaign.rows["protected losses (classes 0-2)"] = f"{campaign.protected_losses}"
            return campaign
        finally:
            if chaos is not None:
                chaos.uninstall()
            await probe.aclose()
            await supervisor.stop_autonomous()
            await router.aclose()
            # Let dropped-connection handlers and hedge losers observe
            # their closed sockets before the loop goes away.
            await asyncio.sleep(0.02)


def run_chaos_campaign(seed: int = 1234) -> Campaign:
    """Run the chaos campaign; raises unless the cluster heals itself.

    Its ``record`` is the byte-identical-per-seed ledger artefact (logical
    state only); ``counts`` holds the wall-clock and router readings the
    behaviour gate checks.
    """
    return asyncio.run(_run_campaign(seed))
