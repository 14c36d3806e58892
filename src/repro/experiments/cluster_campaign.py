"""The cluster experiment: the shard-loss campaign.

:func:`run_cluster_campaign` adds the shard-loss axis to the fault
campaign: populate a 3-shard cluster with all three redundancy classes
through the router, run a seeded op mix, *hard-kill* one shard with the
cluster map still stale — the degraded window, where class-2 reads must
reconstruct cross-shard through the erasure codec and class-1 reads must
fail over to their mirrors — then condemn the shard through the
:class:`ClusterSupervisor` and verify the whole population byte-exact on
the shrunken cluster. Losing any protected-class object (0-2) raises
:class:`~repro.experiments.campaign.CampaignLossError`; class-3 sole
copies that died with the shard are booked in the ledger as losses (they
are cache misses, not durability failures). The ledger runs on the
supervisor's logical step clock, so identical seeds produce byte-identical
ledgers.

Routed throughput and latency are not measured here: that is the
``cluster_routed`` workload of ``perf/run.py``.
"""

from __future__ import annotations

import asyncio
import random

from repro.cluster.router import RouterClient
from repro.cluster.service import ClusterService
from repro.cluster.supervisor import ClusterSupervisor
from repro.experiments.campaign import Campaign, Population
from repro.net.retry import RetryPolicy
from repro.osd.types import PARTITION_BASE

__all__ = ["run_cluster_campaign"]

CLUSTER_LEDGER_NAME = "cluster_campaign_ledger.json"
#: The campaign's geometry: what the committed ledger was recorded with.
SHARDS, OBJECTS, PAYLOAD_BYTES, OPS = 3, 48, 2048, 120


async def _run_campaign(seed: int) -> Campaign:
    async with ClusterService(SHARDS) as service:
        router = service.router(retry=RetryPolicy(seed=seed))
        assert isinstance(router, RouterClient)
        supervisor = ClusterSupervisor(service, router)
        population = Population(
            "cluster-campaign",
            seed,
            objects=OBJECTS,
            payload_bytes=PAYLOAD_BYTES,
            classes=(1, 2, 3),
            oid_offset=0x4000,
        )
        try:
            router.known_partitions.add(PARTITION_BASE)
            await population.populate(router)

            # Seeded foreground ops: reads verify, writes bump the version.
            rng = random.Random(f"cluster-campaign-ops/{seed}")
            for _ in range(OPS):
                index = rng.randrange(OBJECTS)
                if rng.random() < 0.3:
                    population.versions[index] += 1
                    await population.write(router, index)
                elif not await population.read(router, index, "pre-kill"):
                    raise RuntimeError(
                        f"pre-kill corruption at {population.ids[index]}"
                    )

            # Hard-kill the highest shard id: the map stays stale, so the
            # degraded window below exercises the router's failure paths,
            # not a tidy map update. Protected classes must stay readable
            # (mirror failover, erasure reconstruction); `verify` raises
            # otherwise.
            victim = max(service.shards)
            await service.stop_shard(victim)
            await population.verify(router, "degraded window")

            report = await supervisor.condemn(
                victim, "campaign hard-kill", evacuate=False
            )

            # Full read-back on the shrunken cluster: protected classes must
            # be byte-exact; class-3 sole copies that died are booked lost.
            class3_lost = await population.verify(router, "after the shard loss")
            for index in class3_lost:
                supervisor.ledger.record_lost(population.classes[index])

            stats = router.router_stats
            rehome = report.to_dict()
            campaign = Campaign(
                title=f"Cluster shard-loss campaign [seed {seed}]: hard-kill 1 of "
                f"{SHARDS} shards -> degraded reads -> condemn + re-home",
                artefact=CLUSTER_LEDGER_NAME,
                record={
                    "seed": seed,
                    "shards": SHARDS,
                    "victim_shard": victim,
                    "rehome": rehome,
                    "ledger": supervisor.ledger.to_dict(),
                },
                rows={
                    "objects populated": f"{OBJECTS}",
                    "victim shard (hard-killed)": f"{victim}",
                    "degraded striped reads (reconstructed)": f"{stats.degraded_reads}",
                    "mirror failovers": f"{stats.mirror_failovers}",
                    "router redirects (WRONG_SHARD)": f"{stats.redirects}",
                    "map refreshes": f"{stats.map_refreshes}",
                    "objects re-homed": f"{rehome['objects_moved']}",
                    "fragments moved": f"{rehome['fragments_moved']}",
                    "fragments reconstructed": f"{rehome['fragments_reconstructed']}",
                    "bytes moved": f"{rehome['bytes_moved']}",
                },
                counts={
                    "degraded_reads": stats.degraded_reads,
                    "mirror_failovers": stats.mirror_failovers,
                },
            )
            campaign.rows["protected losses (classes 0-2)"] = f"{campaign.protected_losses}"
            campaign.rows["class-3 losses (cache misses)"] = f"{len(class3_lost)}"
            return campaign
        finally:
            await router.aclose()


def run_cluster_campaign(seed: int = 1234) -> Campaign:
    """Run the shard-loss campaign; raises on any protected-class loss.

    Its ``record`` is the byte-identical-per-seed ledger artefact;
    ``counts`` holds the router's degraded reads and mirror failovers.
    """
    return asyncio.run(_run_campaign(seed))
