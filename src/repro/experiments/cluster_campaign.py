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
import pathlib
import random
from dataclasses import dataclass
from typing import Dict, Optional

from repro.cluster.router import RouterClient
from repro.cluster.service import ClusterService
from repro.cluster.supervisor import ClusterSupervisor
from repro.experiments.campaign import Population, protected_losses, write_artefact
from repro.net.retry import RetryPolicy
from repro.osd.types import PARTITION_BASE
from repro.sim.report import format_table

__all__ = ["ClusterCampaignResult", "run_cluster_campaign"]

CLUSTER_LEDGER_NAME = "cluster_campaign_ledger.json"
#: The campaign's geometry: what the committed ledger was recorded with.
SHARDS, OBJECTS, PAYLOAD_BYTES, OPS = 3, 48, 2048, 120


@dataclass
class ClusterCampaignResult:
    """Everything one shard-loss campaign produced."""

    seed: int
    shards: int
    objects: int
    victim_shard: int
    degraded_reads: int
    mirror_failovers: int
    redirects: int
    map_refreshes: int
    rehome: Dict[str, object]
    ledger: Dict[str, object]
    class3_losses: int

    @property
    def protected_losses(self) -> int:
        lost = self.ledger.get("lost_by_class", {})
        return sum(protected_losses(lost).values())  # type: ignore[arg-type]

    def format(self) -> str:
        rows = [
            ["objects populated", f"{self.objects}"],
            ["victim shard (hard-killed)", f"{self.victim_shard}"],
            ["degraded striped reads (reconstructed)", f"{self.degraded_reads}"],
            ["mirror failovers", f"{self.mirror_failovers}"],
            ["router redirects (WRONG_SHARD)", f"{self.redirects}"],
            ["map refreshes", f"{self.map_refreshes}"],
            ["objects re-homed", f"{self.rehome['objects_moved']}"],
            ["fragments moved", f"{self.rehome['fragments_moved']}"],
            [
                "fragments reconstructed",
                f"{self.rehome['fragments_reconstructed']}",
            ],
            ["bytes moved", f"{self.rehome['bytes_moved']}"],
            ["protected losses (classes 0-2)", f"{self.protected_losses}"],
            ["class-3 losses (cache misses)", f"{self.class3_losses}"],
        ]
        return format_table(
            f"Cluster shard-loss campaign [seed {self.seed}]: hard-kill 1 of "
            f"{self.shards} shards -> degraded reads -> condemn + re-home",
            ["Measure", "Value"],
            rows,
        )

    def write_json(self, directory: Optional[pathlib.Path] = None) -> pathlib.Path:
        """The determinism artefact: byte-identical per seed."""
        payload = {
            "seed": self.seed,
            "shards": self.shards,
            "victim_shard": self.victim_shard,
            "rehome": self.rehome,
            "ledger": self.ledger,
        }
        return write_artefact(CLUSTER_LEDGER_NAME, payload, directory)


async def _run_campaign(seed: int) -> ClusterCampaignResult:
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
                supervisor.ledger.record_lost(
                    population.ids[index], population.classes[index]
                )

            return ClusterCampaignResult(
                seed=seed,
                shards=SHARDS,
                objects=OBJECTS,
                victim_shard=victim,
                degraded_reads=router.router_stats.degraded_reads,
                mirror_failovers=router.router_stats.mirror_failovers,
                redirects=router.router_stats.redirects,
                map_refreshes=router.router_stats.map_refreshes,
                rehome=report.to_dict(),
                ledger=supervisor.ledger.to_dict(),
                class3_losses=len(class3_lost),
            )
        finally:
            await router.aclose()


def run_cluster_campaign(seed: int = 1234) -> ClusterCampaignResult:
    """Run the shard-loss campaign; raises on any protected-class loss."""
    return asyncio.run(_run_campaign(seed))
