"""The cluster experiment: the shard-loss campaign.

:func:`run_cluster_campaign` adds the shard-loss axis to the fault
campaign: populate a 3-shard cluster with all three redundancy classes
through the router, run a seeded op mix, *hard-kill* one shard with the
cluster map still stale — the degraded window, where class-2 reads must
reconstruct cross-shard through the erasure codec and class-1 reads must
fail over to their mirrors — then condemn the shard through the
:class:`ClusterSupervisor` and verify the whole population byte-exact on
the shrunken cluster. Losing any protected-class object (0-2) raises
:class:`ClusterCampaignLossError`; class-3 sole copies that died with
the shard are booked in the ledger as losses (they are cache misses, not
durability failures). The ledger runs on the supervisor's logical step
clock, so identical seeds produce byte-identical ledgers.

Routed throughput and latency are not measured here: that is the
``cluster_routed`` workload of ``perf/run.py``.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import random
from dataclasses import dataclass
from typing import Dict, Optional

from repro.cluster.router import RouterClient
from repro.cluster.service import ClusterService
from repro.cluster.supervisor import ClusterSupervisor
from repro.net.client import OsdServiceError
from repro.net.retry import RetryPolicy
from repro.sim.report import format_table
from repro.osd.types import FIRST_USER_OID, PARTITION_BASE, ObjectId

__all__ = [
    "ClusterCampaignLossError",
    "ClusterCampaignResult",
    "run_cluster_campaign",
]

BENCH_RESULTS_DIR = (
    pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "results"
)
CLUSTER_LEDGER_NAME = "cluster_campaign_ledger.json"

#: Classes whose loss fails the campaign (mirrored dirty + striped hot clean).
PROTECTED_CLASSES = (0, 1, 2)


class ClusterCampaignLossError(RuntimeError):
    """A protected class (0-2) lost data across a shard loss."""


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
        return sum(
            count
            for class_id, count in dict(lost).items()  # type: ignore[union-attr]
            if int(class_id) in PROTECTED_CLASSES
        )

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

    def write_ledger_json(self, directory: Optional[pathlib.Path] = None) -> pathlib.Path:
        """The determinism artefact: byte-identical per seed."""
        directory = directory or BENCH_RESULTS_DIR
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / CLUSTER_LEDGER_NAME
        payload = {
            "seed": self.seed,
            "shards": self.shards,
            "victim_shard": self.victim_shard,
            "rehome": self.rehome,
            "ledger": self.ledger,
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path


def _campaign_payload(seed: int, index: int, version: int, size: int) -> bytes:
    """Deterministic payload oracle, a pure function of the identity tuple."""
    return random.Random(f"cluster-campaign/{seed}/{index}/{version}").randbytes(size)


async def _run_campaign(
    seed: int,
    shards: int,
    objects: int,
    payload_bytes: int,
    ops: int,
) -> ClusterCampaignResult:
    async with ClusterService(shards) as service:
        router = service.router(retry=RetryPolicy(seed=seed))
        assert isinstance(router, RouterClient)
        supervisor = ClusterSupervisor(service, router)
        try:
            ids = [
                ObjectId(PARTITION_BASE, FIRST_USER_OID + 0x4000 + index)
                for index in range(objects)
            ]
            classes = [(1, 2, 3)[index % 3] for index in range(objects)]
            versions = [0] * objects
            router.known_partitions.add(PARTITION_BASE)
            for index, object_id in enumerate(ids):
                response = await router.write(
                    object_id,
                    _campaign_payload(seed, index, 0, payload_bytes),
                    classes[index],
                )
                if not response.ok:
                    raise RuntimeError(f"populate failed at {object_id}")

            # Seeded foreground ops: reads verify, writes bump the version.
            rng = random.Random(f"cluster-campaign-ops/{seed}")
            for _ in range(ops):
                index = rng.randrange(objects)
                if rng.random() < 0.3:
                    versions[index] += 1
                    await router.write(
                        ids[index],
                        _campaign_payload(
                            seed, index, versions[index], payload_bytes
                        ),
                        classes[index],
                    )
                else:
                    payload, response = await router.read(ids[index])
                    expected = _campaign_payload(
                        seed, index, versions[index], payload_bytes
                    )
                    if not response.ok or payload != expected:
                        raise RuntimeError(f"pre-kill corruption at {ids[index]}")

            # Hard-kill the highest shard id: the map stays stale, so the
            # degraded window below exercises the router's failure paths,
            # not a tidy map update.
            victim = max(service.shards)
            await service.stop_shard(victim)
            degraded_misses = 0
            for index, object_id in enumerate(ids):
                expected = _campaign_payload(
                    seed, index, versions[index], payload_bytes
                )
                try:
                    payload, response = await router.read(object_id)
                except (OsdServiceError, ConnectionError, OSError):
                    payload, response = None, None
                ok = response is not None and response.ok and payload == expected
                if classes[index] in PROTECTED_CLASSES and not ok:
                    raise ClusterCampaignLossError(
                        f"class-{classes[index]} object {object_id} unreadable "
                        "in the degraded window"
                    )
                if not ok:
                    degraded_misses += 1

            report = await supervisor.condemn(
                victim, "campaign hard-kill", evacuate=False
            )

            # Full read-back on the shrunken cluster: protected classes must
            # be byte-exact; class-3 sole copies that died are booked lost.
            class3_losses = 0
            for index, object_id in enumerate(ids):
                expected = _campaign_payload(
                    seed, index, versions[index], payload_bytes
                )
                try:
                    payload, response = await router.read(object_id)
                except (OsdServiceError, ConnectionError, OSError):
                    payload, response = None, None
                ok = response is not None and response.ok and payload == expected
                if ok:
                    continue
                if classes[index] in PROTECTED_CLASSES:
                    raise ClusterCampaignLossError(
                        f"class-{classes[index]} object {object_id} lost "
                        "across the shard loss"
                    )
                class3_losses += 1
                supervisor.ledger.record_lost(object_id, classes[index])

            return ClusterCampaignResult(
                seed=seed,
                shards=shards,
                objects=objects,
                victim_shard=victim,
                degraded_reads=router.router_stats.degraded_reads,
                mirror_failovers=router.router_stats.mirror_failovers,
                redirects=router.router_stats.redirects,
                map_refreshes=router.router_stats.map_refreshes,
                rehome=report.to_dict(),
                ledger=supervisor.ledger.to_dict(),
                class3_losses=class3_losses,
            )
        finally:
            await router.aclose()


def run_cluster_campaign(
    seed: int = 1234,
    *,
    shards: int = 3,
    objects: int = 48,
    payload_bytes: int = 2048,
    ops: int = 120,
) -> ClusterCampaignResult:
    """Run the shard-loss campaign; raises on any protected-class loss."""
    if shards < 2:
        raise ValueError("the campaign needs at least 2 shards")
    return asyncio.run(_run_campaign(seed, shards, objects, payload_bytes, ops))
