"""``python -m repro.cluster`` — serve or smoke-test a multi-shard cluster.

Default mode boots ``--shards`` shard servers in-process and serves until
interrupted, printing each shard's endpoint and the epoch-1 map.

``--smoke`` runs the CI smoke cycle instead and exits non-zero on any
failure: write a seeded object population through the router (all three
redundancy classes), verify every object byte-exact, condemn one shard and
re-home it, then verify byte-exact again on the shrunken cluster. It
gates only on behaviour, never on timing: shared CI runners make latency
assertions flaky, so those live in the bench suite.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional

from repro.cluster.service import ClusterService
from repro.cluster.supervisor import ClusterSupervisor
from repro.osd.types import PARTITION_BASE


async def _smoke(shards: int, host: str, seed: int) -> int:
    from repro.experiments.campaign import Population

    population = Population(
        "cluster-smoke",
        seed,
        objects=48,
        payload_bytes=2048,
        classes=(1, 2, 3),
        oid_offset=0x1000,
    )
    async with ClusterService(shards, host) as service:
        router = service.router()
        supervisor = ClusterSupervisor(service, router)
        try:
            router.known_partitions.add(PARTITION_BASE)
            await population.populate(router)
            # A drain loses nothing, so a class-3 miss fails the smoke as
            # surely as the protected-class loss `verify` raises on.
            bad = await population.verify(router, "before re-home")
            if bad:
                print(f"smoke: {len(bad)} mismatches before re-home")
                return 1
            print(f"smoke: {len(population)} objects byte-exact on {shards} shards")

            victim = max(service.shards)
            report = await supervisor.condemn(victim, "smoke condemn")
            if report.objects_lost:
                print(f"smoke: re-home lost {report.objects_lost} objects")
                return 1
            bad = await population.verify(router, "after re-home")
            if bad:
                print(f"smoke: {len(bad)} mismatches after re-home")
                return 1
            print(
                f"smoke: condemned shard {victim} "
                f"(epoch {report.epoch_before} -> {report.epoch_after}, "
                f"moved {report.objects_moved} objects + "
                f"{report.fragments_moved + report.fragments_reconstructed} "
                f"fragments, 0 lost); all objects byte-exact on "
                f"{shards - 1} shards"
            )
            return 0
        except RuntimeError as exc:  # a failed populate, or CampaignLossError
            print(f"smoke: {exc}")
            return 1
        finally:
            await router.aclose()


async def _serve(shards: int, host: str) -> None:
    async with ClusterService(shards, host) as service:
        print(f"cluster map epoch {service.cluster_map.epoch}:")  # type: ignore[union-attr]
        for shard_id, endpoint in zip(sorted(service.shards), service.endpoints()):
            print(f"  shard {shard_id}: {endpoint}")
        print("serving (Ctrl-C to stop)")
        try:
            await asyncio.Event().wait()
        except asyncio.CancelledError:
            pass


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Serve (or smoke-test) an in-process multi-shard OSD cluster.",
    )
    parser.add_argument("--shards", type=int, default=3)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the write/verify/condemn/re-home/verify cycle and exit",
    )
    args = parser.parse_args(argv)
    if args.shards < 1 or (args.smoke and args.shards < 2):
        parser.error("--shards must be >= 1 (>= 2 for --smoke)")
    if args.smoke:
        return asyncio.run(_smoke(args.shards, args.host, args.seed))
    try:
        asyncio.run(_serve(args.shards, args.host))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
