#!/usr/bin/env python3
"""The networked service layer: OSD commands over real TCP sockets.

Connects an :class:`~repro.net.client.AsyncOsdClient` to an OSD server and walks
the service end to end:

1. write, read back (byte-exact), partially update, and remove an object;
2. issue overlapping reads that pipeline on the pooled connections;
3. fetch the server's ServiceStats snapshot (connections, in-flight depth,
   p50/p99 service latency) through the reserved stats object.

Run against a live server (start one first):

    PYTHONPATH=src python -m repro.net --port 4010
    PYTHONPATH=src python examples/net_service.py --port 4010

Or let the example host its own in-process server:

    PYTHONPATH=src python examples/net_service.py

Cluster mode boots a 3-shard in-process cluster instead, writes all three
redundancy classes through the routing client, hard-kills one shard
mid-demo to show degraded reads (mirror failover + erasure reconstruction)
and then condemns it, re-homing everything it held:

    PYTHONPATH=src python examples/net_service.py --cluster
"""

import argparse
import asyncio

from repro.flash.array import FlashArray
from repro.flash.latency import ZERO_COST
from repro.flash.stripe import ParityScheme
from repro.net.client import AsyncOsdClient, OsdServiceError
from repro.net.retry import RetryPolicy
from repro.net.server import OsdServer
from repro.osd.target import OsdTarget
from repro.osd.types import PARTITION_BASE, ObjectId
from repro.units import MiB


async def demo(host: str, port: int) -> None:
    oid = ObjectId(PARTITION_BASE, 0x10005)
    retry = RetryPolicy(max_attempts=4, seed=11)
    async with AsyncOsdClient(host, port, pool_size=4, timeout=2.0, retry=retry) as client:
        # 1. The data path, end to end over TCP.
        print("== Data path ==")
        await client.write(oid, b"an object shipped over TCP", class_id=2)
        payload, response = await client.read(oid)
        print(f"read back : {payload!r} (sense {response.sense.name})")
        update = await client.update(oid, 18, b"a socket")
        assert update.ok
        payload, _ = await client.read(oid)
        print(f"updated   : {payload!r}")

        # 2. Overlapping reads pipeline on the pooled connections: each
        #    carries its own sequence id, so responses can return out of
        #    order and still match up.
        print("== Pipelining ==")
        neighbours = [ObjectId(PARTITION_BASE, 0x10010 + i) for i in range(8)]
        for index, neighbour in enumerate(neighbours):
            await client.write(neighbour, f"neighbour-{index}".encode(), class_id=3)
        payloads = await asyncio.gather(*(client.read(n) for n in neighbours))
        assert all(p == f"neighbour-{i}".encode() for i, (p, _) in enumerate(payloads))
        print("8 concurrent reads completed, all byte-exact")

        # 3. Server-side observability through the reserved stats object.
        print("== Service stats ==")
        stats = await client.service_stats()
        latency = stats["latency"]
        print(
            f"commands={stats['commands']} connections={stats['connections_active']}"
            f"/{stats['connections_total']} max_in_flight={stats['max_in_flight']}"
        )
        print(
            f"service latency: p50={latency['p50_ms']:.3f} ms "
            f"p99={latency['p99_ms']:.3f} ms over {latency['count']} commands"
        )
        await client.remove(oid)


async def cluster_demo() -> None:
    """Router failover live: kill a shard mid-demo, then condemn it."""
    from repro.cluster.router import RouterClient
    from repro.cluster.service import ClusterService
    from repro.cluster.supervisor import ClusterSupervisor

    ids = [ObjectId(PARTITION_BASE, 0x20000 + index) for index in range(9)]
    bodies = [f"cluster object {index}".encode() * 4 for index in range(9)]
    classes = [(1, 2, 3)[index % 3] for index in range(9)]
    async with ClusterService(3) as service:
        print(f"== Cluster == 3 shards at {', '.join(service.endpoints())}")
        router = service.router(retry=RetryPolicy(max_attempts=4, seed=11))
        assert isinstance(router, RouterClient)
        async with router:
            router.known_partitions.add(PARTITION_BASE)
            for object_id, body, class_id in zip(ids, bodies, classes):
                response = await router.write(object_id, body, class_id)
                assert response.ok
            print(
                "wrote 9 objects: class 1 mirrored x2, class 2 RS-striped 4+2 "
                "across shards, class 3 plain"
            )

            # Hard-kill one shard; the map stays stale, so every read below
            # exercises a degraded path instead of a tidy reroute.
            victim = max(service.shards)
            await service.stop_shard(victim)
            print(f"== Failover == hard-killed shard {victim} (map left stale)")
            survived = 0
            for object_id, body, class_id in zip(ids, bodies, classes):
                try:
                    payload, response = await router.read(object_id)
                except OsdServiceError:
                    payload, response = None, None
                if response is not None and response.ok and payload == body:
                    survived += 1
                else:
                    print(f"  class-{class_id} {object_id} unreadable (sole copy died)")
            stats = router.router_stats
            print(
                f"{survived}/9 byte-exact in the degraded window "
                f"(mirror failovers={stats.mirror_failovers}, "
                f"reconstructed striped reads={stats.degraded_reads})"
            )

            # Condemn the dead shard: epoch bump + re-home of what it held.
            supervisor = ClusterSupervisor(service, router)
            report = await supervisor.condemn(victim, "demo crash", evacuate=False)
            print(
                f"== Re-home == epoch {report.epoch_before} -> {report.epoch_after}: "
                f"moved {report.objects_moved} objects, rebuilt "
                f"{report.fragments_reconstructed} fragments, "
                f"lost {report.objects_lost} (cache-class only)"
            )
            for object_id, body, class_id in zip(ids, bodies, classes):
                if class_id == 3:
                    continue
                payload, response = await router.read(object_id)
                assert response.ok and payload == body
            print("all protected-class objects byte-exact on the shrunken cluster")


async def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="connect to a running server; omit to host one in-process",
    )
    parser.add_argument(
        "--cluster",
        action="store_true",
        help="demo the 3-shard cluster with router failover instead",
    )
    args = parser.parse_args()

    if args.cluster:
        await cluster_demo()
        return
    if args.port is not None:
        await demo(args.host, args.port)
        return

    array = FlashArray(
        num_devices=5, device_capacity=256 * MiB, chunk_size=4096, model=ZERO_COST
    )
    target = OsdTarget(array, policy=lambda _cid: ParityScheme(1))
    target.create_partition(PARTITION_BASE)
    async with OsdServer(target, host=args.host) as server:
        print(f"(hosting an in-process server on {args.host}:{server.port})")
        await demo(args.host, server.port)


if __name__ == "__main__":
    asyncio.run(main())
