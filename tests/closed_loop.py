"""Closed-loop verified load over already-built clients (test-only).

Each client owns a private object range and keeps exactly one request
outstanding. A payload is a pure function of ``(client, object, version)``,
so a lost, stale or corrupted response is counted byte-for-byte, not just
by error code. Throughput is not measured here: that is ``perf/run.py``.
"""

import asyncio
import random
from dataclasses import dataclass

from repro.net.client import OsdServiceError
from repro.osd.types import FIRST_USER_OID, PARTITION_BASE, ObjectId

OBJECTS_PER_CLIENT = 16


@dataclass
class LoopResult:
    ops: int = 0
    errors: int = 0
    corrupted: int = 0
    retries: int = 0


async def run_closed_loop(clients, *, requests, payload_bytes, write_fraction, seed, classes):
    """Seed 16 objects per client, run ``requests`` verified ops each, close the clients.

    Object ``i`` of every client is written with class ``classes[i % len(classes)]``.
    """
    result = LoopResult()

    async def drive(client_id, client):
        def payload(index, version):
            return random.Random(f"{client_id}/{index}/{version}").randbytes(payload_bytes)

        base = FIRST_USER_OID + 0x100 * (client_id + 1)
        oids = [ObjectId(PARTITION_BASE, base + index) for index in range(OBJECTS_PER_CLIENT)]
        class_of = [classes[index % len(classes)] for index in range(OBJECTS_PER_CLIENT)]
        versions = [0] * OBJECTS_PER_CLIENT
        for index, oid in enumerate(oids):
            await client.write(oid, payload(index, 0), class_id=class_of[index])
        rng = random.Random(f"{seed}/{client_id}")
        for _ in range(requests):
            index = rng.randrange(OBJECTS_PER_CLIENT)
            try:
                if rng.random() < write_fraction:
                    versions[index] += 1
                    body = payload(index, versions[index])
                    response = await client.write(oids[index], body, class_id=class_of[index])
                else:
                    body, response = await client.read(oids[index])
                    if response.ok and body != payload(index, versions[index]):
                        result.corrupted += 1
                ok = response.ok
            except OsdServiceError:
                ok = False
            result.ops += 1
            result.errors += not ok
        result.retries += client.stats.retries

    try:
        await asyncio.gather(*(drive(cid, client) for cid, client in enumerate(clients)))
    finally:
        for client in clients:
            await client.aclose()
    return result
