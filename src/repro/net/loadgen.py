"""Closed-loop multi-client load generator for the networked OSD server.

Each simulated client owns a private set of objects and issues a seeded
read/write mix with exactly one request outstanding (closed loop), so
offered concurrency equals the client count — the same model as the
simulator's concurrency sweep, but over real sockets.

Every read is *verified*: payload content is a pure function of
``(client, object index, version)``, so the generator detects lost or
corrupted responses byte-for-byte, not just error codes.
"""

from __future__ import annotations

import asyncio
import functools
import random
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.net.client import AsyncOsdClient, OsdServiceError
from repro.net.retry import RetryPolicy
from repro.osd.types import FIRST_USER_OID, PARTITION_BASE, ObjectId

#: Builds one closed-loop client. Anything with the ``AsyncOsdClient``
#: surface (connect / write / read / aclose / stats) qualifies — the
#: cluster sweep passes :class:`~repro.cluster.router.RouterClient`
#: factories so the same verified workload drives a whole shard set.
ClientFactory = Callable[[int], AsyncOsdClient]

__all__ = ["LoadReport", "payload_for", "run_load", "run_load_sync"]

#: Objects per client; small enough that reads hit recently written data.
OBJECTS_PER_CLIENT = 16
#: OID stride between clients' private object ranges.
CLIENT_OID_STRIDE = 0x100


@functools.lru_cache(maxsize=256)
def payload_for(client: int, obj_index: int, version: int, size: int) -> bytes:
    """Deterministic payload content — the read-verification oracle.

    Cached: re-verifying the current version of a hot object must not bill
    a fresh PRNG seeding against the measured client loop.
    """
    return random.Random(f"{client}/{obj_index}/{version}").randbytes(size)


@dataclass
class LoadReport:
    """Aggregate outcome of one closed-loop run."""

    clients: int
    requests_per_client: int
    payload_bytes: int
    ops: int = 0
    errors: int = 0
    corrupted: int = 0
    payload_bytes_moved: int = 0
    wall_seconds: float = 0.0
    latencies: List[float] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    connection_errors: int = 0

    @property
    def ops_per_sec(self) -> float:
        return self.ops / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def mb_per_sec(self) -> float:
        return self.payload_bytes_moved / self.wall_seconds / 1e6 if self.wall_seconds else 0.0

    def latency_ms(self, fraction: float) -> float:
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[index] * 1e3

    @property
    def mean_latency_ms(self) -> float:
        return sum(self.latencies) / len(self.latencies) * 1e3 if self.latencies else 0.0


async def _client_seed(
    client_id: int,
    client: AsyncOsdClient,
    objects: List[ObjectId],
    sizes: List[int],
) -> None:
    """Warmup: connect and write every object once (outside the timed window)."""
    await client.connect()
    for index, object_id in enumerate(objects):
        await client.write(
            object_id, payload_for(client_id, index, 0, sizes[index]), class_id=3
        )


async def _client_loop(
    client_id: int,
    client: AsyncOsdClient,
    objects: List[ObjectId],
    report: LoadReport,
    *,
    requests: int,
    sizes: List[int],
    size_mix: Optional[Sequence[int]],
    write_fraction: float,
    seed: int,
) -> None:
    rng = random.Random(f"{seed}/{client_id}")
    versions = [0] * OBJECTS_PER_CLIENT
    for _ in range(requests):
        index = rng.randrange(OBJECTS_PER_CLIENT)
        object_id = objects[index]
        is_write = rng.random() < write_fraction
        started = time.perf_counter()
        try:
            if is_write:
                versions[index] += 1
                if size_mix is not None:
                    sizes[index] = size_mix[rng.randrange(len(size_mix))]
                payload = payload_for(
                    client_id, index, versions[index], sizes[index]
                )
                response = await client.write(object_id, payload, class_id=3)
                ok = response.ok
            else:
                payload, response = await client.read(object_id)
                ok = response.ok
                expected = payload_for(
                    client_id, index, versions[index], sizes[index]
                )
                if ok and payload != expected:
                    report.corrupted += 1
        except OsdServiceError:
            ok = False
        elapsed = time.perf_counter() - started
        report.ops += 1
        report.latencies.append(elapsed)
        if ok:
            report.payload_bytes_moved += sizes[index]
        else:
            report.errors += 1
    report.retries += client.stats.retries
    report.timeouts += client.stats.timeouts
    report.connection_errors += client.stats.connection_errors


async def run_load(
    host: str,
    port: int,
    *,
    clients: int = 8,
    requests_per_client: int = 100,
    payload_bytes: int = 4096,
    payload_mix: Optional[Sequence[int]] = None,
    write_fraction: float = 0.35,
    seed: int = 1234,
    timeout: float = 2.0,
    retry: Optional[RetryPolicy] = None,
    client_factory: Optional[ClientFactory] = None,
) -> LoadReport:
    """Drive the server with ``clients`` concurrent closed-loop clients.

    Connection setup and the initial object seeding happen *before* the
    timed window opens, so the reported rates measure steady-state service,
    not connect/warmup cost.

    ``payload_mix`` switches to a multi-size workload: every write draws
    its size from the mix (seeded, per client), and read verification
    checks the last written size per object — the small-object profile
    uses this with tiny (≤256 B) sizes, where header bytes dominate.
    ``payload_bytes`` then only seeds the warmup objects.

    ``client_factory`` (client id → client) substitutes any
    ``AsyncOsdClient``-shaped object — e.g. a cluster ``RouterClient`` —
    for the default single-server client; ``host``/``port`` are then
    ignored.
    """
    report = LoadReport(
        clients=clients,
        requests_per_client=requests_per_client,
        payload_bytes=payload_bytes,
    )
    retry = retry or RetryPolicy(seed=seed)
    if client_factory is None:
        pool = [
            AsyncOsdClient(host, port, pool_size=1, timeout=timeout, retry=retry)
            for _ in range(clients)
        ]
    else:
        pool = [client_factory(client_id) for client_id in range(clients)]
    object_sets = [
        [
            ObjectId(
                PARTITION_BASE,
                FIRST_USER_OID + CLIENT_OID_STRIDE * (client_id + 1) + i,
            )
            for i in range(OBJECTS_PER_CLIENT)
        ]
        for client_id in range(clients)
    ]
    #: Last-written size per (client, object) — the verification oracle's
    #: size component when the mix varies payloads per write.
    size_sets = [[payload_bytes] * OBJECTS_PER_CLIENT for _ in range(clients)]
    try:
        await asyncio.gather(*(
            _client_seed(
                client_id, pool[client_id], object_sets[client_id], size_sets[client_id]
            )
            for client_id in range(clients)
        ))
        started = time.perf_counter()
        await asyncio.gather(*(
            _client_loop(
                client_id,
                pool[client_id],
                object_sets[client_id],
                report,
                requests=requests_per_client,
                sizes=size_sets[client_id],
                size_mix=payload_mix,
                write_fraction=write_fraction,
                seed=seed,
            )
            for client_id in range(clients)
        ))
        report.wall_seconds = time.perf_counter() - started
    finally:
        for client in pool:
            await client.aclose()
    return report


def run_load_sync(host: str, port: int, **kwargs) -> LoadReport:
    """Blocking wrapper around :func:`run_load` for synchronous callers."""
    return asyncio.run(run_load(host, port, **kwargs))
