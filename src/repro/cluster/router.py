"""The cluster routing client: per-object dispatch over N shard servers.

:class:`RouterClient` wraps one :class:`~repro.net.client.AsyncOsdClient`
per shard and routes every addressed command by the epoch-versioned
:class:`~repro.cluster.map.ClusterMap`:

- **Stale-map healing** — a shard that disagrees with the client's routing
  answers ``WRONG_SHARD`` sense data carrying *its* map; the router adopts
  any newer epoch and replays along the new route. ``WRONG_SHARD`` (like
  ``SERVER_BUSY``) means the command did not execute, so the replay is safe
  for every command type. The router can also pull a fresh map from any
  live shard via the :data:`~repro.osd.types.CLUSTER_MAP_OBJECT` endpoint.
- **Class-differentiated redundancy** (the paper's class policy at shard
  granularity, read from :data:`repro.core.policy.CLASS_LAYOUT`): classes 0
  and 1 (metadata, dirty) are **mirrored** on the object's top-2 HRW
  shards; class 2 (hot clean) is **RS-striped** ``k + m`` across distinct
  HRW-ranked shards so any single shard loss is reconstructable; class 3
  (cold clean) is a **plain** single copy — it is a cache, and a lost
  cold-clean object is a refetch, not data loss.
- **Degraded reads** — with a shard down, striped reads fall back to parity
  fragments and reconstruct through :class:`~repro.erasure.rs.RSCodec`;
  mirrored reads fail over to the mirror shard.

Stripe fragments are self-describing: each carries a 16-byte header
(magic, k, m, fragment index, class id, true payload size) so recovery can
rebuild a stripe from whatever fragments survive, with no central manifest.

Degraded-mode hardening (the chaos-PR additions):

- **Per-shard circuit breakers** — consecutive transport failures open a
  shard's breaker and subsequent calls fast-fail locally instead of
  serializing behind timeouts; half-open trials let it recover. Any reply
  (even ``WRONG_SHARD`` or FAIL) closes the breaker.
- **Per-operation deadline budget** — a ``deadline=`` per call bounds a
  whole public operation: all retries, redirects, and redundancy legs share
  one absolute budget.
- **Hedged reads** — when the health monitor sees the primary mirror
  running :data:`HEDGE_SLOWDOWN` times slow, mirrored reads race both legs
  and take the first OK answer; the losing leg drains in the background so
  its latency still feeds the detector.
- **Health feed** — every shard round trip is reported to an attached
  :class:`~repro.cluster.health.ShardHealthMonitor`, making routed traffic
  the passive half of the failure detector.
"""

from __future__ import annotations

import asyncio
import struct
from collections import Counter
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple

from repro.cluster.breaker import BreakerBank, BreakerPolicy, CircuitOpenError
from repro.cluster.map import (
    ClusterMap,
    ClusterMapError,
    STRIPE_PARTITION_OFFSET,
    fragment_object_id,
)
from repro.core.policy import CLASS_LAYOUT, SHARD_STRIPE
from repro.erasure.rs import RSCodec
from repro.errors import OsdError, UnrecoverableDataError
from repro.net.client import AsyncOsdClient, ClientStats, OsdServiceError
from repro.net.retry import RetryPolicy
from repro.net.stats import merge_snapshots
from repro.osd import commands
from repro.osd.control import QueryMessage
from repro.osd.sense import SenseCode
from repro.osd.target import OsdResponse
from repro.osd.types import CLUSTER_MAP_OBJECT, CONTROL_OBJECT, ObjectId

__all__ = [
    "FRAGMENT_HEADER",
    "RouterClient",
    "RouterStats",
    "decode_fragment",
    "encode_fragment",
]

#: Stripe-fragment header: magic, k, m, fragment index, class id, true
#: (unpadded) parent payload size.
FRAGMENT_HEADER = struct.Struct(">4sBBBBQ")
_FRAGMENT_MAGIC = b"RSF1"
#: Primary-shard slowdown EWMA at which mirrored reads hedge.
HEDGE_SLOWDOWN = 3.0


def encode_fragment(
    payload: bytes, *, k: int, m: int, index: int, class_id: int, size: int
) -> bytes:
    """One self-describing stripe fragment: header + fragment payload."""
    return FRAGMENT_HEADER.pack(_FRAGMENT_MAGIC, k, m, index, class_id, size) + payload


def _split_fragment(blob: bytes) -> Tuple[tuple, memoryview]:
    """A checked fragment as ``(FRAGMENT_HEADER fields, payload view)``."""
    if len(blob) < FRAGMENT_HEADER.size:
        raise OsdServiceError("stripe fragment shorter than its header")
    fields = FRAGMENT_HEADER.unpack_from(blob)
    if fields[0] != _FRAGMENT_MAGIC:
        raise OsdServiceError(f"bad stripe fragment magic {fields[0]!r}")
    return fields, memoryview(blob)[FRAGMENT_HEADER.size :]


#: A fetched stripe fragment: its ``(k, m, parent payload size)`` header and
#: its payload view.
_Fetched = Tuple[Tuple[int, int, int], memoryview]


def _agreeing(present: Dict[int, _Fetched], k: int) -> Tuple[int, Dict[int, memoryview]]:
    """The fragments of the stripe version most fetched fragments carry.

    A stripe overwrite that fails part-way (one fragment write hits a dead
    shard) leaves fragments of two versions behind. Only fragments with the
    most common ``(k, m, size)`` header and the payload length that header
    implies may be joined or decoded together. Returns that header's size
    and the agreeing payloads by fragment index.
    """
    if not present:
        return 0, {}
    headers = Counter(fragment_header for fragment_header, _ in present.values())
    header = headers.most_common(1)[0][0]
    size = header[2]
    length = max(1, -(-size // k))
    agreed = {
        index: view
        for index, (fragment_header, view) in present.items()
        if fragment_header == header and len(view) == length
    }
    return size, agreed


def decode_fragment(blob: bytes) -> Tuple[Dict[str, int], bytes]:
    """Split a stripe fragment into its header fields and payload."""
    (_magic, k, m, index, class_id, size), payload = _split_fragment(blob)
    header = {"k": k, "m": m, "index": index, "class_id": class_id, "size": size}
    return header, bytes(payload)


@dataclass
class RouterStats:
    """Routing-layer counters (per-shard wire counters live in the clients)."""

    redirects: int = 0
    map_refreshes: int = 0
    degraded_reads: int = 0
    mirror_failovers: int = 0
    stripes_written: int = 0
    mirrors_written: int = 0
    breaker_fastfails: int = 0
    hedged_reads: int = 0
    hedge_wins: int = 0


class RouterClient:
    """Routes OSD commands across the shards of a :class:`ClusterMap`."""

    def __init__(
        self,
        cluster_map: ClusterMap,
        *,
        timeout: float = 2.0,
        retry: Optional[RetryPolicy] = None,
        max_redirects: int = 4,
        breaker_policy: Optional[BreakerPolicy] = None,
        health_monitor: Optional[object] = None,
    ) -> None:
        self.cluster_map = cluster_map
        self.timeout = timeout
        self.retry = retry or RetryPolicy()
        self.codec = RSCodec(*SHARD_STRIPE)
        self.max_redirects = max_redirects
        #: Duck-typed :class:`~repro.cluster.health.ShardHealthMonitor`:
        #: every shard round trip is reported via ``observe()`` so passive
        #: traffic feeds the failure detector alongside active probes.
        self.health_monitor = health_monitor
        self.breakers = BreakerBank(breaker_policy)
        self.router_stats = RouterStats()
        self._clients: Dict[int, AsyncOsdClient] = {}
        #: Losing hedge legs left to finish in the background — their
        #: latency samples must still reach the health monitor, otherwise
        #: hedging would starve the very detector that triggers it.
        self._hedge_tasks: set = set()
        #: Object id → layout ("plain" | "mirror" | "stripe") for the read
        #: path. Unknown objects are read as plain: rank 0, healing redirects.
        self._layouts: Dict[ObjectId, str] = {}
        #: Partitions created through this router (plus their stripe
        #: shadows) — the census surface for the rebalance supervisor.
        self.known_partitions: set = set()
        self._stripe_partitions: set = set()

    # ------------------------------------------------------------------
    # Map + connection management
    # ------------------------------------------------------------------
    def install_map(self, cluster_map: ClusterMap) -> bool:
        """Adopt ``cluster_map`` if its epoch is newer; True when adopted."""
        if cluster_map.epoch <= self.cluster_map.epoch:
            return False
        self.cluster_map = cluster_map
        self.router_stats.map_refreshes += 1
        return True

    def client(self, shard_id: int) -> AsyncOsdClient:
        """The client for one shard (created on first use), one socket each."""
        existing = self._clients.get(shard_id)
        if existing is not None:
            return existing
        shard = self.cluster_map.require(shard_id)
        created = AsyncOsdClient(
            shard.host,
            shard.port,
            pool_size=1,
            timeout=self.timeout,
            retry=self.retry,
        )
        self._clients[shard_id] = created
        return created

    async def connect(self) -> None:
        """Eagerly open a connection to every readable shard."""
        for shard_id in self.cluster_map.readable_ids:
            await self.client(shard_id).connect()

    async def aclose(self) -> None:
        for task in list(self._hedge_tasks):
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, OsdServiceError, ConnectionError, OSError):
                pass
        self._hedge_tasks.clear()
        for shard_id in sorted(self._clients):
            await self._clients[shard_id].aclose()
        self._clients.clear()

    async def __aenter__(self) -> "RouterClient":
        return self

    async def __aexit__(self, *_exc: object) -> None:
        await self.aclose()

    @property
    def stats(self) -> ClientStats:
        """Aggregate wire-level counters across all shard clients."""
        total = ClientStats()
        for client in self._clients.values():
            for counter in fields(ClientStats):
                name = counter.name
                setattr(total, name, getattr(total, name) + getattr(client.stats, name))
        return total

    async def refresh_map(self) -> bool:
        """Pull the freshest map any live shard will serve; True on progress."""
        best: Optional[ClusterMap] = None
        for shard_id in self.cluster_map.readable_ids:
            try:
                fetched = await self._fetch_map(shard_id)
            except (OsdServiceError, ConnectionError, OSError):
                continue
            if fetched is not None and (best is None or fetched.epoch > best.epoch):
                best = fetched
        return best is not None and self.install_map(best)

    async def _fetch_map(self, shard_id: int) -> Optional[ClusterMap]:
        message = QueryMessage(CLUSTER_MAP_OBJECT, "R")
        response = await self.client(shard_id).submit(
            commands.Write(CONTROL_OBJECT, message.encode())
        )
        if not response.ok or not response.payload or response.payload == b"{}":
            return None
        try:
            return ClusterMap.from_json(response.payload)
        except ClusterMapError:
            return None

    def _adopt_reply_map(self, payload: Optional[bytes]) -> bool:
        if not payload or payload == b"{}":
            return False
        try:
            return self.install_map(ClusterMap.from_json(payload))
        except ClusterMapError:
            return False

    # ------------------------------------------------------------------
    # Routed submission
    # ------------------------------------------------------------------
    async def _submit(
        self,
        shard_id: int,
        command: commands.OsdCommand,
        deadline: Optional[float] = None,
    ) -> OsdResponse:
        """One shard round trip through the breaker and the health feed.

        Any *reply* — including ``WRONG_SHARD`` bounces and honest FAILs —
        proves the shard is alive and closes its breaker; only transport
        failures (timeouts, dead sockets, exhausted retries) count against
        it. A fast-fail raises :class:`CircuitOpenError`, which downstream
        failover paths already treat as an ordinary service error.
        """
        loop = asyncio.get_running_loop()
        breaker = self.breakers.of(shard_id)
        if not breaker.allow(loop.time()):
            self.router_stats.breaker_fastfails += 1
            raise CircuitOpenError(shard_id)
        started = loop.time()
        try:
            response = await self.client(shard_id).submit(command, deadline=deadline)
        except (OsdServiceError, ConnectionError, OSError):
            now = loop.time()
            breaker.record_failure(now)
            if self.health_monitor is not None:
                self.health_monitor.observe(shard_id, None, ok=False, now=now)
            raise
        now = loop.time()
        breaker.record_success()
        if self.health_monitor is not None:
            self.health_monitor.observe(shard_id, now - started, ok=True, now=now)
        return response

    async def _routed(
        self,
        command: commands.OsdCommand,
        object_id: ObjectId,
        rank: int,
        deadline: Optional[float] = None,
    ) -> OsdResponse:
        """Submit to the shard at HRW ``rank`` of ``object_id``, healing the
        map on ``WRONG_SHARD``.

        The route is data, resolved against the *current* map on every try:
        rank 0 is the primary, rank 1 the mirror slot, rank ``i`` of a
        striped parent the home of its fragment ``i`` (cycling while shards
        are scarce, so the mirror slot of a one-shard map is the primary).
        ``WRONG_SHARD`` means the command did not execute, so replaying it
        along the corrected route is safe for every command type. The
        ``deadline`` budget spans the whole redirect chain: every replay's
        retries are clipped to it, and a chain that reaches it surfaces a
        deadline error instead of looping.
        """
        for _ in range(self.max_redirects + 1):
            if deadline is not None:
                loop = asyncio.get_running_loop()
                if loop.time() >= deadline:
                    raise OsdServiceError(
                        f"operation deadline exhausted while routing {command!r}"
                    )
            ranked = self.cluster_map.ranking_for(object_id)
            shard_id = ranked[rank % len(ranked)]
            response = await self._submit(shard_id, command, deadline)
            if response.sense is not SenseCode.WRONG_SHARD:
                return response
            self.router_stats.redirects += 1
            if not self._adopt_reply_map(response.payload):
                # The bouncing shard's map is no newer than ours: ask the
                # rest of the cluster before retrying the same route.
                if not await self.refresh_map():
                    raise OsdServiceError(
                        f"shard {shard_id} bounced {command!r} but offered "
                        f"no newer map (epoch {self.cluster_map.epoch})"
                    )
        raise OsdServiceError(
            f"routing did not converge after {self.max_redirects} redirects"
        )

    # ------------------------------------------------------------------
    # Partition management
    # ------------------------------------------------------------------
    async def create_partition(self, pid: int) -> None:
        """Create ``pid`` on every readable shard (tolerating 'exists')."""
        for shard_id in self.cluster_map.readable_ids:
            await self.client(shard_id).create_partition(pid)
        self.known_partitions.add(pid)

    async def _ensure_stripe_partition(self, pid: int) -> None:
        if pid in self._stripe_partitions:
            return
        await self.create_partition(pid + STRIPE_PARTITION_OFFSET)
        self._stripe_partitions.add(pid)

    # ------------------------------------------------------------------
    # Write path (class policy)
    # ------------------------------------------------------------------
    async def write(
        self,
        object_id: ObjectId,
        payload: bytes,
        class_id: Optional[int] = None,
        *,
        deadline: Optional[float] = None,
    ) -> OsdResponse:
        """Write by class policy: mirror 0/1, stripe 2, plain otherwise.

        An overwrite that changes the object's layout (dirty → flushed, hot
        → cold) retires the previous layout's copies once the new ones have
        landed, so no orphan fragment or stale mirror copy outlives it.
        """
        self.known_partitions.add(object_id.pid)
        previous = self._layouts.get(object_id)
        layout = CLASS_LAYOUT.get(class_id, "plain")
        if layout == "mirror":
            response = await self._write_mirrored(object_id, payload, class_id, deadline)
        elif layout == "stripe":
            response = await self._write_striped(object_id, payload, class_id, deadline)
        else:
            response = await self._routed(
                commands.Write(object_id, payload, class_id), object_id, 0, deadline
            )
        if response.ok:
            self._layouts[object_id] = layout
            if previous is not None and previous != layout:
                # A stripe shares no copy with the other layouts; plain and
                # mirror share the primary, which the write just overwrote.
                await self._remove_copies(
                    object_id, previous, deadline, 0 if layout == "stripe" else 1
                )
        return response

    async def _write_mirrored(
        self,
        object_id: ObjectId,
        payload: bytes,
        class_id: int,
        deadline: Optional[float] = None,
    ) -> OsdResponse:
        command = commands.Write(object_id, payload, class_id)
        primary = await self._routed(command, object_id, 0, deadline)
        if not primary.ok:
            return primary
        if len(self.cluster_map.ranking_for(object_id)) > 1:
            mirror = await self._routed(command, object_id, 1, deadline)
            if not mirror.ok:
                return mirror
        self.router_stats.mirrors_written += 1
        return primary

    async def _write_striped(
        self,
        object_id: ObjectId,
        payload: bytes,
        class_id: int,
        deadline: Optional[float] = None,
    ) -> OsdResponse:
        await self._ensure_stripe_partition(object_id.pid)
        k, m = self.codec.k, self.codec.m
        frag_len = max(1, -(-len(payload) // k))  # ceil; >=1 so RS has width
        padded = payload.ljust(frag_len * k, b"\0")
        data = [padded[i * frag_len : (i + 1) * frag_len] for i in range(k)]
        fragments = self.codec.encode_stripe(data)
        results = await asyncio.gather(
            *(
                self._routed(
                    commands.Write(
                        fragment_object_id(object_id, index),
                        encode_fragment(
                            fragment,
                            k=k,
                            m=m,
                            index=index,
                            class_id=class_id,
                            size=len(payload),
                        ),
                        class_id,
                    ),
                    object_id,
                    index,
                    deadline,
                )
                for index, fragment in enumerate(fragments)
            )
        )
        for result in results:
            if not result.ok:
                return result
        self.router_stats.stripes_written += 1
        return OsdResponse(SenseCode.OK)

    # ------------------------------------------------------------------
    # Read path (degraded-capable)
    # ------------------------------------------------------------------
    async def read(
        self, object_id: ObjectId, *, deadline: Optional[float] = None
    ) -> Tuple[Optional[bytes], OsdResponse]:
        layout = self._layouts.get(object_id, "plain")
        if layout == "stripe":
            return await self._read_striped(object_id, deadline)
        if layout == "mirror":
            return await self._read_mirrored(object_id, deadline)
        response = await self._routed(commands.Read(object_id), object_id, 0, deadline)
        return response.payload, response

    def _should_hedge(self, shard_id: int) -> bool:
        """Hedge when the detector sees the primary running pathologically slow."""
        monitor = self.health_monitor
        if monitor is None:
            return False
        health = monitor.health_of(shard_id)
        return (
            health.baseline is not None
            and health.slowdown_ewma >= HEDGE_SLOWDOWN
        )

    def _track_hedge(self, task: "asyncio.Task") -> None:
        """Let a losing hedge leg finish in the background.

        The slow leg's eventual completion (or failure) is a health sample
        the detector needs; cancelling it would blind the monitor to the
        very slowness that triggered the hedge.
        """
        self._hedge_tasks.add(task)

        def _reap(done: "asyncio.Task") -> None:
            self._hedge_tasks.discard(done)
            if not done.cancelled():
                done.exception()  # consume: failures were already observed

        task.add_done_callback(_reap)

    async def _read_mirrored(
        self, object_id: ObjectId, deadline: Optional[float] = None
    ) -> Tuple[Optional[bytes], OsdResponse]:
        owners = self.cluster_map.owners_for(object_id, width=2)
        if len(owners) > 1 and self._should_hedge(owners[0]):
            return await self._read_hedged(object_id, owners, deadline)
        last: Optional[OsdResponse] = None
        for rank, shard_id in enumerate(owners):
            try:
                response = await self._submit(
                    shard_id, commands.Read(object_id), deadline
                )
            except (OsdServiceError, ConnectionError, OSError):
                continue
            if response.ok:
                if rank:
                    self.router_stats.mirror_failovers += 1
                return response.payload, response
            last = response
        if last is not None:
            return None, last
        raise OsdServiceError(f"all mirrors of {object_id} are unreachable")

    async def _read_hedged(
        self,
        object_id: ObjectId,
        owners: List[int],
        deadline: Optional[float] = None,
    ) -> Tuple[Optional[bytes], OsdResponse]:
        """Race the primary and mirror legs; first OK answer wins.

        The loser is not cancelled — it drains in the background so its
        latency sample still feeds the health monitor (see
        :meth:`_track_hedge`).
        """
        self.router_stats.hedged_reads += 1
        tasks = {
            asyncio.ensure_future(
                self._submit(shard_id, commands.Read(object_id), deadline)
            ): rank
            for rank, shard_id in enumerate(owners[:2])
        }
        pending = set(tasks)
        last: Optional[OsdResponse] = None
        errors = 0
        try:
            while pending:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    if task.exception() is not None:
                        errors += 1
                        continue
                    response = task.result()
                    if response.ok:
                        for loser in pending:
                            self._track_hedge(loser)
                        pending = set()
                        if tasks[task]:
                            self.router_stats.hedge_wins += 1
                        return response.payload, response
                    last = response
        finally:
            for leftover in pending:
                self._track_hedge(leftover)
        if last is not None:
            return None, last
        assert errors
        raise OsdServiceError(f"all mirrors of {object_id} are unreachable")

    async def _fetch_fragment(
        self, object_id: ObjectId, index: int, deadline: Optional[float] = None
    ) -> Optional[_Fetched]:
        """Fragment ``index`` as ``((k, m, parent payload size), payload view)``."""
        fragment_id = fragment_object_id(object_id, index)
        try:
            response = await self._routed(
                commands.Read(fragment_id), object_id, index, deadline
            )
        except (OsdServiceError, ConnectionError, OSError):
            response = None
        if response is not None and response.ok and response.payload is not None:
            blob: Optional[bytes] = response.payload
        else:
            blob = await self._sweep_fragment(fragment_id, deadline)
        if blob is None:
            return None
        try:
            fields, view = _split_fragment(blob)
        except OsdServiceError:
            return None
        return (fields[1], fields[2], fields[-1]), view

    async def _sweep_fragment(
        self, fragment_id: ObjectId, deadline: Optional[float]
    ) -> Optional[bytes]:
        """Hunt a fragment missing from its desired owner.

        Mid-rebalance a fragment can lag behind the map: its new home has
        not received the copy yet, but a DRAINING shard or a straggler
        still holds it — and reads are served wherever the object exists.
        Non-holders answer ``WRONG_SHARD`` (cheap); dead shards fail fast
        through the breaker.
        """
        desired = self.cluster_map.owners_for(fragment_id)[0]
        for shard_id in sorted(self.cluster_map.readable_ids):
            if shard_id == desired:
                continue
            try:
                response = await self._submit(
                    shard_id, commands.Read(fragment_id), deadline
                )
            except (OsdServiceError, ConnectionError, OSError):
                continue
            if response.ok and response.payload is not None:
                return response.payload
        return None

    async def _read_striped(
        self, object_id: ObjectId, deadline: Optional[float] = None
    ) -> Tuple[Optional[bytes], OsdResponse]:
        k, m = self.codec.k, self.codec.m
        fetched = await asyncio.gather(
            *(self._fetch_fragment(object_id, index, deadline) for index in range(k))
        )
        present = {
            index: frag for index, frag in enumerate(fetched) if frag is not None
        }
        size, agreed = _agreeing(present, k)
        if len(agreed) == k:
            data = b"".join(agreed[index] for index in range(k))
            return data[:size], OsdResponse(SenseCode.OK)
        # Degraded (a data fragment is missing or disagrees): pull the parity
        # fragments, then decode from the fragments that agree.
        self.router_stats.degraded_reads += 1
        parity = await asyncio.gather(
            *(self._fetch_fragment(object_id, k + index, deadline) for index in range(m))
        )
        for index, frag in enumerate(parity):
            if frag is not None:
                present[k + index] = frag
        size, agreed = _agreeing(present, k)
        if len(agreed) < k:
            return None, OsdResponse(SenseCode.FAIL)
        try:
            data_fragments = self.codec.decode(agreed)
        except (UnrecoverableDataError, OsdError):
            return None, OsdResponse(SenseCode.FAIL)
        data = b"".join(data_fragments)
        return data[:size], OsdResponse(SenseCode.OK)

    # ------------------------------------------------------------------
    # Remove / attributes
    # ------------------------------------------------------------------
    async def remove(
        self, object_id: ObjectId, *, deadline: Optional[float] = None
    ) -> OsdResponse:
        layout = self._layouts.pop(object_id, "plain")
        return await self._remove_copies(object_id, layout, deadline)

    async def _remove_copies(
        self,
        object_id: ObjectId,
        layout: str,
        deadline: Optional[float],
        first_rank: int = 0,
    ) -> OsdResponse:
        """Remove what ``layout`` put down: every fragment of a stripe, or
        the plain copies from HRW rank ``first_rank`` on."""
        if layout == "stripe":
            results = await asyncio.gather(
                *(
                    self._routed(
                        commands.Remove(fragment_object_id(object_id, index)),
                        object_id,
                        index,
                        deadline,
                    )
                    for index in range(self.codec.n)
                ),
                return_exceptions=True,
            )
            for result in results:
                if isinstance(result, BaseException):
                    raise result
            return OsdResponse(SenseCode.OK)
        copies = 1
        if layout == "mirror":
            copies = min(2, len(self.cluster_map.ranking_for(object_id)))
        response = OsdResponse(SenseCode.OK)
        for rank in range(first_rank, copies):
            response = await self._routed(
                commands.Remove(object_id), object_id, rank, deadline
            )
        return response

    async def get_attr(
        self, object_id: ObjectId, key: str, *, deadline: Optional[float] = None
    ) -> Tuple[Optional[str], OsdResponse]:
        response = await self._routed(
            commands.GetAttr(object_id, key), object_id, 0, deadline
        )
        if not response.ok or response.payload is None:
            return None, response
        return response.payload.decode("utf-8"), response

    # ------------------------------------------------------------------
    # Cluster-wide fan-out
    # ------------------------------------------------------------------
    async def service_stats_all(self) -> Dict[str, object]:
        """Merged :class:`ServiceStats` across every reachable shard."""
        snapshots: List[Dict[str, object]] = []
        for shard_id in self.cluster_map.readable_ids:
            try:
                snapshots.append(await self.client(shard_id).service_stats())
            except (OsdServiceError, ConnectionError, OSError):
                continue
        return merge_snapshots(snapshots)

    def note_layout(self, object_id: ObjectId, layout: str) -> None:
        """Teach the read path an object's layout (supervisor/recovery use)."""
        if layout not in CLASS_LAYOUT.values():
            raise ValueError(f"unknown layout {layout!r}")
        self._layouts[object_id] = layout

    def __repr__(self) -> str:
        return (
            f"RouterClient(epoch={self.cluster_map.epoch}, "
            f"shards={self.cluster_map.readable_ids}, "
            f"redirects={self.router_stats.redirects})"
        )
