"""Shard servers and the in-process multi-shard cluster harness.

:class:`ShardServer` is an :class:`~repro.net.server.OsdServer` that knows
its place in a :class:`~repro.cluster.map.ClusterMap`: it enforces the
map's placement on every addressed command (bouncing misroutes with
``WRONG_SHARD`` sense data that carries its current map as the payload) and
answers map-exchange queries at
:data:`~repro.osd.types.CLUSTER_MAP_OBJECT` through the server's
control-read registry.

Route enforcement rules (the contract the router relies on):

- **No map installed** → no enforcement. A shard boots map-less; the
  cluster harness installs epoch 1 once every shard has bound its port.
- **Mutations** (``Write``/``Update``/``Remove``) bounce unless this
  shard is ONLINE *and* among the object's legitimate owners (top-2 HRW
  for plain objects — covering the mirror slot — or the stripe slot for
  fragments). A DRAINING shard therefore refuses new writes outright:
  accepting one would fork state against the object's new home.
- **Reads** (``Read``/``GetAttr``) are served whenever the shard actually
  holds the object — this is what lets a DRAINING shard be evacuated and
  lets stragglers drain after a rebalance. A miss on a legitimate owner is
  an honest ``FAIL`` (the object does not exist); a miss elsewhere is
  ``WRONG_SHARD`` (the client is routing with a stale map).
- **Control writes** (OID 0x10004), ``CreatePartition`` and
  ``ListPartition`` are never route-checked: partitions exist on every
  shard, and control/introspection traffic is addressed to *this server*,
  not to a placed object.

:class:`ClusterService` boots N shard servers on ephemeral ports inside
one process — the harness used by tests, the smoke CLI, benches, and the
shard-loss campaign. ``stop_shard`` hard-kills a shard *without* touching
the map, which is exactly the failure the router's degraded paths and the
supervisor's condemn/re-home flow are built for.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.cluster.map import ClusterMap, ShardInfo, ShardState
from repro.core.policy import MIRROR_WIDTH
from repro.net.server import OsdServer
from repro.osd.commands import OsdCommand, Remove, Update, Write
from repro.osd.sense import SenseCode
from repro.osd.target import OsdResponse, OsdTarget
from repro.osd.types import CLUSTER_MAP_OBJECT, CONTROL_OBJECT, ObjectId

__all__ = ["ClusterService", "ShardServer"]

#: Replies one router connection may have held on a shard (chaos delays)
#: before that connection's frame loop stops.
SHARD_MAX_IN_FLIGHT = 64

_MUTATIONS = (Write, Update, Remove)


class ShardServer(OsdServer):
    """One cluster shard: an OSD server that enforces the cluster map."""

    def __init__(
        self,
        target: OsdTarget,
        shard_id: int,
        host: str = "127.0.0.1",
        port: int = 0,
        **kwargs: object,
    ) -> None:
        super().__init__(target, host, port, **kwargs)  # type: ignore[arg-type]
        self.shard_id = shard_id
        self.cluster_map: Optional[ClusterMap] = None
        #: Misroutes bounced with WRONG_SHARD since start.
        self.wrong_shard_rejections = 0
        self.register_control_read(CLUSTER_MAP_OBJECT, self._map_payload)

    def install_map(self, cluster_map: ClusterMap) -> bool:
        """Adopt ``cluster_map`` if it is newer than the current one."""
        if self.cluster_map is not None and cluster_map.epoch <= self.cluster_map.epoch:
            return False
        self.cluster_map = cluster_map
        return True

    def _map_payload(self) -> bytes:
        if self.cluster_map is None:
            return b"{}"
        return self.cluster_map.to_json()

    # ------------------------------------------------------------------
    # Routing enforcement
    # ------------------------------------------------------------------
    def _execute(self, command: OsdCommand) -> OsdResponse:
        bounce = self._route_check(command)
        if bounce is not None:
            return bounce
        return super()._execute(command)

    def _wrong_shard(self) -> OsdResponse:
        self.wrong_shard_rejections += 1
        return OsdResponse(SenseCode.WRONG_SHARD, payload=self._map_payload())

    def _route_check(self, command: OsdCommand) -> Optional[OsdResponse]:
        cluster_map = self.cluster_map
        if cluster_map is None:
            return None
        object_id = getattr(command, "object_id", None)
        if object_id is None or object_id == CONTROL_OBJECT:
            # CreatePartition/ListPartition, or control/introspection
            # traffic addressed to this server.
            return None
        # Any object may sit in the mirror slot: the check need not know
        # the class, and a class-2/3 write simply lands on the primary.
        if isinstance(command, _MUTATIONS):
            me = cluster_map.shard(self.shard_id)
            if me is None or me.state is not ShardState.ONLINE:
                return self._wrong_shard()
            if self.shard_id not in cluster_map.owners_for(object_id, MIRROR_WIDTH):
                return self._wrong_shard()
            return None
        # Read or GetAttr.
        if self.target.exists(object_id):
            return None  # held here: serve it (drain reads, stragglers)
        if self.shard_id in cluster_map.owners_for(object_id, MIRROR_WIDTH):
            return None  # legitimate owner without the object: honest FAIL
        return self._wrong_shard()

    def __repr__(self) -> str:
        epoch = self.cluster_map.epoch if self.cluster_map is not None else 0
        return (
            f"ShardServer(shard={self.shard_id}, {self.host}:{self.port}, "
            f"epoch={epoch}, rejections={self.wrong_shard_rejections})"
        )


def default_target_factory(_shard_id: int) -> OsdTarget:
    """A zero-cost in-memory shard target (the bench/test default)."""
    from repro.flash.array import FlashArray
    from repro.flash.latency import ZERO_COST
    from repro.flash.stripe import ParityScheme
    from repro.osd.types import PARTITION_BASE

    array = FlashArray(
        num_devices=5,
        device_capacity=256 * 1024 * 1024,
        chunk_size=4096,
        model=ZERO_COST,
    )
    target = OsdTarget(array, policy=lambda _cid: ParityScheme(1))
    target.create_partition(PARTITION_BASE)
    return target


class ClusterService:
    """N in-process shard servers plus the map that binds them."""

    def __init__(
        self,
        num_shards: int,
        host: str = "127.0.0.1",
        *,
        target_factory: Callable[[int], OsdTarget] = default_target_factory,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        self.host = host
        self.target_factory = target_factory
        self.shards: Dict[int, ShardServer] = {}
        self.cluster_map: Optional[ClusterMap] = None

    async def start(self) -> ClusterMap:
        """Boot every shard on an ephemeral port and install the epoch-1 map."""
        for shard_id in range(self.num_shards):
            await self._boot_shard(shard_id)
        cluster_map = ClusterMap(
            epoch=1,
            shards=tuple(
                ShardInfo(shard_id=sid, host=self.host, port=server.port)
                for sid, server in sorted(self.shards.items())
            ),
        )
        self.install_map(cluster_map)
        return cluster_map

    async def _boot_shard(self, shard_id: int) -> ShardServer:
        server = ShardServer(
            self.target_factory(shard_id),
            shard_id,
            self.host,
            port=0,
            max_in_flight=SHARD_MAX_IN_FLIGHT,
        )
        await server.start()
        self.shards[shard_id] = server
        return server

    def install_map(self, cluster_map: ClusterMap) -> None:
        """Push a (newer) map to every still-running shard."""
        if self.cluster_map is None or cluster_map.epoch > self.cluster_map.epoch:
            self.cluster_map = cluster_map
        for server in self.shards.values():
            server.install_map(cluster_map)

    async def add_shard(self) -> int:
        """Boot one new shard (join) and install a map including it.

        The new shard gets the next unused id — ids are never recycled,
        even across condemns, so a rejoining "shard 2 replacement" is a
        distinct identity with a fresh HRW footprint. Object movement is
        the supervisor's job (:meth:`ClusterSupervisor.admit`); this only
        grows the membership.
        """
        if self.cluster_map is None:
            raise RuntimeError("cluster not started")
        used = [shard.shard_id for shard in self.cluster_map.shards]
        used.extend(self.shards)
        shard_id = max(used, default=-1) + 1
        server = await self._boot_shard(shard_id)
        joined = self.cluster_map.with_shard(
            ShardInfo(shard_id=shard_id, host=self.host, port=server.port)
        )
        self.install_map(joined)
        return shard_id

    async def stop_shard(self, shard_id: int) -> None:
        """Hard-kill one shard (its map entry is left untouched — a crash)."""
        server = self.shards.pop(shard_id, None)
        if server is not None:
            await server.shutdown()

    async def shutdown(self) -> None:
        for shard_id in sorted(self.shards):
            server = self.shards.pop(shard_id)
            await server.shutdown()

    def router(self, **kwargs: object) -> "object":
        """A :class:`~repro.cluster.router.RouterClient` on the current map."""
        from repro.cluster.router import RouterClient

        if self.cluster_map is None:
            raise RuntimeError("cluster not started")
        return RouterClient(self.cluster_map, **kwargs)  # type: ignore[arg-type]

    async def __aenter__(self) -> "ClusterService":
        await self.start()
        return self

    async def __aexit__(self, *_exc: object) -> None:
        await self.shutdown()

    def endpoints(self) -> List[str]:
        return [
            f"{server.host}:{server.port}" for _, server in sorted(self.shards.items())
        ]

    def __repr__(self) -> str:
        epoch = self.cluster_map.epoch if self.cluster_map is not None else 0
        return (
            f"ClusterService(shards={sorted(self.shards)}, epoch={epoch}, "
            f"host={self.host})"
        )
