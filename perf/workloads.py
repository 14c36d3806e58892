"""The six workloads: their fixed parameters and why each exists.

``BENCHMARK.json`` carries the same names and reasons, except for the
workloads in :data:`OUTSIDE_CONTRACT`; ``test_perf.py`` checks the two
agree. Parameters are constants, not options: a workload that needs
different numbers is a different workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class SimWorkload:
    """An in-process ``ReoCache`` replay, repeated until the window is full."""

    name: str
    why: str
    #: Requests per repetition; the first :data:`SIM_WARMUP_SHARE` are unrecorded.
    requests: int
    write_share: float
    #: Request index (in the whole repetition) at which device 1 fails.
    fail_at: Optional[int]


@dataclass(frozen=True)
class NetWorkload:
    """A server child driven over sockets by the bench process."""

    name: str
    why: str
    #: What ``serve.py`` hosts: one ``OsdServer`` or a ``ClusterService``.
    topology: str  # "single" | "cluster"
    #: Chunk size of the single server's array (a cluster's shards are built
    #: by ``ClusterService``'s default target factory).
    chunk_bytes: int
    objects: int
    #: Object size by ``index % len(sizes)``.
    sizes: Tuple[int, ...]
    #: (class id, share of the object indices), in index order.
    classes: Tuple[Tuple[int, float], ...]
    write_share: float
    #: Closed loop: workers in flight. Open loop: None.
    outstanding: Optional[int]
    #: Open loop: Poisson arrivals per second. Closed loop: None.
    rate: Optional[float] = None

    def class_of(self, index: int) -> int:
        position = index / self.objects
        edge = 0.0
        for class_id, share in self.classes:
            edge += share
            if position < edge:
                return class_id
        return self.classes[-1][0]

    def size_of(self, index: int) -> int:
        return self.sizes[index % len(self.sizes)]


#: The simulated cache: Reo-20% over five devices holding a tenth of the data
#: set, the paper's chunk size; recovery gets this share of the device time.
SIM_RESERVE_FRACTION = 0.20
SIM_DEVICES = 5
SIM_CACHE_SHARE = 0.10
SIM_CHUNK_BYTES = 2620
SIM_RECOVERY_SHARE = 0.3
#: Share of a repetition's requests replayed unrecorded before the measured ones.
SIM_WARMUP_SHARE = 0.30

#: The load generator's sockets to a single server: one thread, two
#: connections, sized for the two cores ``nproc`` reports.
CONNECTIONS = 2
#: Shards of the ``ClusterService`` that ``cluster_routed`` is served by.
CLUSTER_SHARDS = 4
#: Seconds of unrecorded load before a served window opens.
NET_WARMUP_SECONDS = 1.0
#: A closed-loop window is cut into slices this long and every timing is
#: taken per slice (see ``measurement.steady``).
SLICE_SECONDS = 0.25
#: The open-loop window is cut into this many slices, each long enough for
#: a p99 of the generator's lateness.
OPEN_SLICES = 5
#: Set-ups per run; ``setup_s`` is their median.
SETUPS_PER_RUN = 7
#: Share of a traced run's seconds spent in the untraced comparison window.
TRACE_REFERENCE_SHARE = 0.4

#: Workloads ``run.py`` runs by name but ``BENCHMARK.json`` does not list,
#: because no metric of theirs held a bound on the reference box. The open
#: loop needs a CPU for its spinning generator and another for the server;
#: on the two-vCPU microVM the server's CPU per op then moved 30% and its
#: median latency 38% between two sets of ten runs an hour apart (the other
#: workloads, on one CPU, 4-20%). See perf/README.md, "Noise on this box".
OUTSIDE_CONTRACT = ("net_open_4k",)

WORKLOADS: Dict[str, object] = {
    w.name: w
    for w in (
        SimWorkload(
            name="sim_read_fail",
            why="in-process Reo-20% read replay with a device failure and class-ordered "
            "rebuild: array, device, RS decode, cache manager, hotness, recovery; no socket",
            requests=8000,
            write_share=0.0,
            fail_at=4000,
        ),
        SimWorkload(
            name="sim_writeback",
            why="same catalogue with 30% writes and no failure: dirty replication, eviction "
            "and backend flush instead of RS, so an RS or hotness gain must not show here",
            requests=6000,
            write_share=0.30,
            fail_at=None,
        ),
        NetWorkload(
            name="net_small",
            why="closed loop of 64-256 B objects, 2 connections x 4 in flight: per-PDU cost "
            "(wire, framing, flusher, event loop) beside a small engine cost; the only "
            "pipelined small ops, so coalescing shows here",
            topology="single",
            chunk_bytes=4096,
            objects=256,
            sizes=(64, 128, 256),
            classes=((1, 0.10), (2, 0.30), (3, 0.60)),
            write_share=0.30,
            outstanding=8,
        ),
        NetWorkload(
            name="net_large",
            why="closed loop of 256 KiB objects: striping, replication, RS encode and chunk "
            "writes dominate, per-PDU cost is small, so wire optimisations are bypassed",
            topology="single",
            chunk_bytes=65536,
            objects=64,
            sizes=(262144,),
            classes=((1, 0.25), (2, 0.75)),
            write_share=0.50,
            outstanding=8,
        ),
        NetWorkload(
            name="net_open_4k",
            why="open loop, Poisson arrivals at a fixed rate of 4 KiB ops timed from when "
            "each was due: latency at moderate load, where coalescing can cost latency",
            topology="single",
            chunk_bytes=4096,
            objects=256,
            sizes=(4096,),
            classes=((1, 0.10), (2, 0.30), (3, 0.60)),
            write_share=0.30,
            outstanding=None,
            rate=2000.0,
        ),
        NetWorkload(
            name="cluster_routed",
            why="RouterClient over a 4-shard ClusterService child, 16 KiB objects mirrored, "
            "4+2 striped or plain by class: router fan-out, client-side RS, placement",
            topology="cluster",
            chunk_bytes=4096,
            objects=192,
            sizes=(16384,),
            classes=((1, 1 / 3), (2, 1 / 3), (3, 1 / 3)),
            write_share=0.30,
            outstanding=8,
        ),
    )
}
