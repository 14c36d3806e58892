"""Server launcher for the served workloads — runs as a child process.

``python perf/serve.py --workload net_small [--trace-out FILE]`` builds the
workload's server, prints one JSON line with its endpoint (``{"port": N}``
or ``{"map": {...}}``) and serves until SIGTERM. The bench process marks
the measured window with SIGUSR1 (start) and SIGUSR2 (end); on SIGTERM the
child prints a second JSON line with the engine and server counters, and the
span aggregates when tracing, for that window, then exits 0. It also exits if
its parent disappears, so a killed benchmark leaves nothing behind.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cluster.service import ClusterService  # noqa: E402
from repro.core.policy import reo_policy  # noqa: E402
from repro.flash.array import FlashArray  # noqa: E402
from repro.net.server import OsdServer  # noqa: E402
from repro.osd.target import OsdTarget  # noqa: E402
from repro.osd.types import PARTITION_BASE  # noqa: E402

from layers import engine_counters, window_delta  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CLUSTER_SHARDS, WORKLOADS, NetWorkload  # noqa: E402

DEVICES = 5
DEVICE_BYTES = 512 * 1024 * 1024
#: Fields of the public ``ServiceStats.snapshot()`` summed over the servers.
SERVER_COUNTERS = ("commands", "flushes", "busy_rejections", "wire_errors", "sense_errors")


def _single_target(chunk_bytes: int) -> OsdTarget:
    array = FlashArray(
        num_devices=DEVICES, device_capacity=DEVICE_BYTES, chunk_size=chunk_bytes
    )
    target = OsdTarget(array, policy=reo_policy(0.20))
    target.create_partition(PARTITION_BASE)
    return target


class _Window:
    """Counter snapshots at the window marks."""

    def __init__(self, arrays: List[FlashArray], servers: List[OsdServer],
                 tracer: Optional[Tracer]) -> None:
        self.arrays = arrays
        self.servers = servers
        self.tracer = tracer
        self.start = self._read()
        self.report: Optional[Dict[str, object]] = None

    def _read(self) -> Dict[str, float]:
        counters = engine_counters(self.arrays)
        counters.update(dict.fromkeys(SERVER_COUNTERS, 0))
        for index, server in enumerate(self.servers):
            stats = server.stats.snapshot()
            for key in SERVER_COUNTERS:
                counters[key] += stats[key]
            counters[f"shard_commands_{index}"] = stats["commands"]
        return counters

    def open(self) -> None:
        self.start = self._read()
        self.report = None
        if self.tracer is not None:
            self.tracer.reset()

    def close(self) -> None:
        self.report = {
            "counters": window_delta(self.start, self._read()),
            "spans": self.tracer.snapshot() if self.tracer is not None else {},
        }
        if self.tracer is not None:
            # Later calls (stats queries, teardown) stay out of the aggregates
            # and the span file.
            self.tracer.uninstall()


async def _watch_parent(parent: int, stop: asyncio.Event) -> None:
    while os.getppid() == parent:
        await asyncio.sleep(0.5)
    stop.set()


async def _serve(workload: NetWorkload, trace_out: Optional[Path]) -> None:
    tracer: Optional[Tracer] = None
    if trace_out is not None:
        tracer = Tracer()
        tracer.install()
    service: Optional[ClusterService] = None
    server: Optional[OsdServer] = None
    if workload.topology == "cluster":
        service = ClusterService(CLUSTER_SHARDS)
        cluster_map = await service.start()
        servers: List[OsdServer] = [service.shards[sid] for sid in sorted(service.shards)]
        ready: Dict[str, object] = {"map": cluster_map.to_dict()}
    else:
        server = OsdServer(_single_target(workload.chunk_bytes), "127.0.0.1", 0)
        await server.start()
        servers = [server]
        ready = {"port": server.port}
    window = _Window([s.target.array for s in servers], servers, tracer)

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    loop.add_signal_handler(signal.SIGINT, stop.set)
    loop.add_signal_handler(signal.SIGUSR1, window.open)
    loop.add_signal_handler(signal.SIGUSR2, window.close)
    watcher = asyncio.ensure_future(_watch_parent(os.getppid(), stop))
    print(json.dumps(ready), flush=True)
    try:
        await stop.wait()
    finally:
        watcher.cancel()
        if service is not None:
            await service.shutdown()
        if server is not None:
            await server.shutdown()
    if window.report is None:
        window.close()
    if tracer is not None and trace_out is not None:
        tracer.write_spans(trace_out, f"server:{workload.name}")
    print(json.dumps(window.report), flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("--cpu", type=int, required=True, help="pin the server to this CPU")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if not isinstance(workload, NetWorkload):
        parser.error(f"{args.workload} is not a served workload")
    os.sched_setaffinity(0, {args.cpu})
    asyncio.run(_serve(workload, args.trace_out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
