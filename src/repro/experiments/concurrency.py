"""Supplementary experiment: bandwidth vs closed-loop client count.

The paper's bandwidth numbers come from a loaded cache server; this sweep
shows how the simulated stack scales with offered concurrency. With one
client, bandwidth is latency-bound; adding clients overlaps device and
backend service until a resource saturates (the backend HDD path first, as
misses serialize on the single spindle) — the standard closed-loop
throughput curve.

``--net`` mode (``python -m repro.experiments.concurrency --net``) runs the
same closed-loop shape against the *real* asyncio service layer
(:mod:`repro.net`): an OSD server on localhost, N socket clients, measured
wall-clock throughput and tail latency, written to
``benchmarks/results/BENCH_net_service.json`` for the
``compare_bench.py`` regression gate.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.common import (
    Profile,
    active_profile,
    build_experiment_cache,
    make_trace,
)
from repro.sim.report import format_table
from repro.sim.runner import ExperimentRunner
from repro.workload.medisyn import Locality

__all__ = [
    "ConcurrencySweep",
    "NetServiceSweep",
    "run_concurrency_sweep",
    "run_net_service_sweep",
]

BENCH_RESULTS_DIR = pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "results"
NET_BENCH_NAME = "BENCH_net_service.json"


@dataclass
class ConcurrencySweep:
    """Per-client-count series of bandwidth, latency, and hit ratio."""

    profile_name: str
    clients: List[int]
    bandwidth_mb_per_sec: List[float] = field(default_factory=list)
    mean_latency_ms: List[float] = field(default_factory=list)
    hit_ratio_percent: List[float] = field(default_factory=list)

    def format(self) -> str:
        rows = [
            [
                self.clients[index],
                f"{self.bandwidth_mb_per_sec[index]:.1f}",
                f"{self.mean_latency_ms[index]:.1f}",
                f"{self.hit_ratio_percent[index]:.1f}",
            ]
            for index in range(len(self.clients))
        ]
        return format_table(
            f"Bandwidth vs closed-loop clients (Reo-20%, medium) [{self.profile_name}]",
            ["Clients", "MB/sec", "Latency (ms)", "Hit %"],
            rows,
        )


def run_concurrency_sweep(
    profile: Optional[Profile] = None,
    clients: Sequence[int] = (1, 2, 4, 8),
    cache_percent: int = 10,
) -> ConcurrencySweep:
    """Replay the medium workload at several client counts."""
    profile = profile or active_profile()
    sweep = ConcurrencySweep(profile_name=profile.name, clients=list(clients))
    trace = make_trace(Locality.MEDIUM, profile)
    for count in clients:
        cache = build_experiment_cache(
            "Reo-20%", int(trace.total_bytes * cache_percent / 100), profile
        )
        result = ExperimentRunner(
            cache,
            trace,
            warmup_fraction=profile.warmup_fraction,
            concurrency=count,
        ).run()
        sweep.bandwidth_mb_per_sec.append(result.metrics.bandwidth_mb_per_sec)
        sweep.mean_latency_ms.append(
            result.metrics.mean_latency_ms * profile.size_scale
        )
        sweep.hit_ratio_percent.append(result.metrics.hit_ratio_percent)
    return sweep


# ----------------------------------------------------------------------
# --net mode: the same closed-loop sweep against the real service layer
# ----------------------------------------------------------------------
@dataclass
class NetServiceSweep:
    """Measured throughput/latency of the socket service tier per client count."""

    clients: List[int]
    payload_bytes: int
    requests_per_client: int
    ops_per_sec: List[float] = field(default_factory=list)
    mb_per_sec: List[float] = field(default_factory=list)
    p50_latency_ms: List[float] = field(default_factory=list)
    p99_latency_ms: List[float] = field(default_factory=list)
    errors: int = 0
    corrupted: int = 0
    retries: int = 0
    timeouts: int = 0

    def format(self) -> str:
        rows = [
            [
                self.clients[index],
                f"{self.ops_per_sec[index]:.0f}",
                f"{self.mb_per_sec[index]:.1f}",
                f"{self.p50_latency_ms[index]:.2f}",
                f"{self.p99_latency_ms[index]:.2f}",
            ]
            for index in range(len(self.clients))
        ]
        table = format_table(
            "repro.net service layer: closed-loop clients vs throughput/latency "
            f"({self.payload_bytes}B payloads, {self.requests_per_client} req/client)",
            ["Clients", "ops/s", "MB/s", "p50 (ms)", "p99 (ms)"],
            rows,
        )
        return (
            table
            + f"\n  errors={self.errors} corrupted={self.corrupted}"
            + f" retries={self.retries} timeouts={self.timeouts}"
        )

    def to_bench_report(self) -> Dict:
        """The BENCH_net_service.json shape for ``compare_bench.py``.

        Throughput and ops-rate metrics gate on drops (higher is better);
        p99 latency metrics carry ``higher_is_better: false`` and gate on
        increases.
        """
        metrics: Dict[str, Dict] = {}
        for index, count in enumerate(self.clients):
            metrics[f"net_throughput_c{count}"] = {
                "label": f"service throughput, {count} clients",
                "new_mbps": self.mb_per_sec[index],
                "ops_per_sec": self.ops_per_sec[index],
            }
            metrics[f"net_ops_c{count}"] = {
                "label": f"service op rate (ops/s), {count} clients",
                "value": self.ops_per_sec[index],
            }
            metrics[f"net_p99_latency_c{count}"] = {
                "label": f"service p99 latency (ms), {count} clients",
                "value": self.p99_latency_ms[index],
                "higher_is_better": False,
            }
        return {
            "schema": 1,
            "payload_bytes": self.payload_bytes,
            "requests_per_client": self.requests_per_client,
            "errors": self.errors,
            "corrupted": self.corrupted,
            "metrics": metrics,
        }

    def write_bench_json(self, directory: Optional[pathlib.Path] = None) -> pathlib.Path:
        directory = directory or BENCH_RESULTS_DIR
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / NET_BENCH_NAME
        path.write_text(json.dumps(self.to_bench_report(), indent=2, sort_keys=True) + "\n")
        return path


def _zero_cost_target():
    """Build the service-layer bench target (zero-cost flash timing)."""
    from repro.flash.array import FlashArray
    from repro.flash.latency import ZERO_COST
    from repro.flash.stripe import ParityScheme
    from repro.osd.target import OsdTarget
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


#: Small-object profile: tiny payloads where the PDU header, not the
#: data, dominates bytes on the wire — the regime the binary header targets.
SMALL_PAYLOAD_MIX = (64, 128, 256)


def run_net_service_sweep(
    clients: Sequence[int] = (1, 2, 4, 8),
    requests_per_client: int = 150,
    payload_bytes: int = 4096,
    payload_mix: Optional[Sequence[int]] = None,
    write_fraction: float = 0.35,
    seed: int = 1234,
) -> NetServiceSweep:
    """Run the closed-loop load generator against a live localhost server.

    Each client count gets a fresh server (and a fresh in-memory array) so
    the measurements are independent; devices use the zero-cost service
    model, so the numbers isolate the *service layer* — framing, event
    loop, socket round trips — rather than simulated flash timing.

    ``payload_mix`` switches writes to a seeded multi-size mix (see
    :func:`~repro.net.loadgen.run_load`).
    """
    import asyncio

    from repro.net.loadgen import run_load
    from repro.net.server import OsdServer

    sweep = NetServiceSweep(
        clients=list(clients),
        payload_bytes=payload_bytes,
        requests_per_client=requests_per_client,
    )

    async def _measure(count: int):
        async with OsdServer(_zero_cost_target()) as server:
            return await run_load(
                "127.0.0.1",
                server.port,
                clients=count,
                requests_per_client=requests_per_client,
                payload_bytes=payload_bytes,
                payload_mix=payload_mix,
                write_fraction=write_fraction,
                seed=seed,
            )

    for count in sweep.clients:
        report = asyncio.run(_measure(count))
        sweep.ops_per_sec.append(report.ops_per_sec)
        sweep.mb_per_sec.append(report.mb_per_sec)
        sweep.p50_latency_ms.append(report.latency_ms(0.50))
        sweep.p99_latency_ms.append(report.latency_ms(0.99))
        sweep.errors += report.errors
        sweep.corrupted += report.corrupted
        sweep.retries += report.retries
        sweep.timeouts += report.timeouts
    return sweep


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: ``python -m repro.experiments.concurrency [--net]``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.concurrency",
        description="Closed-loop concurrency sweep (simulated stack or --net service layer).",
    )
    parser.add_argument(
        "--net",
        action="store_true",
        help="measure the real asyncio service layer on localhost and emit "
        f"benchmarks/results/{NET_BENCH_NAME}",
    )
    parser.add_argument(
        "--clients",
        default="1,2,4,8",
        help="comma-separated closed-loop client counts (default 1,2,4,8)",
    )
    parser.add_argument(
        "--requests", type=int, default=150, help="requests per client (--net mode)"
    )
    parser.add_argument(
        "--payload-bytes", type=int, default=4096, help="object size (--net mode)"
    )
    parser.add_argument(
        "--small",
        action="store_true",
        help="small-object profile: tiny payload mix (64/128/256 B) (--net mode)",
    )
    args = parser.parse_args(argv)
    counts = [int(token) for token in args.clients.split(",") if token]
    if args.net:
        sweep = run_net_service_sweep(
            clients=counts,
            requests_per_client=args.requests,
            payload_bytes=min(SMALL_PAYLOAD_MIX) if args.small else args.payload_bytes,
            payload_mix=SMALL_PAYLOAD_MIX if args.small else None,
        )
        print(sweep.format())
        path = sweep.write_bench_json()
        print(f"\nwrote {path}")
        return 0 if sweep.errors == 0 and sweep.corrupted == 0 else 1
    print(run_concurrency_sweep(clients=counts).format())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
