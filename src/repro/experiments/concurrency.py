"""Supplementary experiment: bandwidth vs closed-loop client count.

The paper's bandwidth numbers come from a loaded cache server; this sweep
shows how the simulated stack scales with offered concurrency. With one
client, bandwidth is latency-bound; adding clients overlaps device and
backend service until a resource saturates (the backend HDD path first, as
misses serialize on the single spindle) — the standard closed-loop
throughput curve. Run it with ``python -m repro.experiments concurrency``.

Everything here is simulated time. Wall-clock throughput and latency of
the served stack (:mod:`repro.net`, :mod:`repro.cluster`) are measured out
of process by ``perf/run.py`` against ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.experiments.common import (
    Profile,
    active_profile,
    build_experiment_cache,
    make_trace,
)
from repro.sim.report import format_table
from repro.sim.runner import ExperimentRunner
from repro.workload.medisyn import Locality

__all__ = ["ConcurrencySweep", "run_concurrency_sweep"]


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
