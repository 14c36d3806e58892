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

from typing import Optional, Sequence

from repro.experiments.common import (
    CACHE_PERCENT,
    Profile,
    Table,
    active_profile,
    make_trace,
    measures,
    replay,
)
from repro.workload.medisyn import Locality

__all__ = ["run_concurrency_sweep"]


def run_concurrency_sweep(
    profile: Optional[Profile] = None,
    clients: Sequence[int] = (1, 2, 4, 8),
) -> Table:
    """Replay the medium workload at several client counts."""
    profile = profile or active_profile()
    sweep = Table(
        title=f"Bandwidth vs closed-loop clients (Reo-20%, medium) [{profile.name}]",
        variant_label="Clients",
    )
    trace = make_trace(Locality.MEDIUM, profile)
    for count in clients:
        _, result = replay("Reo-20%", trace, profile, CACHE_PERCENT, concurrency=count)
        hit, bandwidth, latency = measures(result.metrics, profile)
        sweep.rows[count] = {"MB/sec": bandwidth, "Latency (ms)": latency, "Hit %": hit}
    return sweep
