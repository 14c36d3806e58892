"""Supplementary experiment: Bonfire-style warm-up after a cache restart.

The paper motivates reliability partly by the cost of re-warming a large
cache from scratch (§I: "hours to even days") and cites Bonfire's
monitor-and-preload approach as complementary (§III). This experiment plays
the restart scenario: serve half the workload to build storage-server
history, replace the cache server with a fresh (empty) one, and compare the
cold restart against a preloaded restart over the next slice of traffic.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.core.warmup import WarmupAdvisor
from repro.experiments.common import (
    CACHE_PERCENT,
    Figure,
    Profile,
    active_profile,
    build_experiment_cache,
    make_trace,
)
from repro.sim.runner import ExperimentRunner
from repro.workload.medisyn import Locality

__all__ = ["run_warmup_experiment"]

#: Equal windows the post-restart traffic is measured in.
WINDOWS = 4


def run_warmup_experiment(profile: Optional[Profile] = None) -> Figure:
    """Cold vs preloaded restart over the medium workload."""
    profile = profile or active_profile()
    trace = make_trace(Locality.MEDIUM, profile)
    half = len(trace) // 2
    history = replace(trace, records=trace.records[:half])
    measured = replace(trace, records=trace.records[half:])
    window = max(1, len(measured) // WINDOWS)
    starts = range(0, WINDOWS * window, window)
    cache_bytes = int(trace.total_bytes * CACHE_PERCENT / 100)
    experiment = Figure(
        title=f"Cache restart: hit ratio (%) per window, cold vs preloaded [{profile.name}]",
        x_label="Window",
        x_values=[f"+{index + 1}" for index in range(WINDOWS)],
    )
    for variant in ("cold restart", "preloaded restart"):
        # Phase 1: the original cache serves history, building server stats.
        first = build_experiment_cache("Reo-20%", cache_bytes, profile)
        ExperimentRunner(first, history).run()
        # Phase 2: the cache server restarts empty, sharing the backend.
        restarted = build_experiment_cache(
            "Reo-20%", cache_bytes, profile, backend=first.backend
        )
        if variant == "preloaded restart":
            report = WarmupAdvisor(first.backend).preload(restarted)
            experiment.counts["objects preloaded"] = report.objects_loaded
        recorder = ExperimentRunner(restarted, measured).run().recorder
        hits = [recorder.summarize(start, start + window).hit_ratio_percent for start in starts]
        experiment.add(variant, [(hit,) for hit in hits])
    return experiment
