"""Ablation studies for the design choices DESIGN.md §6 calls out.

Three studies, each isolating one design decision of Reo:

- **Hotness indicator** — the paper's ``H = Freq/Size`` vs a size-blind
  ``H = Freq``. Per redundancy byte, protecting small-but-popular objects
  buys more surviving hits; the size-aware indicator should retain a higher
  hit ratio through a failure.
- **Recovery priority** — class/hotness-ordered reconstruction vs
  insertion-order (the object-level analogue of block-order RAID rebuild).
  With a bounded recovery share, prioritization restores the
  likely-to-be-accessed data sooner, so the post-failure window sees more
  hits.
- **Chunk size** — the stripe chunk-size knob the paper sets to 64 KB
  (normal run) and 1 MB (failure runs): smaller chunks mean more
  per-operation overheads, larger chunks mean coarser parity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.policy import reo_policy
from repro.experiments.common import (
    Profile,
    active_profile,
    build_experiment_cache,
    make_trace,
)
from repro.sim.report import format_table
from repro.sim.runner import ExperimentRunner, FailureEvent
from repro.workload.medisyn import Locality

__all__ = [
    "AblationResult",
    "run_chunk_size_sweep",
    "run_eviction_policy_ablation",
    "run_hot_parity_sweep",
    "run_hotness_indicator_ablation",
    "run_recovery_priority_ablation",
]


@dataclass
class AblationResult:
    """Rows of (variant name -> metric dict), plus a formatted table."""

    title: str
    rows: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def format(self) -> str:
        metric_names = list(next(iter(self.rows.values())).keys()) if self.rows else []
        table_rows: List[List[object]] = []
        for variant, metrics in self.rows.items():
            table_rows.append(
                [variant, *(f"{metrics[name]:.1f}" for name in metric_names)]
            )
        return format_table(self.title, ["Variant", *metric_names], table_rows)


def run_hotness_indicator_ablation(
    profile: Optional[Profile] = None, cache_percent: int = 10
) -> AblationResult:
    """``H = Freq/Size`` vs size-blind ``H = Freq`` through one failure."""
    profile = profile or active_profile()
    result = AblationResult(
        title=f"Ablation: hotness indicator (Reo-20%, one failure) [{profile.name}]"
    )
    trace = make_trace(Locality.MEDIUM, profile)
    cache_bytes = int(trace.total_bytes * cache_percent / 100)
    midpoint = len(trace) // 2
    for variant, exponent in (("H = Freq/Size (paper)", 1.0), ("H = Freq", 0.0)):
        cache = build_experiment_cache(
            "Reo-20%", cache_bytes, profile, hotness_size_exponent=exponent
        )
        failures = [
            FailureEvent(
                request_index=midpoint,
                device_id=0,
                insert_spare=False,
                start_recovery=True,
            )
        ]
        run = ExperimentRunner(
            cache,
            trace,
            failures=failures,
            prewarm=True,
            recovery_share=profile.recovery_share,
        ).run()
        result.rows[variant] = {
            "hit% before": run.windows[0].metrics.hit_ratio_percent,
            "hit% after": run.windows[1].metrics.hit_ratio_percent,
        }
    return result


def run_recovery_priority_ablation(
    profile: Optional[Profile] = None, cache_percent: int = 10
) -> AblationResult:
    """Class/hotness-ordered recovery vs insertion-order reconstruction.

    Measures the window right after a failure with a throttled recovery
    share: prioritized recovery restores likely-to-be-accessed objects
    first, so the same amount of rebuild work yields more hits.
    """
    profile = profile or active_profile()
    result = AblationResult(
        title=f"Ablation: recovery priority (Reo-20%, one failure) [{profile.name}]"
    )
    trace = make_trace(Locality.MEDIUM, profile)
    cache_bytes = int(trace.total_bytes * cache_percent / 100)
    midpoint = len(trace) // 2
    for variant, prioritized in (("class+hotness order (paper)", True), ("insertion order", False)):
        cache = build_experiment_cache(
            "Reo-20%", cache_bytes, profile, prioritized_recovery=prioritized
        )
        failures = [
            FailureEvent(
                request_index=midpoint,
                device_id=0,
                insert_spare=False,
                start_recovery=True,
            )
        ]
        run = ExperimentRunner(
            cache,
            trace,
            failures=failures,
            prewarm=True,
            recovery_share=0.05,  # throttle hard so ordering matters
        ).run()
        result.rows[variant] = {
            "hit% after failure": run.windows[1].metrics.hit_ratio_percent,
            "objects rebuilt": float(cache.recovery.objects_rebuilt),
        }
    return result


def run_eviction_policy_ablation(
    profile: Optional[Profile] = None, cache_percent: int = 10
) -> AblationResult:
    """LRU (the paper's choice) vs FIFO/LFU/CLOCK/ARC replacement.

    Replacement is orthogonal to Reo's redundancy machinery; this quantifies
    how much the choice matters on the medium workload. Expect LFU, CLOCK,
    and ARC to (near-)coincide here: on a miss-heavy Zipf stream their
    victims are overwhelmingly the oldest once-accessed objects, which all
    three order identically; they beat LRU because a single re-access grants
    durable protection (a frequency count, a reference bit, T2 residency)
    rather than a one-LRU-cycle reprieve, and FIFO trails because re-access
    grants nothing at all.
    """
    profile = profile or active_profile()
    result = AblationResult(
        title=f"Ablation: eviction policy (Reo-20%, medium workload) [{profile.name}]"
    )
    trace = make_trace(Locality.MEDIUM, profile)
    cache_bytes = int(trace.total_bytes * cache_percent / 100)
    for name in ("lru", "fifo", "lfu", "clock", "arc"):
        cache = build_experiment_cache(
            "Reo-20%", cache_bytes, profile, eviction_policy=name
        )
        run = ExperimentRunner(
            cache, trace, warmup_fraction=profile.warmup_fraction
        ).run()
        result.rows[name] = {
            "hit%": run.metrics.hit_ratio_percent,
            "MB/sec": run.metrics.bandwidth_mb_per_sec,
            "evictions": float(run.stats["evictions"]),
        }
    return result


def run_hot_parity_sweep(
    profile: Optional[Profile] = None, cache_percent: int = 10
) -> AblationResult:
    """Sweep the hot class's parity count (the paper fixes it at 2).

    More parity per hot stripe buys failure tolerance at the cost of
    protecting fewer objects within the same reserve: with ``m`` parity
    chunks the overhead per byte is ``m / (5 - m)``, so the protected set
    shrinks as ``m`` grows. Measures hit ratio before and after a
    two-device failure.
    """
    profile = profile or active_profile()
    result = AblationResult(
        title=f"Ablation: hot-class parity count (reserve 20%) [{profile.name}]"
    )
    trace = make_trace(Locality.MEDIUM, profile)
    cache_bytes = int(trace.total_bytes * cache_percent / 100)
    midpoint = len(trace) // 2
    for hot_parity in (1, 2, 3):
        cache = build_experiment_cache(
            reo_policy(0.20, hot_parity=hot_parity), cache_bytes, profile
        )
        failures = [
            FailureEvent(midpoint, 0, insert_spare=False, start_recovery=False),
            FailureEvent(midpoint, 1, insert_spare=False, start_recovery=False),
        ]
        run = ExperimentRunner(cache, trace, failures=failures, prewarm=True).run()
        result.rows[f"{hot_parity}-parity hot"] = {
            "hit% before": run.windows[0].metrics.hit_ratio_percent,
            "hit% after 2 failures": run.windows[-1].metrics.hit_ratio_percent,
        }
    return result


def run_chunk_size_sweep(
    profile: Optional[Profile] = None,
    cache_percent: int = 10,
    chunk_sizes: Sequence[int] = (),
) -> AblationResult:
    """Normal-run metrics across stripe chunk sizes."""
    profile = profile or active_profile()
    if not chunk_sizes:
        base = profile.chunk_size
        chunk_sizes = (base // 4, base, base * 4)
    result = AblationResult(
        title=f"Ablation: chunk size (Reo-20%, medium workload) [{profile.name}]"
    )
    trace = make_trace(Locality.MEDIUM, profile)
    cache_bytes = int(trace.total_bytes * cache_percent / 100)
    for chunk_size in chunk_sizes:
        cache = build_experiment_cache(
            "Reo-20%", cache_bytes, profile, chunk_size=chunk_size
        )
        run = ExperimentRunner(
            cache, trace, warmup_fraction=profile.warmup_fraction
        ).run()
        result.rows[f"chunk={chunk_size}B"] = {
            "hit%": run.metrics.hit_ratio_percent,
            "MB/sec": run.metrics.bandwidth_mb_per_sec,
            "latency ms": run.metrics.mean_latency_ms * profile.size_scale,
        }
    return result
