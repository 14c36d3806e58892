"""Ablation studies for the design choices DESIGN.md §6 calls out.

Five studies, each isolating one design decision of Reo:

- **Hotness indicator** — the paper's ``H = Freq/Size`` vs a size-blind
  ``H = Freq``. Per redundancy byte, protecting small-but-popular objects
  buys more surviving hits; the size-aware indicator should retain a higher
  hit ratio through a failure.
- **Recovery priority** — class/hotness-ordered reconstruction vs
  insertion-order (the object-level analogue of block-order RAID rebuild).
  With a bounded recovery share, prioritization restores the
  likely-to-be-accessed data sooner, so the post-failure window sees more
  hits.
- **Eviction policy** — LRU (the paper's choice) against FIFO, LFU, CLOCK
  and ARC replacement on the same workload.
- **Hot-class parity** — the hot class's parity count (the paper fixes
  two): more parity per stripe protects fewer objects within the reserve.
- **Chunk size** — the stripe chunk-size knob the paper sets to 64 KB
  (normal run) and 1 MB (failure runs): smaller chunks mean more
  per-operation overheads, larger chunks mean coarser parity.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.policy import reo_policy
from repro.experiments.common import (
    CACHE_PERCENT,
    Profile,
    Table,
    active_profile,
    make_trace,
    measures,
    replay,
)
from repro.sim.runner import FailureEvent
from repro.workload.medisyn import Locality
from repro.workload.trace import Trace

__all__ = [
    "run_chunk_size_sweep",
    "run_eviction_policy_ablation",
    "run_hot_parity_sweep",
    "run_hotness_indicator_ablation",
    "run_recovery_priority_ablation",
]


def _fail_at_midpoint(trace: Trace, *devices: int, recover: bool = True) -> List[FailureEvent]:
    """Fail ``devices`` without spares halfway through ``trace``."""
    return [
        FailureEvent(len(trace) // 2, device, insert_spare=False, start_recovery=recover)
        for device in devices
    ]


def run_hotness_indicator_ablation(profile: Optional[Profile] = None) -> Table:
    """``H = Freq/Size`` vs size-blind ``H = Freq`` through one failure."""
    profile = profile or active_profile()
    result = Table(
        title=f"Ablation: hotness indicator (Reo-20%, one failure) [{profile.name}]"
    )
    trace = make_trace(Locality.MEDIUM, profile)
    for variant, exponent in (("H = Freq/Size (paper)", 1.0), ("H = Freq", 0.0)):
        _, run = replay(
            "Reo-20%",
            trace,
            profile,
            CACHE_PERCENT,
            failures=_fail_at_midpoint(trace, 0),
            hotness_size_exponent=exponent,
        )
        result.rows[variant] = {
            "hit% before": run.windows[0].metrics.hit_ratio_percent,
            "hit% after": run.windows[1].metrics.hit_ratio_percent,
        }
    return result


def run_recovery_priority_ablation(profile: Optional[Profile] = None) -> Table:
    """Class-ordered recovery vs object-id-ordered reconstruction.

    Measures the window right after a failure with a throttled recovery
    share. Both orders sort by object id; the first sorts by class before
    it (``RecoveryManager._priority`` reads no hotness).
    """
    profile = profile or active_profile()
    result = Table(
        title=f"Ablation: recovery priority (Reo-20%, one failure) [{profile.name}]"
    )
    trace = make_trace(Locality.MEDIUM, profile)
    variants = (("class order, object id within", True), ("object-id order", False))
    for variant, prioritized in variants:
        cache, run = replay(
            "Reo-20%",
            trace,
            profile,
            CACHE_PERCENT,
            failures=_fail_at_midpoint(trace, 0),
            recovery_share=0.05,  # throttle hard so ordering matters
            prioritized_recovery=prioritized,
        )
        result.rows[variant] = {
            "hit% after failure": run.windows[1].metrics.hit_ratio_percent,
            "objects rebuilt": float(cache.recovery.objects_rebuilt),
        }
    return result


def run_eviction_policy_ablation(profile: Optional[Profile] = None) -> Table:
    """LRU (the paper's choice) vs FIFO/LFU/CLOCK/ARC replacement.

    Replacement is orthogonal to Reo's redundancy machinery; this quantifies
    how much the choice matters on the medium workload. Every policy runs its
    own eviction step. Expect CLOCK just above LRU: its hand clears the bit a
    re-access set, so a re-access buys one sweep's reprieve, much like one
    LRU cycle. LFU and ARC protect a re-accessed object durably (a frequency
    count; T2 residency, with ghost hits steering ARC's target size), so
    they lead on a miss-heavy Zipf stream, and FIFO trails because re-access
    grants nothing at all.
    """
    profile = profile or active_profile()
    result = Table(
        title=f"Ablation: eviction policy (Reo-20%, medium workload) [{profile.name}]"
    )
    trace = make_trace(Locality.MEDIUM, profile)
    for name in ("lru", "fifo", "lfu", "clock", "arc"):
        _, run = replay("Reo-20%", trace, profile, CACHE_PERCENT, eviction_policy=name)
        result.rows[name] = {
            "hit%": run.metrics.hit_ratio_percent,
            "MB/sec": run.metrics.bandwidth_mb_per_sec,
            "evictions": float(run.stats["evictions"]),
        }
    return result


def run_hot_parity_sweep(profile: Optional[Profile] = None) -> Table:
    """Sweep the hot class's parity count (the paper fixes it at 2).

    More parity per hot stripe buys failure tolerance at the cost of
    protecting fewer objects within the same reserve: with ``m`` parity
    chunks the overhead per byte is ``m / (5 - m)``, so the protected set
    shrinks as ``m`` grows. Measures hit ratio before and after a
    two-device failure.
    """
    profile = profile or active_profile()
    result = Table(
        title=f"Ablation: hot-class parity count (reserve 20%) [{profile.name}]"
    )
    trace = make_trace(Locality.MEDIUM, profile)
    for hot_parity in (1, 2, 3):
        _, run = replay(
            reo_policy(0.20, hot_parity=hot_parity),
            trace,
            profile,
            CACHE_PERCENT,
            failures=_fail_at_midpoint(trace, 0, 1, recover=False),
        )
        result.rows[f"{hot_parity}-parity hot"] = {
            "hit% before": run.windows[0].metrics.hit_ratio_percent,
            "hit% after 2 failures": run.windows[-1].metrics.hit_ratio_percent,
        }
    return result


def run_chunk_size_sweep(profile: Optional[Profile] = None) -> Table:
    """Normal-run metrics at a quarter of, at, and at four times the
    profile's chunk size."""
    profile = profile or active_profile()
    base = profile.chunk_size
    result = Table(
        title=f"Ablation: chunk size (Reo-20%, medium workload) [{profile.name}]"
    )
    trace = make_trace(Locality.MEDIUM, profile)
    for chunk_size in (base // 4, base, base * 4):
        _, run = replay("Reo-20%", trace, profile, CACHE_PERCENT, chunk_size=chunk_size)
        result.rows[f"chunk={chunk_size}B"] = dict(
            zip(("hit%", "MB/sec", "latency ms"), measures(run.metrics, profile))
        )
    return result
