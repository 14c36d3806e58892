"""Supplementary experiment: recovery onto a spare restores the service.

The paper's §IV-D narrative (and the recovery phase of its Fig. 8
discussion): when a spare device is inserted, prioritized reconstruction
brings the caching service back to its normal state, important classes
first. This driver fails one device mid-run, inserts a spare immediately,
throttles recovery, and reports the hit ratio in consecutive windows after
the failure — the "recovery timeline". Prioritized (class/hotness-ordered)
recovery should climb back faster than an unprioritized rebuild given the
same throttle.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.common import (
    CACHE_PERCENT,
    Figure,
    Profile,
    active_profile,
    make_trace,
    replay,
)
from repro.sim.runner import FailureEvent
from repro.workload.medisyn import Locality

__all__ = ["run_recovery_timeline"]


def run_recovery_timeline(
    profile: Optional[Profile] = None,
    cache_percent: int = CACHE_PERCENT,
    windows: int = 4,
    recovery_share: float = 0.05,
) -> Figure:
    """Measure service restoration under throttled, prioritized recovery."""
    profile = profile or active_profile()
    trace = make_trace(Locality.MEDIUM, profile)
    failure_at = len(trace) // (windows + 1)
    window_size = (len(trace) - failure_at) // windows
    edges = [0] + [failure_at + index * window_size for index in range(windows + 1)]
    timeline = Figure(
        title=f"Recovery timeline: hit ratio (%) per window after spare insertion "
        f"[{profile.name}]",
        x_label="Window",
        x_values=["pre-fail", *(f"+{index + 1}" for index in range(windows))],
    )
    for variant, prioritized in (("prioritized", True), ("unordered", False)):
        cache, result = replay(
            "Reo-20%",
            trace,
            profile,
            cache_percent,
            failures=[FailureEvent(request_index=failure_at, device_id=0)],
            recovery_share=recovery_share,
            chunk_size=profile.failure_chunk_size,
            prioritized_recovery=prioritized,
        )
        spans = [result.recorder.summarize(start, end) for start, end in zip(edges, edges[1:])]
        timeline.add(variant, [(span.hit_ratio_percent,) for span in spans])
        timeline.counts[f"{variant} objects rebuilt"] = cache.recovery.objects_rebuilt
    return timeline
