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

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.common import (
    Profile,
    active_profile,
    build_experiment_cache,
    make_trace,
)
from repro.sim.report import format_figure_series
from repro.sim.runner import ExperimentRunner, FailureEvent
from repro.workload.medisyn import Locality

__all__ = ["RecoveryTimeline", "run_recovery_timeline"]


@dataclass
class RecoveryTimeline:
    """Hit ratio per post-failure window, per recovery ordering."""

    profile_name: str
    window_labels: List[str]
    hit_ratio_percent: Dict[str, List[float]] = field(default_factory=dict)
    rebuilt: Dict[str, int] = field(default_factory=dict)

    def format(self) -> str:
        return format_figure_series(
            f"Recovery timeline: hit ratio (%) per window after spare insertion "
            f"[{self.profile_name}]",
            "Window",
            self.window_labels,
            self.hit_ratio_percent,
        )


def run_recovery_timeline(
    profile: Optional[Profile] = None,
    cache_percent: int = 10,
    windows: int = 4,
    recovery_share: float = 0.05,
) -> RecoveryTimeline:
    """Measure service restoration under throttled, prioritized recovery."""
    profile = profile or active_profile()
    trace = make_trace(Locality.MEDIUM, profile)
    failure_at = len(trace) // (windows + 1)
    window_size = (len(trace) - failure_at) // windows
    timeline = RecoveryTimeline(
        profile_name=profile.name,
        window_labels=["pre-fail", *(f"+{index + 1}" for index in range(windows))],
    )
    for variant, prioritized in (("prioritized", True), ("unordered", False)):
        cache = build_experiment_cache(
            "Reo-20%",
            int(trace.total_bytes * cache_percent / 100),
            profile,
            chunk_size=profile.failure_chunk_size,
            prioritized_recovery=prioritized,
        )
        runner = ExperimentRunner(
            cache,
            trace,
            failures=[FailureEvent(request_index=failure_at, device_id=0)],
            recovery_share=recovery_share,
            prewarm=True,
        )
        result = runner.run()
        recorder = result.recorder
        series = [recorder.summarize(0, failure_at).hit_ratio_percent]
        for index in range(windows):
            start = failure_at + index * window_size
            end = failure_at + (index + 1) * window_size
            series.append(recorder.summarize(start, end).hit_ratio_percent)
        timeline.hit_ratio_percent[variant] = series
        timeline.rebuilt[variant] = cache.recovery.objects_rebuilt
    return timeline
