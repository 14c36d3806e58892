"""Figure 8 — hit ratio, bandwidth, latency under cumulative device failures.

Protocol (paper §VI-C): the medium workload, cache 10% of the data set,
chunk size 1 MB, cache fully warmed first; four failure points at the
10,000th/20,000th/30,000th/40,000th requests, each killing one more device
(no spares — the x-axis is *number of failed devices*). Reo runs its
prioritized recovery after each failure, restriping important objects across
the survivors; the uniform baselines have only their fixed parity.

Expected shapes:

- 0-parity drops to zero hits at the first failure;
- 1-parity survives one failure (degraded reads) and dies at the second;
  2-parity survives two and dies at the third;
- Reo degrades gracefully: the cold tail is lost but protected classes keep
  serving, and the cache stays functional while any device lives.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import (
    CACHE_PERCENT,
    NORMAL_RUN_POLICIES,
    Figure,
    Profile,
    active_profile,
    make_policy,
    make_trace,
    measures,
    replay,
)
from repro.sim.runner import FailureEvent
from repro.workload.medisyn import Locality

__all__ = ["run_failure_resistance"]

#: Request indices of the paper's four failure points (before scaling).
PAPER_FAILURE_POINTS = (10_000, 20_000, 30_000, 40_000)


def run_failure_resistance(
    profile: Optional[Profile] = None,
    policy_keys: Sequence[str] = NORMAL_RUN_POLICIES,
) -> Figure:
    """Regenerate Fig. 8 across the six schemes."""
    profile = profile or active_profile()
    trace = make_trace(Locality.MEDIUM, profile)
    points = [
        max(2, int(point * profile.request_fraction))
        for point in PAPER_FAILURE_POINTS
    ]
    figure = Figure(
        title=f"Fig 8: {{}} vs failed devices [{profile.name}]",
        x_label="Failed Devices",
        x_values=list(range(len(points) + 1)),
        chart="Fig 8a (chart): hit ratio (%) vs failed devices",
    )
    for policy_key in policy_keys:
        # Prioritized recovery without a spare (restriping survivors) is part
        # of Reo's object-aware, differentiated recovery; the uniform
        # baselines model traditional reconstruction, which needs a spare
        # (§IV-D) — hence they only have their fixed parity to lean on.
        differentiated = make_policy(policy_key).differentiates
        failures = [
            FailureEvent(
                request_index=index,
                device_id=device,
                insert_spare=False,
                start_recovery=differentiated,
            )
            for device, index in enumerate(points)
        ]
        _, result = replay(
            policy_key,
            trace,
            profile,
            CACHE_PERCENT,
            failures=failures,
            chunk_size=profile.failure_chunk_size,
        )
        figure.add(policy_key, [measures(window.metrics, profile) for window in result.windows])
    return figure
