#!/usr/bin/env python3
"""Failure drill: graceful degradation vs a sudden, complete service loss.

Reproduces the paper's §VI-C storyline as a narrated drill: warm up a cache
under each scheme, then shoot down devices one by one (no spares) and watch
what remains of the caching service. Uniform protection falls off a cliff
once failures exceed its parity; Reo degrades gracefully and keeps serving
while a single device survives.

Run:  python examples/failure_drill.py
"""

from repro.experiments.common import PROFILES, make_policy, make_trace, replay
from repro.sim.report import format_figure_series
from repro.sim.runner import FailureEvent
from repro.workload.medisyn import Locality

SCHEMES = ("0-parity", "1-parity", "2-parity", "Reo-20%")


def main() -> None:
    profile = PROFILES["smoke"]
    trace = make_trace(Locality.MEDIUM, profile)
    quarter = len(trace) // 5

    series = {}
    for policy_key in SCHEMES:
        differentiated = make_policy(policy_key).differentiates
        failures = [
            FailureEvent(
                request_index=quarter * (index + 1),
                device_id=index,
                insert_spare=False,
                start_recovery=differentiated,
            )
            for index in range(4)
        ]
        # With failures, replay() warms the whole cache first (§VI-C).
        cache, result = replay(
            policy_key,
            trace,
            profile,
            10,
            failures=failures,
            chunk_size=profile.failure_chunk_size,
        )
        series[policy_key] = [
            window.metrics.hit_ratio_percent for window in result.windows
        ]
        lost = cache.stats.lost_objects
        print(
            f"{policy_key:>10}: survived the drill with "
            f"{series[policy_key][-1]:.1f}% hits after 4 failures "
            f"({lost} cached objects lost on the way)"
        )

    print()
    print(
        format_figure_series(
            "Hit ratio (%) as devices fail (no spares)",
            "Failed Devices",
            list(range(5)),
            series,
        )
    )
    print(
        "\n0-parity dies at the first failure; 1-parity at the second; "
        "2-parity at the third.\nReo keeps its important classes online the "
        "whole way down — graceful degradation."
    )


if __name__ == "__main__":
    main()
