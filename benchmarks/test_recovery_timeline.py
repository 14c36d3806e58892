"""Supplementary bench: service restoration after spare insertion (§IV-D).

Asserts the recovery storyline: the hit ratio is depressed right after the
failure and climbs back toward the pre-failure level as the prioritized
rebuild drains.
"""

from repro.experiments.common import HIT
from repro.experiments.recovery_timeline import run_recovery_timeline


def test_recovery_timeline(benchmark, emit):
    timeline = benchmark.pedantic(run_recovery_timeline, rounds=1, iterations=1)
    emit("recovery_timeline", timeline.format())
    series = timeline.series[HIT]["prioritized"]
    pre_failure = series[0]
    assert pre_failure > 20.0
    # The failure depresses service, then recovery + re-warming climb back:
    # the last window sits at or above the post-failure minimum and clearly
    # above a dead cache.
    post_failure = series[1:]
    assert min(post_failure) > 0.0
    assert series[-1] >= min(post_failure)
    # Recovery actually rebuilt objects.
    assert timeline.counts["prioritized objects rebuilt"] > 0
