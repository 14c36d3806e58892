"""Supplementary bench: preloading beats a cold restart (§I motivation, §III).

A freshly restarted cache preloaded from storage-server history should hit
well immediately, while the cold restart earns its hits slowly.
"""

from repro.experiments.common import HIT
from repro.experiments.warmup import run_warmup_experiment


def test_warmup_preloading(benchmark, emit):
    experiment = benchmark.pedantic(run_warmup_experiment, rounds=1, iterations=1)
    emit("warmup_restart", experiment.format())
    cold = experiment.series[HIT]["cold restart"]
    warm = experiment.series[HIT]["preloaded restart"]
    assert experiment.counts["objects preloaded"] > 0
    # The first post-restart window is where warm-up pays.
    assert warm[0] > cold[0] + 5.0
    # The cold cache eventually converges toward the preloaded one.
    assert cold[-1] > cold[0]
