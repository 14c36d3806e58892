"""Ablation benches for the design choices DESIGN.md §6 calls out.

Not paper artefacts — these quantify how much each of Reo's design choices
contributes, using the same harness as the figure benchmarks.
"""

from repro.experiments.ablations import (
    run_chunk_size_sweep,
    run_eviction_policy_ablation,
    run_hot_parity_sweep,
    run_hotness_indicator_ablation,
    run_recovery_priority_ablation,
)


def test_ablation_hotness_indicator(benchmark, emit):
    result = benchmark.pedantic(run_hotness_indicator_ablation, rounds=1, iterations=1)
    emit("ablation_hotness_indicator", result.format())
    paper = result.rows["H = Freq/Size (paper)"]
    blind = result.rows["H = Freq"]
    # Both variants keep the cache functional through the failure; the
    # size-aware indicator should not be worse than size-blind.
    assert paper["hit% after"] > 0
    assert paper["hit% after"] >= blind["hit% after"] - 3.0


def test_ablation_recovery_priority(benchmark, emit):
    result = benchmark.pedantic(run_recovery_priority_ablation, rounds=1, iterations=1)
    emit("ablation_recovery_priority", result.format())
    ordered = result.rows["class order, object id within"]
    unordered = result.rows["object-id order"]
    assert ordered["hit% after failure"] > 0
    # Prioritized recovery is at least as good in the post-failure window.
    assert ordered["hit% after failure"] >= unordered["hit% after failure"] - 3.0


def test_ablation_eviction_policy(benchmark, emit):
    result = benchmark.pedantic(run_eviction_policy_ablation, rounds=1, iterations=1)
    emit("ablation_eviction_policy", result.format())
    assert set(result.rows) == {"lru", "fifo", "lfu", "clock", "arc"}
    for name, metrics in result.rows.items():
        assert metrics["hit%"] > 0, name
    # On a Zipf workload, recency/frequency-aware policies beat blind FIFO.
    assert result.rows["lru"]["hit%"] >= result.rows["fifo"]["hit%"] - 2.0


def test_ablation_hot_parity(benchmark, emit):
    result = benchmark.pedantic(run_hot_parity_sweep, rounds=1, iterations=1)
    emit("ablation_hot_parity", result.format())
    one = result.rows["1-parity hot"]
    two = result.rows["2-parity hot"]
    three = result.rows["3-parity hot"]
    # 1-parity hot data cannot survive two concurrent failures...
    assert one["hit% after 2 failures"] <= two["hit% after 2 failures"]
    # ...while 2- and 3-parity do (the paper picks 2).
    assert two["hit% after 2 failures"] > 0
    assert three["hit% after 2 failures"] > 0


def test_ablation_chunk_size(benchmark, emit):
    result = benchmark.pedantic(run_chunk_size_sweep, rounds=1, iterations=1)
    emit("ablation_chunk_size", result.format())
    assert len(result.rows) == 3
    for metrics in result.rows.values():
        assert metrics["hit%"] > 0
