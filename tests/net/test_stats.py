"""Unit tests for :class:`~repro.net.stats.ServiceStats` snapshots and their
cross-shard :func:`~repro.net.stats.merge_snapshots`."""

import pytest

from repro.net.stats import LATENCY_WINDOW, ServiceStats, merge_snapshots


def snapshot(wire_errors, max_in_flight, latencies):
    stats = ServiceStats(wire_errors=wire_errors, max_in_flight=max_in_flight)
    for seconds in latencies:
        stats.begin_command()
        stats.end_command(seconds, ok=True)
    return stats.snapshot()


def test_counters_sum_means_weight_and_percentiles_take_the_worst():
    fast = snapshot(wire_errors=1, max_in_flight=2, latencies=[0.001, 0.001, 0.001])
    slow = snapshot(wire_errors=0, max_in_flight=5, latencies=[0.009])
    merged = merge_snapshots([fast, slow])
    assert merged["shards"] == 2
    assert merged["commands"] == 4
    assert merged["wire_errors"] == 1
    assert merged["max_in_flight"] == 7  # concurrent shards: peak depths add
    latency = merged["latency"]
    assert latency["count"] == 4
    assert latency["mean_ms"] == pytest.approx((3 * 1.0 + 1 * 9.0) / 4)
    assert latency["p50_ms"] == pytest.approx(9.0)
    assert latency["p99_ms"] == pytest.approx(9.0)


def test_merging_nothing_is_all_zeroes():
    merged = merge_snapshots([])
    assert merged["shards"] == 0
    assert merged["commands"] == 0
    assert merged["latency"] == {"count": 0, "mean_ms": 0.0, "p50_ms": 0.0, "p99_ms": 0.0}


def test_snapshot_percentiles_of_a_known_window():
    # 1..100 ms recorded out of order: nearest-rank p50 is the 51st value,
    # p99 the 100th — both from the one sort a snapshot does.
    stats = ServiceStats()
    for ms in list(range(51, 101)) + list(range(1, 51)):
        stats.begin_command()
        stats.end_command(ms / 1e3, ok=True)
    latency = stats.snapshot()["latency"]
    assert latency["count"] == 100
    assert latency["p50_ms"] == pytest.approx(51.0)
    assert latency["p99_ms"] == pytest.approx(100.0)
    assert stats.latency.percentiles(0.0, 0.5, 0.99, 1.0) == pytest.approx(
        [0.001, 0.051, 0.100, 0.100]
    )
    assert ServiceStats().latency.percentiles(0.5, 0.99) == [0.0, 0.0]


def test_latency_window_overwrites_its_oldest_samples():
    # k outliers first, then a full window of fast commands: the outliers
    # fall out of the percentiles but stay in the count and the mean.
    outliers = 7
    stats = ServiceStats()
    for seconds in [1.0] * outliers + [0.001] * LATENCY_WINDOW:
        stats.begin_command()
        stats.end_command(seconds, ok=True)
    latency = stats.snapshot()["latency"]
    assert LATENCY_WINDOW == 4096
    assert latency["p99_ms"] == pytest.approx(1.0)
    assert stats.latency.percentiles(1.0) == pytest.approx([0.001])
    assert latency["count"] == LATENCY_WINDOW + outliers
    total = outliers * 1.0 + LATENCY_WINDOW * 0.001
    assert latency["mean_ms"] == pytest.approx(total / (LATENCY_WINDOW + outliers) * 1e3)
    # One more outlier lands in the window again.
    stats.begin_command()
    stats.end_command(2.0, ok=True)
    assert stats.latency.percentiles(1.0) == pytest.approx([2.0])
