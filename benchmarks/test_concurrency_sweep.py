"""Supplementary bench: closed-loop scaling of the cache stack."""

from repro.experiments.concurrency import run_concurrency_sweep


def test_concurrency_sweep(benchmark, emit):
    sweep = benchmark.pedantic(run_concurrency_sweep, rounds=1, iterations=1)
    emit("concurrency_sweep", sweep.format())
    bandwidth = [row["MB/sec"] for row in sweep.rows.values()]
    latency = [row["Latency (ms)"] for row in sweep.rows.values()]
    hit = [row["Hit %"] for row in sweep.rows.values()]
    # More clients never reduce throughput below the single-client level...
    assert max(bandwidth) >= bandwidth[0]
    assert bandwidth[-1] >= bandwidth[0] * 0.95
    # ...but queueing makes per-request latency grow monotonically.
    assert latency == sorted(latency)
    # The hit ratio is a cache property, independent of concurrency.
    assert max(hit) - min(hit) < 2.0
