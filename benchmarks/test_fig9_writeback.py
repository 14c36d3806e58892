"""Fig. 9 — dirty-data protection: Reo vs full replication (exp fig9).

Headline assertions (paper §VI-D): full replication's hit ratio is pinned
low and flat regardless of the write ratio (it must assume everything is
dirty); Reo beats it across the sweep and degrades gracefully as the write
ratio grows, while giving dirty data the same replication-level protection.
"""

from repro.experiments.common import BANDWIDTH, HIT
from repro.experiments.writeback import run_writeback_figure


def test_fig9_writeback(benchmark, emit):
    figure = benchmark.pedantic(run_writeback_figure, rounds=1, iterations=1)
    emit("fig9_writeback", figure.format())
    full = figure.series[HIT]["full-replication"]
    reo = figure.series[HIT]["Reo-10%"]

    # Full replication: flat (write ratio does not change its footprint).
    assert max(full) - min(full) < 8.0
    # Reo wins at every write ratio, by a wide margin at 10% writes.
    for index in range(len(full)):
        assert reo[index] > full[index]
    assert reo[0] > full[0] * 1.3
    # Reo degrades gracefully as dirty replicas eat cache space.
    assert reo[-1] < reo[0]
    # Bandwidth advantage follows the hit-ratio advantage.
    assert (
        figure.series[BANDWIDTH]["Reo-10%"][0]
        > figure.series[BANDWIDTH]["full-replication"][0]
    )
