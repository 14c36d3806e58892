"""Fig. 6 — normal run under the medium-locality workload (exp fig6)."""

from repro.experiments.common import BANDWIDTH, HIT
from repro.experiments.normal_run import run_normal_run_figure
from repro.workload.medisyn import Locality


def test_fig6_normal_run_medium(benchmark, emit):
    figure = benchmark.pedantic(
        run_normal_run_figure, args=(Locality.MEDIUM,), rounds=1, iterations=1
    )
    emit("fig6_normal_run_medium", figure.format())
    hit = figure.series[HIT]
    for policy, values in hit.items():
        assert values == sorted(values), f"{policy} hit ratio not monotonic"
    assert hit["0-parity"][-1] >= hit["2-parity"][-1]
    bandwidth = figure.series[BANDWIDTH]
    # Bandwidth tracks hit ratio: the largest cache beats the smallest.
    for policy, values in bandwidth.items():
        assert values[-1] > values[0] * 0.9, f"{policy} bandwidth regressed"
