"""Fig. 7 — normal run under the strong-locality workload (exp fig7)."""

from repro.experiments.common import HIT, LATENCY
from repro.experiments.normal_run import run_normal_run_figure
from repro.workload.medisyn import Locality


def test_fig7_normal_run_strong(benchmark, emit):
    figure = benchmark.pedantic(
        run_normal_run_figure, args=(Locality.STRONG,), rounds=1, iterations=1
    )
    emit("fig7_normal_run_strong", figure.format())
    hit = figure.series[HIT]
    for policy, values in hit.items():
        assert values == sorted(values), f"{policy} hit ratio not monotonic"
    # Stronger locality -> higher hit ratios than the same scheme could get
    # on weaker traffic; sanity floor at the largest cache size.
    assert hit["0-parity"][-1] > 30.0
    latency = figure.series[LATENCY]
    # Latency drops (or holds) as the cache grows.
    for policy, values in latency.items():
        assert values[-1] <= values[0] * 1.1, f"{policy} latency grew with cache"
