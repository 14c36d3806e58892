"""Fig. 5 — normal run under the weak-locality workload (DESIGN.md exp fig5).

Regenerates hit ratio, bandwidth, and latency vs cache size (4-12%) for
0/1/2-parity and Reo-10/20/40%. Expected shape: hit ratio ordered by usable
space (0-parity > 1-parity ≈ Reo-20% > 2-parity ≲ Reo-40%), bandwidth
tracking hit ratio, latency tracking miss ratio.
"""

from repro.experiments.common import HIT
from repro.experiments.normal_run import run_normal_run_figure
from repro.workload.medisyn import Locality


def test_fig5_normal_run_weak(benchmark, emit):
    figure = benchmark.pedantic(
        run_normal_run_figure, args=(Locality.WEAK,), rounds=1, iterations=1
    )
    emit("fig5_normal_run_weak", figure.format())
    hit = figure.series[HIT]
    for policy, values in hit.items():
        # Hit ratio must grow with cache size for every scheme.
        assert values == sorted(values), f"{policy} hit ratio not monotonic"
    # More uniform parity -> less usable space -> fewer hits.
    assert hit["0-parity"][-1] >= hit["1-parity"][-1] >= hit["2-parity"][-1]
    # Reo-20% lands in 1-parity's neighbourhood (same space efficiency).
    assert abs(hit["Reo-20%"][-1] - hit["1-parity"][-1]) < 10.0
