"""Fig. 8 — graceful degradation under cumulative device failures (exp fig8).

Headline assertions (paper §VI-C):

- 0-parity's hit ratio collapses to zero at the first failure;
- 1-parity survives one failure and collapses at the second; 2-parity
  survives two and collapses at the third;
- Reo keeps serving through all four failures — functional as long as at
  least one device lives.
"""

from repro.experiments.common import HIT
from repro.experiments.failure import run_failure_resistance


def test_fig8_failure_resistance(benchmark, emit):
    figure = benchmark.pedantic(run_failure_resistance, rounds=1, iterations=1)
    emit("fig8_failure_resistance", figure.format())
    hit = figure.series[HIT]

    assert hit["0-parity"][0] > 20.0
    for window in range(1, 5):
        assert hit["0-parity"][window] == 0.0

    assert hit["1-parity"][1] > 10.0  # survives one failure
    assert hit["1-parity"][2] == 0.0  # dies at the second

    assert hit["2-parity"][2] > 10.0  # survives two failures
    assert hit["2-parity"][3] == 0.0  # dies at the third

    for policy in ("Reo-10%", "Reo-20%", "Reo-40%"):
        for window in range(1, 5):
            assert hit[policy][window] > 5.0, (
                f"{policy} lost caching service after {window} failures"
            )
