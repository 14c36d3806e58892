"""Benchmark: the supervised fault campaign (detection and repair speed).

Runs the composed-fault campaign (latent bit-rot + fail-slow + fail-stop
under the closed detect→spare→rebuild→scrub loop), emits
``results/BENCH_fault_campaign.json``, and gates detection latency,
time-to-full-redundancy, and degraded-read p99 against the committed
baseline. These metrics are *simulated* seconds, deterministic per
(profile, seed) on any machine, so the gate is equality, both ways: any
move is a behaviour change in the detection or repair pipeline, and an
intended one re-records ``BENCH_fault_campaign.baseline.json`` in the same
PR. (``test_vs_baseline.py`` still reports the ±20% ``compare_bench`` view.)
"""

import compare_bench
from repro.experiments.common import PROFILES
from repro.experiments.fault_campaign import run_fault_campaign

_, BASELINE_JSON = compare_bench.SUITES["fault_campaign"]


def test_fault_campaign(emit):
    # The committed baseline was produced with exactly this configuration;
    # the campaign is deterministic per (profile, seed).
    result = run_fault_campaign(profile=PROFILES["fast"], seed=20190707)
    fresh = compare_bench.load(result.write_json())
    emit("fault_campaign", result.format())

    # The campaign's contract: no protected-class object may be lost, every
    # incident must close (redundancy restored), and every injected fault
    # shape must have been detected.
    assert result.protected_losses == 0
    assert result.ledger["incidents"], "no incidents recorded"
    assert all(
        incident["recovered_at"] is not None
        for incident in result.ledger["incidents"]
    )
    assert "fail_slow_detection_latency_s" in result.counts
    assert "fail_stop_detection_latency_s" in result.counts

    # Simulated time is reproducible to the last digit: the fresh run must
    # *equal* the committed baseline, not merely stay within a tolerance.
    baseline = compare_bench.load(BASELINE_JSON)
    for key in ("metrics", "injected"):
        assert fresh[key] == baseline[key], key
    assert fresh["ledger"]["incidents"] == baseline["ledger"]["incidents"]

