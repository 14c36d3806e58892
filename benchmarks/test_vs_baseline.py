"""Every ``compare_bench`` suite against its committed baseline.

Collected after the tests that write ``results/BENCH_*.json`` (pytest runs
files in name order), so a full ``pytest benchmarks`` run compares fresh
numbers; run alone it compares the committed ones.
"""

import os
import warnings

import pytest

import compare_bench


@pytest.mark.bench_regression
@pytest.mark.parametrize("suite", sorted(compare_bench.SUITES))
def test_no_regression_vs_baseline(suite):
    """Warn (or fail under REPRO_BENCH_STRICT=1) on a >20% regression."""
    current, baseline = compare_bench.SUITES[suite]
    if not current.exists():
        pytest.skip(f"run the {suite} bench first to produce {current.name}")
    if not baseline.exists():
        pytest.skip("no committed baseline to compare against")
    regressions = compare_bench.compare(
        compare_bench.load(current), compare_bench.load(baseline)
    )
    if not regressions:
        return
    message = compare_bench.format_report(regressions)
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        pytest.fail(message)
    warnings.warn(message)
