"""Benchmark: the repro.net service layer under closed-loop socket load.

Runs the same sweep as ``python -m repro.experiments.concurrency --net``
(an asyncio OSD server on localhost, N pipelined clients), emits
``results/BENCH_net_service.json``, and gates it against the committed
conservative baseline with the same >20% regression rule as the RS-kernel
bench (warn by default, fail under ``REPRO_BENCH_STRICT=1``).

An 8-client tiny-payload (64/128/256 B mix) run rides along as
``net_ops_small_c8`` — the small-object regime where PDU header bytes and
per-request event-loop overhead, not payload movement, set the ceiling;
it is the metric most sensitive to the size of the binary PDU header.
"""

import json
import os
import warnings

import pytest

import compare_bench
from repro.experiments.concurrency import SMALL_PAYLOAD_MIX, run_net_service_sweep

BENCH_JSON, BASELINE_JSON = compare_bench.SUITES["net_service"]


def test_net_service_sweep(emit):
    sweep = run_net_service_sweep(clients=(1, 2, 4, 8), requests_per_client=150)
    small_sweep = run_net_service_sweep(
        clients=(8,),
        requests_per_client=150,
        payload_bytes=min(SMALL_PAYLOAD_MIX),
        payload_mix=SMALL_PAYLOAD_MIX,
    )
    sweep.write_bench_json()
    emit("net_service_sweep", sweep.format())
    emit("net_service_sweep_small", small_sweep.format())

    # Merge the small-object headline into the artifact.
    data = json.loads(BENCH_JSON.read_text())
    data["metrics"]["net_ops_small_c8"] = {
        "label": "service op rate (ops/s), 8 clients, tiny payloads",
        "value": small_sweep.ops_per_sec[0],
    }
    data["small_payload_mix"] = list(SMALL_PAYLOAD_MIX)
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

    # Reliability before speed: a benchmark run with lost or corrupted
    # responses is not a measurement, it is a bug.
    assert sweep.errors == 0
    assert sweep.corrupted == 0
    assert small_sweep.errors == 0
    assert small_sweep.corrupted == 0
    # Concurrency must help: 8 closed-loop clients beat 1.
    assert sweep.ops_per_sec[-1] > sweep.ops_per_sec[0]


@pytest.mark.bench_regression
def test_no_regression_vs_baseline():
    """Warn (or fail under REPRO_BENCH_STRICT=1) on >20% service regression."""
    if not BENCH_JSON.exists():
        pytest.skip("run test_net_service_sweep first to produce BENCH_net_service.json")
    if not BASELINE_JSON.exists():
        pytest.skip("no committed baseline to compare against")
    regressions = compare_bench.compare(
        compare_bench.load(BENCH_JSON), compare_bench.load(BASELINE_JSON)
    )
    if not regressions:
        return
    message = compare_bench.format_report(regressions)
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        pytest.fail(message)
    warnings.warn(message)
