"""The simulated workloads: an in-process ``ReoCache`` replaying a seeded trace.

One *repetition* is a whole set-up (trace generation, cache build, unrecorded
warm-up replay) followed by the measured replay. Repetitions run until the
measured replays fill the window, so a run yields several set-up times, of
which it reports the median, and several timings of the same work, of which
it reports the best (see ``measurement.steady``). The simulated-time results
of every repetition of a run must be identical.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.core.policy import reo_policy
from repro.core.reo import ReoCache
from repro.errors import ReproError
from repro.sim.runner import ExperimentRunner, FailureEvent
from repro.workload.trace import Trace, TraceRecord

from inputs import split_trace, zipf_trace
from layers import (
    Snapshot,
    budget_table,
    engine_counters,
    plain_self_us_per_op,
    span_metrics,
    spread_pct,
    window_delta,
)
from loadgen import percentile
from measurement import MAX_RECONCILE_GAP_PCT, Measurement, steady
from procs import RESULTS, peak_rss_mb, take_turns
from tracing import Tracer, merge_snapshots
from workloads import (
    SIM_CACHE_SHARE,
    SIM_CHUNK_BYTES,
    SIM_DEVICES,
    SIM_RECOVERY_SHARE,
    SIM_RESERVE_FRACTION,
    SIM_WARMUP_SHARE,
    TRACE_REFERENCE_SHARE,
    SimWorkload,
)

FAILED_DEVICE = 1
#: Call counts that come from spans summed over the traced repetitions.
PER_REPETITION_CALLS = (
    "cache.manager.reclassify_calls",
    "core.hotness.update_threshold_calls",
    "core.recovery.steps",
)


class TimedTrace(Trace):
    """A trace that notes the host time at which each record is pulled.

    The runner pulls record *i+1* when request *i* is done, so consecutive
    stamps bound one request, runner loop included.
    """

    stamps: List[float]

    def __iter__(self) -> Iterator[TraceRecord]:
        stamps = self.stamps = []
        clock = time.perf_counter
        for record in self.records:
            stamps.append(clock())
            yield record
        stamps.append(clock())

    def latencies(self) -> List[float]:
        return [after - before for before, after in zip(self.stamps, self.stamps[1:])]


@dataclass
class Repetition:
    requests: int = 0
    failed: int = 0
    setup_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    latencies: List[float] = field(default_factory=list)
    writes: List[bool] = field(default_factory=list)
    #: Simulated-time results: the same for every repetition of a seed.
    simulated: Dict[str, float] = field(default_factory=dict)
    #: Counts of the measured replay, for the per-layer metrics.
    counts: Dict[str, float] = field(default_factory=dict)
    engine: Dict[str, float] = field(default_factory=dict)
    bytes_requested: int = 0
    mismatches: int = 0
    spans: Snapshot = field(default_factory=dict)


def _verify_cached(cache: ReoCache) -> int:
    """Objects whose cached bytes differ from what the backend says they hold."""
    bad = 0
    manager = cache.manager
    for name in list(manager.cached_names()):
        cached = manager.get_cached(name)
        payload, response = cache.initiator.read(cached.object_id)
        if not response.ok or payload != cache.backend.payload_for(name, cached.version):
            bad += 1
    return bad


def run_repetition(
    workload: SimWorkload, seed: int, requests: int, tracer: Optional[Tracer] = None
) -> Repetition:
    rep = Repetition()
    began = time.perf_counter()
    catalog, records = zipf_trace(seed, requests, workload.write_share)
    warmup_count = int(requests * SIM_WARMUP_SHARE)
    warmup, measured = split_trace(catalog, records, warmup_count)
    cache = ReoCache.build(
        policy=reo_policy(SIM_RESERVE_FRACTION),
        num_devices=SIM_DEVICES,
        cache_bytes=int(sum(catalog.values()) * SIM_CACHE_SHARE),
        chunk_size=SIM_CHUNK_BYTES,
    )
    cache.register_objects(catalog)
    ExperimentRunner(cache, warmup, recovery_share=SIM_RECOVERY_SHARE).run()
    cache.stats.reset()
    timed = TimedTrace(measured.name, measured.catalog, measured.records)
    failures = []
    if workload.fail_at is not None:
        fail_at = int(workload.fail_at * requests / workload.requests) - warmup_count
        failures.append(FailureEvent(fail_at, FAILED_DEVICE))
    runner = ExperimentRunner(
        cache, timed, failures=failures, recovery_share=SIM_RECOVERY_SHARE
    )
    engine_before = engine_counters([cache.array])
    backend_before = (cache.backend.reads, cache.backend.writes)
    rep.setup_s = time.perf_counter() - began

    if tracer is not None:
        tracer.install()
        tracer.reset()
    cpu_before, wall_before = time.process_time(), time.perf_counter()
    try:
        result = runner.run()
    except ReproError:
        rep.requests = len(measured)
        rep.failed = len(measured) - max(0, len(getattr(timed, "stamps", [])) - 1)
        return rep
    finally:
        rep.wall_s = time.perf_counter() - wall_before
        rep.cpu_s = time.process_time() - cpu_before
        if tracer is not None:
            rep.spans = tracer.snapshot()
            tracer.uninstall()

    rep.requests = len(measured)
    rep.latencies = timed.latencies()
    rep.writes = [record.is_write for record in measured.records]
    rep.bytes_requested = result.metrics.bytes_served
    rep.simulated = {
        "sim.hit_ratio_pct": result.hit_ratio_percent,
        "sim.bandwidth_mb_per_s": result.bandwidth_mb_per_sec,
        "sim.mean_latency_ms": result.mean_latency_ms,
        "sim.space_efficiency_pct": 100.0 * result.space_efficiency,
        "sim.rebuild_s": cache.recovery.seconds_spent,
    }
    stats = cache.stats
    rep.counts = {
        "cache.manager.hit_ratio": stats.hit_ratio,
        "cache.manager.evictions": stats.evictions,
        "cache.manager.flushes": stats.flushes,
        "cache.manager.reclassifications": stats.reclassifications,
        "cache.manager.admission_bypasses": stats.admission_bypasses,
        "core.recovery.objects_rebuilt": cache.recovery.objects_rebuilt,
        "core.recovery.objects_lost": cache.recovery.objects_lost,
        "core.recovery.chunks_rebuilt": cache.recovery.chunks_rebuilt,
        "backend.store.reads": cache.backend.reads - backend_before[0],
        "backend.store.writes": cache.backend.writes - backend_before[1],
    }
    rep.engine = window_delta(engine_before, engine_counters([cache.array]))
    rep.mismatches = _verify_cached(cache)
    return rep


def _repeat(
    workload: SimWorkload, seed: int, seconds: float, requests: int,
    tracer: Optional[Tracer] = None,
) -> List[Repetition]:
    reps: List[Repetition] = []
    while not reps or sum(rep.wall_s for rep in reps) < seconds:
        take_turns(len(reps), 0)
        reps.append(run_repetition(workload, seed, requests, tracer))
        if reps[-1].failed:
            break
    take_turns(0, 0)
    return reps


def _check(measurement: Measurement, reps: List[Repetition]) -> None:
    measurement.attempted += sum(rep.requests for rep in reps)
    measurement.failed += sum(rep.failed for rep in reps)
    mismatches = sum(rep.mismatches for rep in reps)
    if mismatches:
        measurement.problems.append(f"{mismatches} cached objects hold the wrong bytes")
    if any(rep.simulated != reps[0].simulated for rep in reps):
        measurement.problems.append(
            "simulated-time results differ between repetitions of one seed"
        )


def run_sim(
    workload: SimWorkload, seed: int, seconds: float, trace: bool, quick: bool
) -> Measurement:
    measurement = Measurement(workload.name)
    requests = 1000 if quick else workload.requests
    if not trace:
        reps = _repeat(workload, seed, seconds, requests)
        _check(measurement, reps)
        good = [rep for rep in reps if not rep.failed]
        if not good:
            return measurement
        measurement.metrics = {
            "ops_per_s": steady((rep.requests / rep.wall_s for rep in good), "higher"),
            "lat_p90_us": steady(
                (1e6 * percentile(rep.latencies, 0.90) for rep in good), "lower"
            ),
            "peak_rss_mb": peak_rss_mb(os.getpid()),
            "setup_s": statistics.median(rep.setup_s for rep in reps),
        }
        return measurement

    reference = _repeat(workload, seed, seconds * TRACE_REFERENCE_SHARE, requests)
    tracer = Tracer()
    traced = _repeat(
        workload, seed, seconds * (1 - TRACE_REFERENCE_SHARE), requests, tracer
    )
    _check(measurement, reference + traced)
    if measurement.failed:
        return measurement
    ops = sum(rep.requests for rep in traced)
    reference_ops = sum(rep.requests for rep in reference)
    engine: Dict[str, float] = {}
    for rep in traced:
        for key, value in rep.engine.items():
            engine[key] = engine.get(key, 0) + value
    cpu_us = 1e6 * sum(rep.cpu_s for rep in traced) / ops
    reference_cpu_us = 1e6 * sum(rep.cpu_s for rep in reference) / reference_ops
    spans = merge_snapshots(*(rep.spans for rep in traced))
    latencies = [value for rep in reference for value in rep.latencies]
    writes = [flag for rep in reference for flag in rep.writes]
    by_kind = {
        kind: [value for value, flag in zip(latencies, writes) if flag == kind]
        for kind in (False, True)
    }
    reference_rates = [rep.requests / rep.wall_s for rep in reference]
    metrics = span_metrics(
        ops, spans, None, engine, sum(rep.bytes_requested for rep in traced)
    )
    # Counts are per repetition; every repetition of a seed has the same.
    for key in PER_REPETITION_CALLS:
        metrics[key] /= len(traced)
    metrics.update(traced[0].simulated)
    metrics.update(traced[0].counts)
    metrics.update(
        {
            "sim.runner.loop_residual_us": cpu_us - plain_self_us_per_op(spans, ops),
            "run.cpu_us_per_op": reference_cpu_us,
            "loadgen.lat_p50_us": 1e6 * percentile(latencies, 0.50),
            "loadgen.lat_p99_us": 1e6 * percentile(latencies, 0.99),
            "loadgen.lat_read_p50_us": 1e6 * percentile(by_kind[False], 0.50),
            "loadgen.lat_write_p50_us": (
                1e6 * percentile(by_kind[True], 0.50) if by_kind[True] else 0.0
            ),
            "loadgen.slice_iqr_pct": spread_pct(reference_rates),
            "trace.overhead_pct": 100.0
            * (
                1.0
                - steady((rep.requests / rep.wall_s for rep in traced), "higher")
                / steady(reference_rates, "higher")
            ),
            # Whole windows on both sides, so that the two ratios compare.
            "trace.reconcile_gap_pct": 100.0
            * (
                cpu_us / reference_cpu_us
                - (sum(rep.wall_s for rep in traced) / ops)
                / (sum(rep.wall_s for rep in reference) / reference_ops)
            ),
        }
    )
    measurement.metrics = metrics
    measurement.notes = budget_table("bench process (simulator)", spans, ops, cpu_us)
    gap = metrics["trace.reconcile_gap_pct"]
    if gap > MAX_RECONCILE_GAP_PCT:
        measurement.notes.append(
            f"  WARNING: CPU per op rose {gap:.1f}% more under tracing than the fall "
            "in the rate explains"
        )
    span_file = RESULTS / f"{workload.name}-seed{seed}.bench.spans.jsonl"
    tracer.write_spans(span_file, f"bench:{workload.name} (last traced repetition)")
    measurement.notes.append(f"  spans: {RESULTS.name}/{span_file.name}")
    return measurement
