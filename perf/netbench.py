"""The served workloads: a server child, and the load generator in this process.

Set-up is everything from launching the child to the last seeded object:
child boot, connect, seeding. It is done :data:`SETUPS_PER_RUN` times per
run — the earlier children are stopped again straight away — and ``setup_s``
is the median.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.map import ClusterMap
from repro.cluster.router import RouterClient
from repro.net.client import AsyncOsdClient
from repro.osd.types import PARTITION_BASE

from layers import (
    Snapshot,
    budget_table,
    plain_self_us_per_op,
    span_metrics,
    spread_pct,
)
from loadgen import LoadGenerator, Samples, WindowHooks, percentile
from measurement import MAX_RECONCILE_GAP_PCT, Measurement, steady
from procs import BENCH_CPU, OTHER_CPU, RESULTS, ServerChild, take_turns
from tracing import Tracer
from workloads import (
    CONNECTIONS,
    SETUPS_PER_RUN,
    TRACE_REFERENCE_SHARE,
    NetWorkload,
)

ROUTER_COUNTERS = (
    "redirects",
    "degraded_reads",
    "mirror_failovers",
    "breaker_fastfails",
    "hedged_reads",
)
#: Per-attempt client timeout: generous, a timeout is a failed op anyway.
CLIENT_TIMEOUT = 5.0
#: Seconds a closed-loop pair stays on one CPU before it moves to the other.
TURN_SECONDS = 1.0


@dataclass
class Window:
    """One measured window of a served workload and what was read around it."""

    samples: Samples
    setup_s: float
    #: CPU seconds of each process within the window.
    bench_cpu_s: float
    server_cpu_s: float
    server_peak_rss_mb: float
    client_stats: Dict[str, float]
    #: The public ``service_stats()`` read after the window; cumulative.
    server_stats: Dict[str, Any]
    router_stats: Dict[str, float]
    #: What the child printed for the window: counter deltas and spans.
    report: Dict[str, Any]
    local_spans: Snapshot
    problem: Optional[str]

    @property
    def ops(self) -> int:
        return len(self.samples.latencies)

    @property
    def seconds(self) -> float:
        return self.samples.seconds

    @property
    def cpu_us_per_op(self) -> float:
        """CPU of both processes per op over the whole window."""
        return 1e6 * (self.server_cpu_s + self.bench_cpu_s) / self.ops


def _server_cpu(workload: NetWorkload) -> int:
    return OTHER_CPU if workload.rate is not None else BENCH_CPU


def _make_client(workload: NetWorkload, endpoint: Dict[str, Any]) -> Any:
    if workload.topology == "cluster":
        return RouterClient(ClusterMap.from_dict(endpoint["map"]), timeout=CLIENT_TIMEOUT)
    return AsyncOsdClient(
        "127.0.0.1",
        int(endpoint["port"]),
        pool_size=CONNECTIONS,
        timeout=CLIENT_TIMEOUT,
    )


async def _server_stats(workload: NetWorkload, client: Any) -> Dict[str, Any]:
    if workload.topology == "cluster":
        return await client.service_stats_all()
    return await client.service_stats()


async def _set_up(workload: NetWorkload, seed: int, child: ServerChild) -> LoadGenerator:
    client = _make_client(workload, child.endpoint)
    generator = LoadGenerator(workload, seed, client)
    await client.connect()
    if workload.topology == "cluster":
        await client.create_partition(PARTITION_BASE)
    await generator.seed_objects()
    return generator


async def _share_cpus(child: ServerChild) -> None:
    """Move this process and the child between the CPUs, together, until cancelled."""
    turn = 0
    while True:
        await asyncio.sleep(TURN_SECONDS)
        turn += 1
        take_turns(turn, 0, child.pid)


class _Hooks(WindowHooks):
    """Marks the window in the child and reads both processes' CPU clocks."""

    def __init__(self, child: ServerChild, tracer: Optional[Tracer]) -> None:
        self.child = child
        self.tracer = tracer
        #: CPU seconds of each process at the window's start, then within it.
        self.bench_cpu_s = 0.0
        self.server_cpu_s = 0.0
        self.local_spans: Snapshot = {}

    def open(self) -> None:
        self.child.mark_window_start()
        if self.tracer is not None:
            self.tracer.reset()
        self.server_cpu_s = self.child.cpu_seconds()
        self.bench_cpu_s = time.process_time()

    def close(self) -> None:
        self.server_cpu_s = self.child.cpu_seconds() - self.server_cpu_s
        self.bench_cpu_s = time.process_time() - self.bench_cpu_s
        self.child.mark_window_end()
        if self.tracer is not None:
            self.local_spans = self.tracer.snapshot()
            self.tracer.uninstall()


async def _drive(
    workload: NetWorkload,
    seed: int,
    seconds: float,
    child: ServerChild,
    began: float,
    tracer: Optional[Tracer],
) -> Window:
    generator = await _set_up(workload, seed, child)
    client = generator.client
    setup_s = time.perf_counter() - began
    hooks = _Hooks(child, tracer)
    try:
        if tracer is not None:
            tracer.install()
        if workload.rate is None:
            sharing = asyncio.ensure_future(_share_cpus(child))
            try:
                samples = await generator.run_closed(seconds, hooks)
            finally:
                sharing.cancel()
                take_turns(0, 0)
        else:
            samples = await generator.run_open(seconds, hooks)
        after = await _server_stats(workload, client)
        stats = client.stats
        router = getattr(client, "router_stats", None)
        return Window(
            samples=samples,
            setup_s=setup_s,
            bench_cpu_s=hooks.bench_cpu_s,
            server_cpu_s=hooks.server_cpu_s,
            server_peak_rss_mb=child.peak_rss_mb(),
            client_stats={
                "retries": stats.retries,
                "timeouts": stats.timeouts,
                "busy_replies": stats.busy_replies,
            },
            server_stats=after,
            router_stats=dict(vars(router)) if router is not None else {},
            report={},
            local_spans=hooks.local_spans,
            problem=generator.judge_open_loop() if workload.rate is not None else None,
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
        await client.aclose()


def _rehearse_setup(workload: NetWorkload, seed: int) -> float:
    """One whole set-up whose server is stopped again; returns its seconds."""

    async def rehearse(child: ServerChild) -> None:
        generator = await _set_up(workload, seed, child)
        await generator.client.aclose()

    began = time.perf_counter()
    with ServerChild(workload.name, _server_cpu(workload)) as child:
        asyncio.run(rehearse(child))
        elapsed = time.perf_counter() - began
        child.stop()
    return elapsed


def _measure_window(
    workload: NetWorkload, seed: int, seconds: float, trace_tag: Optional[str]
) -> Window:
    trace_out = None
    tracer = None
    if trace_tag is not None:
        RESULTS.mkdir(exist_ok=True)
        trace_out = RESULTS / f"{trace_tag}.server.spans.jsonl"
        tracer = Tracer()
    began = time.perf_counter()
    with ServerChild(workload.name, _server_cpu(workload), trace_out) as child:
        window = asyncio.run(_drive(workload, seed, seconds, child, began, tracer))
        window.report = child.stop()
    if tracer is not None and trace_tag is not None:
        tracer.write_spans(RESULTS / f"{trace_tag}.bench.spans.jsonl", f"bench:{workload.name}")
    return window


def _check(measurement: Measurement, window: Window) -> None:
    measurement.attempted += window.samples.attempted
    measurement.failed += window.samples.failed
    if window.problem is not None:
        measurement.problems.append(window.problem)
    for failure, count in sorted(window.samples.failures.items()):
        measurement.problems.append(f"{count} x {failure}")


def run_net(
    workload: NetWorkload, seed: int, seconds: float, trace: bool
) -> Measurement:
    measurement = Measurement(workload.name)
    if not trace:
        setups = [_rehearse_setup(workload, seed) for _ in range(SETUPS_PER_RUN - 1)]
        window = _measure_window(workload, seed, seconds, None)
        _check(measurement, window)
        if not measurement.correct:
            return measurement
        samples = window.samples
        measurement.metrics = {
            # Open loop: the rate achieved (the offered rate while the server
            # keeps up). Closed loop: taken per slice, like every timing.
            "ops_per_s": samples.achieved_rate()
            if workload.rate is not None
            else steady(samples.slice_rates(), "higher"),
            "lat_p90_us": steady(samples.slice_percentiles(0.90), "lower"),
            "peak_rss_mb": window.server_peak_rss_mb,
            "setup_s": statistics.median(setups + [window.setup_s]),
        }
        return measurement

    tag = f"{workload.name}-seed{seed}"
    reference = _measure_window(workload, seed, seconds * TRACE_REFERENCE_SHARE, None)
    _check(measurement, reference)
    traced = _measure_window(workload, seed, seconds * (1 - TRACE_REFERENCE_SHARE), tag)
    _check(measurement, traced)
    if measurement.failed or not traced.ops or not reference.ops:
        return measurement
    measurement.metrics, measurement.notes = _layer_metrics(workload, reference, traced)
    gap = measurement.metrics["trace.reconcile_gap_pct"]
    # The open loop's rate is fixed, so there tracing shows as CPU only.
    if workload.rate is None and gap > MAX_RECONCILE_GAP_PCT:
        measurement.notes.append(
            f"  WARNING: CPU per op rose {gap:.1f}% more under tracing than the fall "
            "in the rate explains"
        )
    measurement.notes.append(f"  spans: {RESULTS.name}/{tag}.{{server,bench}}.spans.jsonl")
    return measurement


def _layer_metrics(
    workload: NetWorkload, reference: Window, traced: Window
) -> Tuple[Dict[str, float], List[str]]:
    """Span and counter figures from the traced window, the rest from the untraced."""
    ops = traced.ops
    counters: Dict[str, float] = traced.report["counters"]
    remote: Snapshot = traced.report["spans"]
    local = traced.local_spans
    traced_server_us = 1e6 * traced.server_cpu_s / ops
    traced_bench_us = 1e6 * traced.bench_cpu_s / ops
    metrics = span_metrics(ops, local, remote, counters, traced.samples.payload_bytes)
    samples = reference.samples
    latency = traced.server_stats.get("latency", {})
    shard_commands = [
        value for key, value in counters.items() if key.startswith("shard_commands_")
    ]
    reference_rate = steady(samples.slice_rates(), "higher")
    metrics.update(
        {
            "net.client.loop_residual_us": traced_bench_us - plain_self_us_per_op(local, ops),
            "net.client.retries": traced.client_stats["retries"],
            "net.client.timeouts": traced.client_stats["timeouts"],
            "net.client.busy_replies": traced.client_stats["busy_replies"],
            "net.flush.frames_per_flush": counters["commands"] / max(1.0, counters["flushes"]),
            "net.server.commands": counters["commands"],
            "net.server.busy_rejections": counters["busy_rejections"],
            "net.server.wire_errors": counters["wire_errors"],
            "net.server.max_in_flight": float(traced.server_stats.get("max_in_flight", 0)),
            "net.server.service_p50_us": 1e3 * float(latency.get("p50_ms", 0.0)),
            "net.server.service_p99_us": 1e3 * float(latency.get("p99_ms", 0.0)),
            "net.server.cpu_us_per_op": 1e6 * reference.server_cpu_s / reference.ops,
            "net.server.loop_residual_us": traced_server_us
            - plain_self_us_per_op(remote, ops),
            "osd.target.sense_errors": counters["sense_errors"],
            "cluster.service.shard_cmds_max_over_mean": (
                max(shard_commands) / statistics.mean(shard_commands)
                if workload.topology == "cluster" and sum(shard_commands)
                else 0.0
            ),
            "run.cpu_us_per_op": reference.cpu_us_per_op,
            "loadgen.lat_p50_us": steady(samples.slice_percentiles(0.50), "lower"),
            "loadgen.lat_p99_us": 1e6 * percentile(samples.latencies, 0.99),
            "loadgen.lat_read_p50_us": steady(
                samples.slice_percentiles(0.50, writes=False), "lower"
            ),
            "loadgen.lat_write_p50_us": steady(
                samples.slice_percentiles(0.50, writes=True), "lower"
            ),
            "loadgen.slice_iqr_pct": spread_pct(samples.slice_rates()),
            "loadgen.late_p99_us": steady(
                samples.slice_percentiles(0.99, of=samples.lateness), "lower"
            )
            if samples.lateness
            else 0.0,
            "loadgen.late_slices": float(len(samples.late_slices)),
            "loadgen.achieved_over_offered": (
                reference.ops / samples.offered if samples.offered else 0.0
            ),
            "trace.overhead_pct": 100.0
            * (1.0 - steady(traced.samples.slice_rates(), "higher") / reference_rate),
            # Whole windows on both sides, so that the two ratios compare.
            "trace.reconcile_gap_pct": 100.0
            * (
                traced.cpu_us_per_op / reference.cpu_us_per_op
                - (reference.ops / reference.seconds) / (ops / traced.seconds)
            ),
        }
    )
    for key in ROUTER_COUNTERS:
        metrics[f"cluster.router.{key}"] = float(traced.router_stats.get(key, 0))
    notes = budget_table("server child", remote, ops, traced_server_us)
    notes += budget_table(
        "bench process (client + load generator)", local, ops, traced_bench_us
    )
    return metrics, notes
