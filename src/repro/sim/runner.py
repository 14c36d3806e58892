"""The experiment runner: replay a trace through a cache stack.

Drives a :class:`~repro.core.reo.ReoCache` with a workload trace, injecting
device failures at chosen request indices (the paper's repeatable failure
points, §VI-C) and interleaving background recovery with foreground traffic.

Time model: requests are closed-loop — the next request issues when the
previous completes, so bandwidth reflects the stack's service capability.
While recovery is active, after each foreground request the rebuild process
is granted a bounded slice of simulated time (``recovery_share`` of the
foreground request's duration), emulating the throttled background
reconstruction every real array performs; the paper's "on-demand access
first" rule is preserved because foreground requests never wait for a whole
rebuild, only for device-queue contention.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.reo import ReoCache
from repro.sim.metrics import MetricsRecorder, RunMetrics, WindowMetrics
from repro.workload.trace import Trace

__all__ = ["ExperimentRunner", "FailureEvent", "RunResult"]


@dataclass(frozen=True)
class FailureEvent:
    """Fail a device when the trace reaches a request index.

    Attributes:
        request_index: zero-based index of the request before which the
            failure fires (the paper injects at the 10,000th request etc.).
        device_id: the device to shoot down.
        insert_spare: replace the device with a fresh spare immediately
            (rebuild recovery); False leaves the slot dead.
        start_recovery: start prioritized recovery after the failure. With a
            spare this rebuilds the missing fragments; without one it
            restripes important objects across the survivors (Reo's
            "additional redundancy" behaviour). Defaults to ``insert_spare``.
    """

    request_index: int
    device_id: int
    insert_spare: bool = True
    start_recovery: "bool | None" = None

    @property
    def recovery_requested(self) -> bool:
        if self.start_recovery is None:
            return self.insert_spare
        return self.start_recovery


@dataclass
class RunResult:
    """Everything one run produced."""

    trace_name: str
    policy_name: str
    metrics: RunMetrics
    windows: List[WindowMetrics]
    space_efficiency: float
    #: Snapshot of cache-manager counters at the end of the run.
    stats: Dict[str, int]
    recorder: MetricsRecorder = field(repr=False, default=None)

    @property
    def hit_ratio_percent(self) -> float:
        return self.metrics.hit_ratio_percent

    @property
    def bandwidth_mb_per_sec(self) -> float:
        return self.metrics.bandwidth_mb_per_sec

    @property
    def mean_latency_ms(self) -> float:
        return self.metrics.mean_latency_ms


class ExperimentRunner:
    """Replays a trace through a cache, with failure injection."""

    def __init__(
        self,
        cache: ReoCache,
        trace: Trace,
        failures: Sequence[FailureEvent] = (),
        recovery_share: float = 0.3,
        warmup_fraction: float = 0.0,
        prewarm: bool = False,
        concurrency: int = 1,
    ) -> None:
        """
        Args:
            cache: the assembled stack (objects are registered here).
            trace: the workload to replay.
            failures: failure events by request index.
            recovery_share: fraction of wall time granted to background
                rebuilds while recovery is active (0 disables interleaving;
                recovery then only proceeds via explicit draining).
            warmup_fraction: leading fraction of the trace excluded from the
                recorded metrics (the cache state they build persists).
            prewarm: additionally read every catalog object once, unrecorded,
                before the measured run ("we first fully warm up the cache",
                §VI-C). Objects are inserted hottest-last so LRU retains the
                popular tail when the cache is smaller than the data set.
            concurrency: closed-loop client count. Each client issues its
                next request when its previous one completes; overlapping
                requests contend through the device and backend queues, so
                bandwidth rises with clients until the stack saturates.
        """
        if not 0.0 <= recovery_share < 1.0:
            raise ValueError("recovery share must be in [0, 1)")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup fraction must be in [0, 1)")
        if concurrency < 1:
            raise ValueError("concurrency must be at least 1")
        self.cache = cache
        self.trace = trace
        self.failures = sorted(failures, key=lambda event: event.request_index)
        self.recovery_share = recovery_share
        self.warmup_fraction = warmup_fraction
        self.prewarm = prewarm
        self.concurrency = concurrency
        self.recorder = MetricsRecorder()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Replay the whole trace and return the aggregated result."""
        cache = self.cache
        clock = cache.clock
        for name, size in self.trace.catalog.items():
            if name not in cache.backend:
                cache.backend.register(name, size)
        if self.prewarm:
            self._prewarm()
        warmup_cutoff = int(len(self.trace) * self.warmup_fraction)
        # self.failures is sorted by request index; an advancing cursor
        # replaces the old pop(0) loop (O(n^2) on many events).
        failure_cursor = 0
        failure_count = len(self.failures)
        # Closed loop with N clients: a min-heap of client free times. Each
        # request is issued by the earliest-free client; the clock jumps to
        # the issue time, so overlapping requests contend through the
        # device/backend busy_until queues.
        client_free = [clock.now] * self.concurrency
        heapq.heapify(client_free)
        supervisor = cache.supervisor
        for index, record in enumerate(self.trace):
            while (
                failure_cursor < failure_count
                and self.failures[failure_cursor].request_index <= index
            ):
                self._inject(self.failures[failure_cursor])
                failure_cursor += 1
            if index == warmup_cutoff and warmup_cutoff > 0:
                cache.stats.reset()
                self.recorder.reset()
            if supervisor is not None:
                # Fire due injected faults and let the monitor observe state
                # changes before the request is issued, so detection latency
                # is bounded by the request interarrival, not by luck.
                supervisor.poll(clock.now)
            issue_time = heapq.heappop(client_free)
            clock.advance_to(issue_time)
            if record.is_write:
                result = cache.write(record.name)
            else:
                result = cache.read(record.name)
            self.recorder.record(
                timestamp=clock.now,
                latency=result.latency,
                num_bytes=result.num_bytes,
                hit=result.hit,
                is_write=result.is_write,
            )
            completion = clock.now + result.latency
            heapq.heappush(client_free, completion)
            if self.concurrency == 1:
                clock.advance_to(completion)
            if self.recovery_share > 0:
                slice_seconds = result.latency * self.recovery_share / (
                    1.0 - self.recovery_share
                )
                if supervisor is not None:
                    # The supervisor spends the slice on reconstruction
                    # first, then on prioritized scrubbing.
                    if supervisor.has_background_work:
                        supervisor.run_until(clock.now + slice_seconds)
                elif cache.recovery.active:
                    cache.recovery.run_until(clock.now + slice_seconds)
        # Drain: the run ends when the last client finishes.
        if client_free:
            clock.advance_to(max(client_free))
        return self._result()

    def _prewarm(self) -> None:
        """Read every object once, least-popular first, without recording."""
        # Popularity is memoized on the trace (and may come precomputed from
        # the generator), so prewarming never re-scans the request stream.
        popularity = self.trace.popularity()
        ordering = sorted(self.trace.catalog, key=lambda name: popularity.get(name, 0))
        for name in ordering:
            result = self.cache.read(name)
            self.cache.clock.advance(result.latency)
        self.cache.stats.reset()
        self.recorder.reset()

    def _inject(self, event: FailureEvent) -> None:
        self.recorder.mark(f"fail-{event.device_id}")
        self.cache.fail_device(event.device_id)
        if event.insert_spare:
            self.cache.replace_device(event.device_id)
        if event.recovery_requested:
            self.cache.recovery.start()

    def _result(self) -> RunResult:
        stats = self.cache.stats
        return RunResult(
            trace_name=self.trace.name,
            policy_name=self.cache.policy.name,
            metrics=self.recorder.summarize(),
            windows=self.recorder.windows(),
            space_efficiency=self.cache.space_efficiency,
            stats={
                name: getattr(stats, name)
                for name in stats.__dataclass_fields__
            },
            recorder=self.recorder,
        )
