"""The benchmark's own socket load generator: one thread, closed or open loop.

Every op is verified: a write's bytes come from the :class:`PayloadOracle`
and every read is compared with what the oracle says the object holds. An
object has one op in flight at a time, so the expected version is exact.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.net.client import OsdServiceError
from repro.osd.types import FIRST_USER_OID, PARTITION_BASE, ObjectId

from inputs import PayloadOracle
from tracing import CURRENT_OP
from workloads import NET_WARMUP_SECONDS, OPEN_SLICES, SLICE_SECONDS, NetWorkload

#: Open loop: sleep to within this of the due time, then yield-spin. A plain
#: ``asyncio.sleep`` wakes up to a millisecond late.
SPIN_SECONDS = 0.002
#: Open loop validity: the generator itself must not be the bottleneck. The
#: one thread also decodes and checks the responses, so an arrival that falls
#: behind a burst of them is sent 100-220 us late at p99 on a quiet reference
#: box; the limit leaves that a factor of two. It applies slice by slice.
MAX_LATE_P99_US = 500.0
MAX_BACKLOG_SHARE = 0.01
#: A p99 needs ten samples beyond it: slices with fewer ops than this (quick
#: smoke runs) are too short to judge the generator's lateness by.
MIN_P99_SAMPLES = 1000
#: Seconds the open loop waits for ops still in flight when the window ends.
DRAIN_SECONDS = 5.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of unsorted values."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


@dataclass
class Samples:
    """What the measured window recorded, one entry per completed op."""

    #: Instant the op counts from: sent (closed loop) or due (open loop).
    starts: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    writes: List[bool] = field(default_factory=list)
    #: Open loop only: seconds between due and actually sent.
    lateness: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Why ops failed → how many did.
    failures: Dict[str, int] = field(default_factory=dict)
    payload_bytes: int = 0
    window_start: float = 0.0
    window_end: float = 0.0
    #: Equal slices the window is cut into for the per-slice figures.
    slices: int = 1
    offered: int = 0
    backlog: int = 0
    #: Open loop only: slices in which the generator itself ran late. Their
    #: latencies say more about the generator than the server, so they are
    #: left out of every per-slice figure.
    late_slices: Set[int] = field(default_factory=set)

    @property
    def seconds(self) -> float:
        return self.window_end - self.window_start

    def _slices(self) -> List[List[int]]:
        width = self.seconds / self.slices
        buckets: List[List[int]] = [[] for _ in range(self.slices)]
        for position, start in enumerate(self.starts):
            bucket = int((start - self.window_start) / width)
            buckets[min(self.slices - 1, max(0, bucket))].append(position)
        return buckets

    def usable(self, per_slice: Sequence[float]) -> List[float]:
        """The values of the slices that count (see :attr:`late_slices`)."""
        return [v for k, v in enumerate(per_slice) if k not in self.late_slices]

    def slice_counts(self) -> List[int]:
        return [len(bucket) for bucket in self._slices()]

    def slice_rates(self) -> List[float]:
        width = self.seconds / self.slices
        return self.usable([count / width for count in self.slice_counts()])

    def achieved_rate(self) -> float:
        """Ops per second from the window's start to the last completion."""
        last = max(start + latency for start, latency in zip(self.starts, self.latencies))
        return len(self.starts) / (last - self.window_start)

    def slice_percentiles(
        self,
        fraction: float,
        writes: Optional[bool] = None,
        of: Optional[List[float]] = None,
    ) -> List[float]:
        """Each usable slice's percentile, in µs (empty slices are left out).

        Of the latencies (optionally reads or writes only), or of another
        per-op series such as the lateness.
        """
        series = self.latencies if of is None else of
        per_slice = []
        for k, bucket in enumerate(self._slices()):
            chosen = [
                series[i] for i in bucket if writes is None or self.writes[i] == writes
            ]
            if chosen and k not in self.late_slices:
                per_slice.append(1e6 * percentile(chosen, fraction))
        return per_slice


class WindowHooks:
    """What the driver of a window does at its edges."""

    def open(self) -> None:
        """The measured window starts now."""

    def close(self) -> None:
        """The measured window ended."""


class LoadGenerator:
    """Drives one client (``AsyncOsdClient`` or ``RouterClient``) with a workload."""

    def __init__(self, workload: NetWorkload, seed: int, client: object) -> None:
        self.workload = workload
        self.seed = seed
        self.client = client
        self.oracle = PayloadOracle(seed, max(workload.sizes))
        self.object_ids = [
            ObjectId(PARTITION_BASE, FIRST_USER_OID + 0x100 + index)
            for index in range(workload.objects)
        ]
        self.classes = [workload.class_of(i) for i in range(workload.objects)]
        self.sizes = [workload.size_of(i) for i in range(workload.objects)]
        self.versions = [0] * workload.objects
        self.samples = Samples()
        self._recording = False
        self._ops = 0

    # ------------------------------------------------------------------
    # One verified op
    # ------------------------------------------------------------------
    async def _op(self, index: int, is_write: bool) -> Optional[str]:
        """Do one op; returns why it failed, or None when it checked out."""
        self._ops += 1
        CURRENT_OP.set(self._ops)
        object_id, size = self.object_ids[index], self.sizes[index]
        try:
            if is_write:
                version = self.versions[index] + 1
                payload = self.oracle.payload(index, version, size)
                response = await self.client.write(object_id, payload, self.classes[index])
                if not response.ok:
                    return f"write answered {response.sense.name}"
                self.versions[index] = version
                return None
            payload, response = await self.client.read(object_id)
            if not response.ok:
                return f"read answered {response.sense.name}"
            if not self.oracle.matches(payload, index, self.versions[index], size):
                return "read returned the wrong bytes"
            return None
        except OsdServiceError as error:
            return f"{'write' if is_write else 'read'} raised: {error}"

    def _record(
        self, start: float, end: float, index: int, is_write: bool, failure: Optional[str]
    ) -> None:
        samples = self.samples
        samples.attempted += 1
        if failure is not None:
            samples.failed += 1
            samples.failures[failure] = samples.failures.get(failure, 0) + 1
            return
        samples.starts.append(start)
        samples.latencies.append(end - start)
        samples.writes.append(is_write)
        samples.payload_bytes += self.sizes[index]

    async def seed_objects(self) -> None:
        """Write version 0 of every object (part of set-up, always checked)."""
        for index in range(self.workload.objects):
            payload = self.oracle.payload(index, 0, self.sizes[index])
            response = await self.client.write(
                self.object_ids[index], payload, self.classes[index]
            )
            if not response.ok:
                raise RuntimeError(f"seeding object {index} failed: {response.sense!r}")

    # ------------------------------------------------------------------
    # Closed loop
    # ------------------------------------------------------------------
    async def _closed_worker(self, worker: int, stop: asyncio.Event) -> None:
        workers = self.workload.outstanding or 1
        mine = range(worker, self.workload.objects, workers)
        rng = random.Random(f"{self.seed}/worker/{worker}")
        clock = time.perf_counter
        while not stop.is_set():
            index = mine[rng.randrange(len(mine))]
            is_write = rng.random() < self.workload.write_share
            start = clock()
            failure = await self._op(index, is_write)
            # An op counts for the slice it started in, so one that was
            # already in flight when the window opened is left out.
            if self._recording and start >= self.samples.window_start:
                self._record(start, clock(), index, is_write, failure)

    async def run_closed(self, seconds: float, hooks: WindowHooks) -> Samples:
        stop = asyncio.Event()
        workers = [
            asyncio.ensure_future(self._closed_worker(worker, stop))
            for worker in range(self.workload.outstanding or 1)
        ]
        try:
            await asyncio.sleep(NET_WARMUP_SECONDS)
            hooks.open()
            self.samples.slices = max(1, round(seconds / SLICE_SECONDS))
            self.samples.window_start = time.perf_counter()
            self._recording = True
            await asyncio.sleep(seconds)
            self._recording = False
            self.samples.window_end = time.perf_counter()
            hooks.close()
        finally:
            stop.set()
            await asyncio.gather(*workers)
        return self.samples

    # ------------------------------------------------------------------
    # Open loop
    # ------------------------------------------------------------------
    async def _open_op(self, due: float, index: int, is_write: bool) -> None:
        sent = time.perf_counter()
        failure = await self._op(index, is_write)
        end = time.perf_counter()
        if self.samples.window_start <= due < self.samples.window_end:
            self._record(due, end, index, is_write, failure)
            if failure is None:
                self.samples.lateness.append(sent - due)  # parallel to latencies

    async def run_open(self, seconds: float, hooks: WindowHooks) -> Samples:
        workload, samples = self.workload, self.samples
        assert workload.rate is not None
        rng = random.Random(f"{self.seed}/arrivals")
        clock = time.perf_counter
        # One op per object at a time keeps the oracle exact: an arrival
        # whose object is busy takes the next free one, and when the server
        # is so far behind that every object is busy it queues, like any
        # arrival of an open loop, until an op completes.
        busy: Set[int] = set()
        queued: Deque[Tuple[float, bool]] = deque()
        tasks: Set[asyncio.Task] = set()
        crashed: List[BaseException] = []

        def launch(due: float, index: int, is_write: bool) -> None:
            busy.add(index)
            task = asyncio.ensure_future(self._open_op(due, index, is_write))
            tasks.add(task)
            task.add_done_callback(lambda done: finished(done, index))

        def finished(task: asyncio.Task, index: int) -> None:
            tasks.discard(task)
            busy.discard(index)
            if not task.cancelled() and task.exception() is not None:
                crashed.append(task.exception())  # a bug, not a failed op
            elif queued and not task.cancelled():
                due, is_write = queued.popleft()
                launch(due, index, is_write)

        due = clock() + 0.01
        samples.window_start = due + NET_WARMUP_SECONDS
        samples.window_end = samples.window_start + seconds
        samples.slices = OPEN_SLICES
        opened = False
        while True:
            due += rng.expovariate(workload.rate)
            if due >= samples.window_end:
                break
            index = rng.randrange(workload.objects)
            is_write = rng.random() < workload.write_share
            while True:
                remaining = due - clock()
                if remaining <= 0:
                    break
                await asyncio.sleep(remaining - SPIN_SECONDS if remaining > SPIN_SECONDS else 0)
            if not opened and due >= samples.window_start:
                opened = True
                hooks.open()
            if due >= samples.window_start:
                samples.offered += 1
            if len(busy) == workload.objects:
                queued.append((due, is_write))
                continue
            while index in busy:
                index = (index + 1) % workload.objects
            launch(due, index, is_write)
        while clock() < samples.window_end:
            await asyncio.sleep(0)
        hooks.close()
        samples.backlog = len(tasks) + len(queued)
        queued.clear()
        if tasks:
            _done, pending = await asyncio.wait(tasks, timeout=DRAIN_SECONDS)
            for task in pending:
                task.cancel()
                self._record(0.0, 0.0, 0, False, "op still in flight after the drain")
        if crashed:
            raise crashed[0]
        return samples

    def judge_open_loop(self) -> Optional[str]:
        """Set aside the slices the generator was late in; a problem if none is left.

        Each slice is judged by its own p99 lateness, and only when it holds
        enough ops for a p99. Every figure the window reports then comes
        from the slices that passed.
        """
        samples = self.samples
        if not samples.lateness:
            return "no op completed"
        late_p99 = [
            1e6 * percentile([samples.lateness[i] for i in bucket], 0.99) if bucket else 0.0
            for bucket in samples._slices()
        ]
        if min(samples.slice_counts()) >= MIN_P99_SAMPLES:
            samples.late_slices = {
                k for k, late in enumerate(late_p99) if late > MAX_LATE_P99_US
            }
        if len(samples.late_slices) == samples.slices:
            return (
                f"generator ran late in every slice: best p99 lateness "
                f"{min(late_p99):.0f} us > {MAX_LATE_P99_US:.0f} us"
            )
        if samples.backlog > MAX_BACKLOG_SHARE * samples.offered:
            return (
                f"backlog at window end {samples.backlog} ops > "
                f"{MAX_BACKLOG_SHARE:.0%} of {samples.offered} offered"
            )
        return None
