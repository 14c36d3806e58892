"""Supervised auto-recovery: detect → spare → rebuild → scrub, plus the books.

The :class:`RecoverySupervisor` closes the loop the rest of the stack leaves
open. The health monitor only *decides* that a device is sick; the recovery
manager only rebuilds once *somebody* fails and replaces the device. The
supervisor is that somebody: it subscribes to health transitions, shoots
down devices the monitor condemns, swaps in spares while any remain, starts
class-ordered reconstruction, and keeps a periodic, class-prioritized scrub
running in the idle gaps — all on the simulated clock, so campaigns replay
byte-identically under a fixed seed.

Every durability-relevant event lands in the :class:`DurabilityLedger` the
cache's :class:`~repro.core.recovery.RecoveryManager` owns (it books rebuilds
and purges itself; the supervisor adds incidents and scrub passes):
per-incident detection/swap/recovery timestamps (hence detection latency and
time-to-full-redundancy), reduced-redundancy windows, bytes repaired, and
data loss broken down by object class. ``to_dict()`` is deterministic and
JSON-ready — it is the artefact the fault-campaign experiment publishes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from repro.core.health import HealthMonitor, HealthTransition

if TYPE_CHECKING:  # pragma: no cover - imports only for annotations
    from repro.core.reo import ReoCache
    from repro.flash.array import ArrayIoResult, ScrubReport

__all__ = ["DeviceIncident", "DurabilityLedger", "RecoverySupervisor", "ScrubScheduler"]


@dataclass
class DeviceIncident:
    """One device's journey from first symptom to restored redundancy."""

    device_id: int
    generation: int
    #: What first condemned the device ("error_ewma=...", "fail-stop observed").
    reason: str = ""
    suspected_at: Optional[float] = None
    failed_at: Optional[float] = None
    swapped_at: Optional[float] = None
    recovered_at: Optional[float] = None

    @property
    def detected_at(self) -> Optional[float]:
        """First moment the monitor reacted (suspect or outright failed)."""
        if self.suspected_at is None:
            return self.failed_at
        return self.suspected_at

    def time_to_full_redundancy(self) -> Optional[float]:
        if self.recovered_at is None or self.detected_at is None:
            return None
        return self.recovered_at - self.detected_at

    def to_dict(self) -> Dict[str, object]:
        return {
            "device_id": self.device_id,
            "generation": self.generation,
            "reason": self.reason,
            "suspected_at": _round(self.suspected_at),
            "failed_at": _round(self.failed_at),
            "swapped_at": _round(self.swapped_at),
            "recovered_at": _round(self.recovered_at),
            "time_to_full_redundancy": _round(self.time_to_full_redundancy()),
        }


def _round(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(value, 9)


class DurabilityLedger:
    """The durability books: what was at risk, for how long, what was lost."""

    def __init__(self) -> None:
        self.incidents: List[DeviceIncident] = []
        self._open: Dict[tuple, DeviceIncident] = {}
        #: Closed [start, end] spans with less than full redundancy, plus the
        #: start of the still-open span (if any).
        self.reduced_redundancy_windows: List[List[float]] = []
        self._degraded_since: Optional[float] = None
        self.objects_rebuilt = 0
        self.bytes_repaired = 0
        self.lost_by_class: Dict[int, int] = {}
        self.scrub_passes = 0
        self.objects_scrubbed = 0
        self.chunks_scrubbed = 0
        self.chunks_repaired_by_scrub = 0

    # ------------------------------------------------------------------
    # Incident lifecycle
    # ------------------------------------------------------------------
    def incident_for(self, device_id: int, generation: int) -> DeviceIncident:
        key = (device_id, generation)
        incident = self._open.get(key)
        if incident is None:
            incident = DeviceIncident(device_id=device_id, generation=generation)
            self._open[key] = incident
            self.incidents.append(incident)
        return incident

    def close_incident(self, device_id: int, generation: int, now: float) -> None:
        """One device's incident ends at ``now``, its redundancy restored."""
        incident = self._open.pop((device_id, generation), None)
        if incident is not None and incident.recovered_at is None:
            incident.recovered_at = now

    def mark_recovered(self, now: float) -> None:
        """Redundancy is fully restored: close every open incident."""
        for incident in self._open.values():
            if incident.recovered_at is None:
                incident.recovered_at = now
        self._open.clear()
        self.end_degraded(now)

    def begin_degraded(self, now: float) -> None:
        if self._degraded_since is None:
            self._degraded_since = now

    def end_degraded(self, now: float) -> None:
        if self._degraded_since is not None:
            self.reduced_redundancy_windows.append([self._degraded_since, now])
            self._degraded_since = None

    @property
    def reduced_redundancy_seconds(self) -> float:
        return sum(end - start for start, end in self.reduced_redundancy_windows)

    # ------------------------------------------------------------------
    # Repair accounting (booked by the recovery manager and the scrubber)
    # ------------------------------------------------------------------
    def record_rebuilt(self, result: "ArrayIoResult") -> None:
        self.objects_rebuilt += 1
        self.bytes_repaired += result.bytes_written

    def record_lost(self, class_id: int) -> None:
        self.lost_by_class[class_id] = self.lost_by_class.get(class_id, 0) + 1

    def record_rehomed(self, nbytes: int) -> None:
        """A shard evacuation/reconstruction moved one object's bytes.

        Re-homing is rebuild work at cluster granularity, so it lands in
        the same counters the device-level recovery manager uses.
        """
        self.objects_rebuilt += 1
        self.bytes_repaired += nbytes

    def record_scrub(self, report: "ScrubReport") -> None:
        self.objects_scrubbed += report.objects_checked
        self.chunks_scrubbed += report.chunks_checked
        self.chunks_repaired_by_scrub += report.chunks_repaired
        self.bytes_repaired += report.io.bytes_written

    @property
    def objects_lost(self) -> int:
        return sum(self.lost_by_class.values())

    def detection_latency(self, occurred_at: float, device_id: int) -> Optional[float]:
        """Delay between a known fault-injection time and detection."""
        for incident in self.incidents:
            if incident.device_id == device_id and incident.detected_at is not None:
                if incident.detected_at >= occurred_at:
                    return incident.detected_at - occurred_at
        return None

    def to_dict(self) -> Dict[str, object]:
        """Deterministic, JSON-ready snapshot (identical per seed)."""
        return {
            "incidents": [incident.to_dict() for incident in self.incidents],
            "objects_rebuilt": self.objects_rebuilt,
            "objects_lost": self.objects_lost,
            "lost_by_class": {
                str(class_id): count
                for class_id, count in sorted(self.lost_by_class.items())
            },
            "bytes_repaired": self.bytes_repaired,
            "scrub_passes": self.scrub_passes,
            "objects_scrubbed": self.objects_scrubbed,
            "chunks_scrubbed": self.chunks_scrubbed,
            "chunks_repaired_by_scrub": self.chunks_repaired_by_scrub,
            "reduced_redundancy_windows": [
                [_round(start), _round(end)]
                for start, end in self.reduced_redundancy_windows
            ],
            "reduced_redundancy_seconds": _round(self.reduced_redundancy_seconds),
        }


class ScrubScheduler:
    """Class-prioritized periodic scrubbing that runs in idle gaps.

    Two work sources, in strict priority order:

    1. **Targeted** — objects owning chunks that already failed a read check
       (:meth:`FlashArray.corrupt_object_keys`). Damage reads have found is
       repaired at the next idle moment, not at the next sweep.
    2. **Periodic sweep** — every ``interval`` simulated seconds, the whole
       object table is queued in class order (metadata first, cold clean
       last), mirroring differentiated recovery: the blast radius of *yet
       undetected* bit-rot shrinks fastest for the classes whose loss hurts
       most.

    One object is scrubbed per step so the scheduler can stop at any
    deadline; the clock advances by each step's simulated I/O time.
    """

    def __init__(self, cache: "ReoCache", interval: float) -> None:
        if interval <= 0:
            raise ValueError("scrub interval must be positive")
        self.array = cache.array
        self.target = cache.target
        self.recovery = cache.recovery
        self.interval = interval
        self._sweep_queue: Deque[object] = deque()
        self._sweep_open = False
        self._next_sweep_at = self.array.clock.now + interval

    @property
    def has_work(self) -> bool:
        return bool(
            self._sweep_queue
            or self.array.corrupt_object_keys()
            or self.array.clock.now >= self._next_sweep_at
        )

    def run_until(self, deadline: float) -> int:
        """Scrub one object at a time until the clock reaches ``deadline``."""
        clock = self.array.clock
        steps = 0
        while clock.now < deadline:
            key = self._next_key(clock.now)
            if key is None:
                break
            report = self.array.scrub([key])
            clock.advance(report.io.elapsed)
            self._account(report)
            steps += 1
        return steps

    def force_sweep(self) -> int:
        """Queue and drain a full sweep immediately (campaign wind-down)."""
        self._next_sweep_at = self.array.clock.now
        return self.run_until(float("inf"))

    def _next_key(self, now: float):
        targeted = self.array.corrupt_object_keys()
        if targeted:
            return targeted[0]
        if not self._sweep_queue:
            if self._sweep_open:
                # The queued sweep just drained: one pass is complete.
                self._sweep_open = False
                self._next_sweep_at = now + self.interval
                self.recovery.ledger.scrub_passes += 1
            if now >= self._next_sweep_at:
                self._queue_sweep()
        if self._sweep_queue:
            return self._sweep_queue.popleft()
        return None

    def _queue_sweep(self) -> None:
        ordered = sorted(
            self.target.user_objects(),
            key=lambda info: (info.class_id, info.object_id),
        )
        self._sweep_queue = deque(
            info.object_id for info in ordered if info.object_id in self.array
        )
        self._sweep_open = bool(self._sweep_queue)

    def _account(self, report: "ScrubReport") -> None:
        self.recovery.ledger.record_scrub(report)
        for key in report.unrecoverable_objects:
            self.recovery.purge(key)


class RecoverySupervisor:
    """Owns the closed loop: detection verdicts become repair actions.

    Wiring (all on one simulated clock):

    - subscribes to the :class:`HealthMonitor`'s transition stream;
    - a FAILED verdict shoots the device down (if the monitor condemned a
      still-serving fail-slow device), swaps in a spare while any remain,
      and starts class-ordered reconstruction;
    - :meth:`poll` fires due injected fail-stops and lets the monitor
      observe them, so every failure shape enters through one path;
    - :meth:`run_until` spends the idle gap between foreground requests on
      reconstruction first, then on prioritized scrubbing;
    - every step is booked in the recovery manager's
      :class:`DurabilityLedger`, which :attr:`ledger` names.
    """

    def __init__(
        self,
        cache: "ReoCache",
        monitor: HealthMonitor,
        injector: "object | None",
        spares: int,
        scrub_interval: float,
    ) -> None:
        self.array = cache.array
        self.recovery = cache.recovery
        self.monitor = monitor
        self.injector = injector
        self.spares_remaining = spares
        self.ledger = cache.recovery.ledger
        self.scrubber = ScrubScheduler(cache, scrub_interval)
        self._recovering = False
        self.monitor.listeners.append(self._on_transition)

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def poll(self, now: float) -> None:
        """Between-requests heartbeat: fire due faults, observe, react."""
        if self.injector is not None:
            self.injector.poll(now)
        self.monitor.poll(now)
        self._check_recovery_done(now)

    def _on_transition(self, transition: HealthTransition) -> None:
        device = self.array.devices[transition.device_id]
        incident = self.ledger.incident_for(device.device_id, device.generation)
        if not incident.reason:
            incident.reason = transition.reason
        if transition.new == "suspect":
            incident.suspected_at = transition.at
            return
        if transition.new == "online":
            # Scrub repaired the damage it was demoted for: the incident
            # ends without a failure.
            self.ledger.close_incident(device.device_id, device.generation, transition.at)
            return
        incident.failed_at = transition.at
        self.ledger.begin_degraded(transition.at)
        if device.is_available:
            # Monitor verdict on a still-serving (fail-slow / error-prone)
            # device: shoot it down so reads stop trusting it.
            self.array.fail_device(device.device_id)
        if self.spares_remaining > 0:
            self.spares_remaining -= 1
            self.array.replace_device(device.device_id)
            incident.swapped_at = transition.at
        plan = self.recovery.start()
        self._recovering = self.recovery.active
        if not self._recovering and not plan.lost:
            # Nothing was resident on the device: redundancy never dipped.
            self.ledger.mark_recovered(transition.at)

    # ------------------------------------------------------------------
    # Background work
    # ------------------------------------------------------------------
    @property
    def has_background_work(self) -> bool:
        return self.recovery.active or self.scrubber.has_work

    def run_until(self, deadline: float) -> None:
        """Spend idle time until ``deadline``: reconstruction, then scrub."""
        clock = self.array.clock
        self.poll(clock.now)
        if self.recovery.active:
            self.recovery.run_until(deadline)
            self._check_recovery_done(clock.now)
        if clock.now < deadline:
            self.scrubber.run_until(deadline)

    def drain(self) -> None:
        """Finish all outstanding repair work (campaign wind-down)."""
        clock = self.array.clock
        self.poll(clock.now)
        while self.recovery.active:
            self.recovery.run_to_completion()
            self._check_recovery_done(clock.now)
            self.poll(clock.now)
        self.scrubber.force_sweep()
        self._check_recovery_done(clock.now)

    def _check_recovery_done(self, now: float) -> None:
        if self._recovering and not self.recovery.active:
            self._recovering = False
            self.ledger.mark_recovered(now)

    def __repr__(self) -> str:
        return (
            f"RecoverySupervisor(spares={self.spares_remaining}, "
            f"recovering={self.recovery.active}, "
            f"incidents={len(self.ledger.incidents)})"
        )
