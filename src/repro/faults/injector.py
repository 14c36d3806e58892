"""The fault injector: executes a :class:`FaultPlan` against a flash array.

The injector is attached to a :class:`~repro.flash.array.FlashArray` and
hooks the per-device I/O paths (:meth:`FlashDevice.read_chunk` /
``write_chunk`` call back into it) plus the simulated clock for time-driven
events. Determinism contract: every random decision comes from the
:func:`~repro.faults.plan.stream` keyed
``"{plan.seed}:{event_index}:{device_id}:{extra}"``. Because the simulation
is synchronous, per-device operation order is deterministic, and therefore
so is every injected fault.

Device-scoped events (fail-slow) are stamped with the target device's
*generation* at attach time: once a spare is swapped into the slot, the
stamp no longer matches and the fault stops applying — a replacement device
is a different physical device.

The shard-grain network vocabulary has its own executor
(:class:`repro.faults.netplan.ShardChaos`); this injector drives the
simulated array only.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import TransientIoError
from repro.faults.plan import (
    FailSlow,
    FailStop,
    FaultPlan,
    LatentErrors,
    TornWrite,
    TransientReadError,
    stream,
)

if TYPE_CHECKING:  # pragma: no cover - imports only for annotations
    from repro.flash.array import FlashArray
    from repro.flash.device import ChunkAddress, FlashDevice

__all__ = ["FaultInjector"]


class FaultInjector:
    """Deterministically applies a fault plan to an attached array."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.array: "Optional[FlashArray]" = None
        #: Plan indices of FailStop events already fired.
        self._fired_stops: set = set()
        #: (event index, device id) -> Random stream.
        self._streams: Dict[Tuple[int, int], random.Random] = {}
        #: Device generation stamped per device-scoped event at attach time.
        self._generation_stamp: Dict[int, int] = {}
        #: Remaining LatentErrors budget per event index (None = unbounded).
        self._latent_budget: Dict[int, Optional[int]] = {
            index: event.max_events
            for index, event in plan.of_type(LatentErrors)
        }
        # Injection counters, for ledgers and tests.
        self.injected_corruptions = 0
        self.injected_transients = 0
        self.injected_torn_writes = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, array: "FlashArray") -> "FaultInjector":
        """Hook every device of ``array`` and start the plan's clock."""
        self.array = array
        for device in array.devices:
            device.fault_injector = self
        for _, event in self.plan.of_type(FailSlow):
            self._generation_stamp.setdefault(
                event.device, array.devices[event.device].generation
            )
        return self

    def detach(self) -> None:
        """Unhook all devices; pending time events never fire."""
        if self.array is not None:
            for device in self.array.devices:
                if device.fault_injector is self:
                    device.fault_injector = None
        self.array = None

    def extend(self, *events) -> FaultPlan:
        """Adopt an extended plan mid-run.

        Appending preserves the indices (hence the random streams, fired
        flags, and budgets) of every existing event — a campaign can measure
        its first phase, then schedule new faults anchored to the observed
        clock without disturbing in-flight injection state.
        """
        self.plan = self.plan.extended(*events)
        for index, event in self.plan.of_type(LatentErrors):
            self._latent_budget.setdefault(index, event.max_events)
        if self.array is not None:
            for _, event in self.plan.of_type(FailSlow):
                self._generation_stamp.setdefault(
                    event.device, self.array.devices[event.device].generation
                )
        return self.plan

    # ------------------------------------------------------------------
    # Time-driven events
    # ------------------------------------------------------------------
    def poll(self, now: Optional[float] = None) -> List[FailStop]:
        """Fire every due :class:`FailStop`; returns the events fired now.

        Called from the device hooks on every operation and from the
        supervisor between requests, so a scheduled shootdown lands at the
        first opportunity after its time arrives.
        """
        if self.array is None:
            return []
        if now is None:
            now = self.array.clock.now
        fired: List[FailStop] = []
        for index, event in self.plan.of_type(FailStop):
            if index in self._fired_stops or event.at_time > now:
                continue
            self._fired_stops.add(index)
            device = self.array.devices[event.device]
            if device.is_available:
                self.array.fail_device(event.device)
            fired.append(event)
        return fired

    @property
    def pending_fail_stops(self) -> List[FailStop]:
        """Scheduled shootdowns that have not fired yet."""
        return [
            event
            for index, event in self.plan.of_type(FailStop)
            if index not in self._fired_stops
        ]

    # ------------------------------------------------------------------
    # Device hooks (called by FlashDevice)
    # ------------------------------------------------------------------
    def on_read(self, device: "FlashDevice", address: "ChunkAddress") -> None:
        """Pre-read hook: may corrupt the stored chunk or raise transiently."""
        now = self._now()
        self.poll(now)
        for index, event in self.plan.of_type(TransientReadError):
            if not self._applies(event, device, now):
                continue
            if self._stream(index, device.device_id).random() < event.rate:
                self.injected_transients += 1
                raise TransientIoError(
                    f"device {device.device_id}: transient read error at {address}"
                )
        for index, event in self.plan.of_type(LatentErrors):
            if not self._applies(event, device, now):
                continue
            budget = self._latent_budget[index]
            if budget is not None and budget <= 0:
                continue
            rng = self._stream(index, device.device_id, event.seed)
            if rng.random() < event.uber_rate:
                offset = rng.randrange(1 << 30)
                flip = rng.randrange(1, 256)
                if device.corrupt_stored(address, offset, flip):
                    self.injected_corruptions += 1
                    if budget is not None:
                        self._latent_budget[index] = budget - 1

    def on_write(self, device: "FlashDevice", address: "ChunkAddress") -> None:
        """Pre-write hook: fires due time events before the program lands."""
        self.poll(self._now())

    def after_write(self, device: "FlashDevice", address: "ChunkAddress") -> None:
        """Post-write hook: may tear the just-programmed chunk."""
        now = self._now()
        for index, event in self.plan.of_type(TornWrite):
            if not self._applies(event, device, now):
                continue
            rng = self._stream(index, device.device_id)
            if rng.random() < event.rate:
                keep_fraction = rng.random()
                if device.tear_stored(address, keep_fraction):
                    self.injected_torn_writes += 1

    def scale_time(self, device: "FlashDevice", seconds: float) -> float:
        """Apply active fail-slow multipliers to a service time."""
        now = self._now()
        for _, event in self.plan.of_type(FailSlow):
            if event.device != device.device_id or now < event.from_time:
                continue
            if self._generation_stamp.get(event.device) != device.generation:
                continue  # a spare replaced the slow device
            seconds *= event.latency_multiplier
        return seconds

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return self.array.clock.now if self.array is not None else 0.0

    def _applies(self, event, device: "FlashDevice", now: float) -> bool:
        if now < event.from_time:
            return False
        devices = getattr(event, "devices", None)
        return devices is None or device.device_id in devices

    def _stream(self, event_index: int, device_id: int, extra: int = 0) -> random.Random:
        key = (event_index, device_id)
        if key not in self._streams:
            self._streams[key] = stream(self.plan.seed, event_index, device_id, extra)
        return self._streams[key]

