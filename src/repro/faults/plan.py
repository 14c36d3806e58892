"""Declarative fault plans: typed, seeded, reproducible failure schedules.

The paper's evaluation injects exactly one failure shape — an instantaneous
fail-stop shootdown. Real flash arrays mostly fail *partially*: latent
sector errors discovered on read, transient I/O errors that succeed on
retry, fail-slow devices whose service times quietly balloon, and torn
writes that persist a truncated payload. A :class:`FaultPlan` composes any
number of these as data, so a whole campaign is one value that can be
logged, replayed, and driven through the storage layer by a
:class:`repro.faults.injector.FaultInjector` hooked into
:meth:`repro.flash.device.FlashDevice.read_chunk` / ``write_chunk``. (The
socket service layer has its own vocabulary, :mod:`repro.faults.netplan`.)

Every stochastic decision is drawn from streams derived from
``(plan seed, event index, device id)``, so two runs with the same seed are
byte-identical — campaigns are experiments, not anecdotes.

The plan *container* (:class:`SeededPlan`) and the stream recipe
(:func:`stream`) are shared by both vocabularies; this module adds the
device events on top of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import ClassVar, Iterator, Optional, Tuple, Union

from repro.errors import FaultPlanError

__all__ = [
    "FailSlow",
    "FailStop",
    "FaultEvent",
    "FaultPlan",
    "LatentErrors",
    "SeededPlan",
    "TornWrite",
    "TransientReadError",
    "stream",
]


def stream(seed: int, *key: object) -> random.Random:
    """The private random stream of ``(seed, *key)``.

    Seeded with the ``:``-joined string — string seeding hashes with
    SHA-512, so streams are stable across processes and independent of
    ``PYTHONHASHSEED``. Executors key it by event index and unit id (plus a
    discriminator), so reordering unrelated events never changes an event's
    private randomness.
    """
    return random.Random(":".join(str(part) for part in (seed, *key)))


@dataclass(frozen=True)
class SeededPlan:
    """An immutable, seeded schedule of fault events of one vocabulary."""

    events: Tuple = ()
    seed: int = 0
    #: The event classes this vocabulary admits.
    EVENT_TYPES: ClassVar[Tuple[type, ...]] = ()

    def __post_init__(self) -> None:
        events = tuple(self.events)
        object.__setattr__(self, "events", events)
        for event in events:
            if not isinstance(event, self.EVENT_TYPES):
                raise FaultPlanError(
                    f"{type(self).__name__} has no event type "
                    f"{type(event).__name__!r}"
                )
            event._validate()

    def __iter__(self) -> Iterator:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def of_type(self, event_type) -> "list[Tuple[int, object]]":
        """``(event_index, event)`` pairs of one event type, in plan order.

        The index is the event's position in the plan; executors mix it into
        the :func:`stream` key.
        """
        return [
            (index, event)
            for index, event in enumerate(self.events)
            if isinstance(event, event_type)
        ]

    def extended(self, *events):
        """A new plan with ``events`` appended (same seed).

        Appending preserves existing indices, hence stream keys, so a
        campaign can stage late faults (e.g. a fail-stop scheduled after a
        calibration phase) without perturbing the faults already in flight.
        """
        return type(self)(events=self.events + tuple(events), seed=self.seed)

    def describe(self) -> str:
        """One line per event, for campaign logs."""
        name = type(self).__name__
        if not self.events:
            return f"{name}(empty)"
        lines = [f"{name}(seed={self.seed}):"]
        for index, event in enumerate(self.events):
            lines.append(f"  [{index}] {event!r}")
        return "\n".join(lines)


@dataclass(frozen=True)
class FailStop:
    """Shoot a device down at an absolute simulated time.

    The classic whole-device failure: every resident chunk becomes
    unreadable at once. Fired by :meth:`FaultInjector.poll` the first time
    the simulated clock reaches ``at_time``.
    """

    at_time: float
    device: int

    def _validate(self) -> None:
        if self.at_time < 0:
            raise FaultPlanError("FailStop.at_time must be non-negative")
        if self.device < 0:
            raise FaultPlanError("FailStop.device must be a device id")


@dataclass(frozen=True)
class LatentErrors:
    """Per-read probabilistic bit-rot (latent sector errors).

    Each chunk read flips a stored byte with probability ``uber_rate``
    (uncorrectable-bit-error-rate analogue), so the device's read check
    (stored bytes vs. programmed bytes) catches the damage exactly like real silent corruption: the read raises
    :class:`~repro.errors.ChunkCorruptedError` and the bad address lands in
    the device's ``corrupt_chunks`` set for targeted scrubbing.

    Attributes:
        uber_rate: probability a read trips latent corruption.
        seed: extra stream discriminator (lets two plans with the same plan
            seed rot different bytes).
        devices: restrict to these device ids (all devices if ``None``).
        from_time: corruption only fires at/after this simulated time.
        max_events: cap on total corruptions injected (``None`` = unbounded),
            for bounded property-style tests.
    """

    uber_rate: float
    seed: int = 0
    devices: Optional[Tuple[int, ...]] = None
    from_time: float = 0.0
    max_events: Optional[int] = None

    def _validate(self) -> None:
        if not 0.0 <= self.uber_rate <= 1.0:
            raise FaultPlanError("LatentErrors.uber_rate must be in [0, 1]")
        if self.max_events is not None and self.max_events < 0:
            raise FaultPlanError("LatentErrors.max_events must be non-negative")


@dataclass(frozen=True)
class TransientReadError:
    """Reads fail with probability ``rate`` but the chunk is intact.

    The device raises :class:`~repro.errors.TransientIoError`; a retry (or a
    degraded read through peers) succeeds. Models media retries, command
    timeouts, and link flaps — the soft-error noise floor the health monitor
    must tolerate below its thresholds and act on above them.
    """

    rate: float
    devices: Optional[Tuple[int, ...]] = None
    from_time: float = 0.0

    def _validate(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise FaultPlanError("TransientReadError.rate must be in [0, 1]")


@dataclass(frozen=True)
class FailSlow:
    """A device whose service times are multiplied from a point in time.

    The fail-slow fault model: the device still answers everything
    correctly, just ``latency_multiplier`` times slower — invisible to
    integrity checks, caught only by latency monitoring.
    """

    device: int
    latency_multiplier: float
    from_time: float = 0.0

    def _validate(self) -> None:
        if self.device < 0:
            raise FaultPlanError("FailSlow.device must be a device id")
        if self.latency_multiplier < 1.0:
            raise FaultPlanError("FailSlow.latency_multiplier must be >= 1")


@dataclass(frozen=True)
class TornWrite:
    """Writes persist a truncated payload with probability ``rate``.

    The device acknowledges the write (and keeps the *intended* payload as
    the programmed bytes) but the stored bytes are cut short — a power-fail
    torn write. The next read of the chunk trips the integrity check.
    """

    rate: float
    devices: Optional[Tuple[int, ...]] = None
    from_time: float = 0.0

    def _validate(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise FaultPlanError("TornWrite.rate must be in [0, 1]")


FaultEvent = Union[FailStop, LatentErrors, TransientReadError, FailSlow, TornWrite]


class FaultPlan(SeededPlan):
    """A seeded schedule of device fault events.

    One plan drives a whole campaign: attach it to an array through a
    :class:`~repro.faults.injector.FaultInjector`.
    """

    EVENT_TYPES = (FailStop, LatentErrors, TransientReadError, FailSlow, TornWrite)
