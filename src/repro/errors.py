"""Exception hierarchy for the ``repro`` library.

Every exception raised on purpose by this library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors such as :class:`TypeError`.

The hierarchy mirrors the subsystem layout:

- :class:`ErasureError` — Reed-Solomon / GF(256) failures.
- :class:`FlashError` — simulated flash device and array failures.
- :class:`OsdError` — object-storage command and protocol failures.
- :class:`WorkloadError` — workload generation / trace parsing failures.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ErasureError",
    "UnrecoverableDataError",
    "FlashError",
    "DeviceFailedError",
    "DeviceFullError",
    "ChunkMissingError",
    "ChunkCorruptedError",
    "TransientIoError",
    "StripeLayoutError",
    "FaultPlanError",
    "OsdError",
    "WireError",
    "ObjectNotFoundError",
    "ObjectExistsError",
    "ControlMessageError",
    "WorkloadError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ErasureError(ReproError):
    """Base class for erasure-coding errors."""


class UnrecoverableDataError(ErasureError):
    """Raised when more fragments are lost than the code can tolerate."""


class FlashError(ReproError):
    """Base class for simulated-flash errors."""


class DeviceFailedError(FlashError):
    """Raised when I/O is attempted against a failed device."""

    def __init__(self, device_id: int, message: str = "") -> None:
        self.device_id = device_id
        super().__init__(message or f"device {device_id} has failed")


class DeviceFullError(FlashError):
    """Raised when a write does not fit on the target device."""


class ChunkMissingError(FlashError):
    """Raised when a referenced chunk is not present on a device."""


class ChunkCorruptedError(FlashError):
    """Raised when a chunk's stored bytes differ from what was programmed (silent corruption)."""


class TransientIoError(FlashError):
    """Raised when a device operation fails transiently.

    The stored chunk is intact; a retry (or a read through peers/parity)
    succeeds. Injected by :class:`repro.faults.TransientReadError` events and
    counted by the health monitor as a soft error.
    """


class FaultPlanError(FlashError):
    """Raised when a fault plan is malformed (bad rates, times, targets)."""


class StripeLayoutError(FlashError):
    """Raised for invalid stripe geometry (e.g. parity >= width)."""


class OsdError(ReproError):
    """Base class for object-storage errors."""


class WireError(OsdError):
    """Raised when a PDU cannot be parsed: truncation, garbage, or a frame
    exceeding the protocol size limits.

    Transport code catches this separately from other :class:`OsdError`
    subclasses to distinguish protocol corruption (close the connection, the
    byte stream is unsynchronized) from target-side failures (reported as
    sense codes on a healthy stream).
    """


class ObjectNotFoundError(OsdError):
    """Raised when a (PID, OID) pair does not name a stored object."""


class ObjectExistsError(OsdError):
    """Raised when creating an object that already exists."""


class ControlMessageError(OsdError):
    """Raised when a control-object message cannot be parsed."""


class WorkloadError(ReproError):
    """Base class for workload-generation and trace errors."""
