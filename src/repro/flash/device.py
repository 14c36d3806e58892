"""A simulated flash SSD.

Each :class:`FlashDevice` stores chunk payloads keyed by
``(stripe_id, fragment_index)``, models service time through a
:class:`~repro.flash.latency.ServiceTimeModel`, and exposes the failure
lifecycle the paper's evaluation exercises: a device can be *failed*
(shootdown — all resident chunks become unreadable) and later *replaced* by a
fresh spare that background recovery repopulates.

A light flash-wear model is included: program and erase counters per device,
so experiments can report write amplification and wear imbalance even though
the paper itself does not fail devices by wear-out.

Integrity is checked by provenance, not by a checksum. A stored chunk is an
immutable ``bytes`` that the device *replaces* and never mutates — only
:meth:`~FlashDevice.write_chunk`, :meth:`~FlashDevice.corrupt_stored` and
:meth:`~FlashDevice.tear_stored` put a new object in its slot — so a read
whose stored object *is* the one programmed there is clean, and any other
object is compared with the programmed bytes in full. Every corruption the
fault model produces is caught on the next read, with no collision odds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Set, Tuple

from repro.errors import (
    ChunkCorruptedError,
    ChunkMissingError,
    DeviceFailedError,
    DeviceFullError,
)
from repro.flash.latency import INTEL_540S_SSD, ServiceTimeModel

__all__ = ["ChunkAddress", "DeviceState", "DeviceStats", "FlashDevice"]

#: A chunk is globally addressed by (stripe id, fragment index in the stripe).
ChunkAddress = Tuple[int, int]


class DeviceState(enum.Enum):
    """Lifecycle state of a simulated device."""

    ONLINE = "online"
    #: Demoted by the health monitor: still serves I/O, but placement stops
    #: putting new chunks here and reads prefer peers/parity.
    SUSPECT = "suspect"
    FAILED = "failed"


#: The per-chunk I/O methods test the state inline rather than through
#: ``is_available`` / ``_check_serviceable``: one identity test per chunk.
_FAILED = DeviceState.FAILED


@dataclass
class DeviceStats:
    """Cumulative I/O counters for one device."""

    reads: int = 0
    writes: int = 0
    deletes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    #: Program operations, a proxy for flash wear.
    programs: int = 0
    #: Erase operations (chunk deletions / whole-device replacement).
    erases: int = 0

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.deletes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        # wear counters survive a stats reset on purpose: wear is physical.

    def wear(self) -> Tuple[int, int]:
        """The physical wear counters, ``(programs, erases)``.

        These survive :meth:`reset`: resetting I/O accounting between
        experiment phases must not forget how worn the flash is.
        """
        return (self.programs, self.erases)


@dataclass
class FlashDevice:
    """One simulated SSD in the array.

    Attributes:
        device_id: position of the device in the array.
        capacity_bytes: usable capacity.
        model: service-time model for read/write operations.
    """

    device_id: int
    capacity_bytes: int
    model: ServiceTimeModel = INTEL_540S_SSD
    state: DeviceState = DeviceState.ONLINE
    stats: DeviceStats = field(default_factory=DeviceStats)
    #: Completion time of the last scheduled operation (for queueing).
    busy_until: float = 0.0
    #: How many device replacements happened in this slot (spare insertions).
    generation: int = 0
    #: Optional flash-translation-layer accounting (GC, wear, write
    #: amplification); attach a :class:`~repro.flash.ftl.PageMappedFtl`.
    ftl: "object | None" = None
    #: Optional fault injector (:class:`repro.faults.FaultInjector`); the
    #: read/write paths call back into it when set.
    fault_injector: "object | None" = None

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("device capacity must be positive")
        self._chunks: Dict[ChunkAddress, bytes] = {}
        #: The object each address was programmed with, checked on every
        #: read — the defence against silent (bit-rot) corruption.
        self._programmed: Dict[ChunkAddress, bytes] = {}
        self._used = 0
        #: Addresses whose last read failed its integrity check, unrepaired.
        #: Lets the health monitor and the scrub scheduler target the damage
        #: without a full sweep; a successful rewrite clears the entry.
        self.corrupt_chunks: Set[ChunkAddress] = set()

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        """Bytes currently stored on the device."""
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used

    @property
    def chunk_count(self) -> int:
        return len(self._chunks)

    @property
    def is_online(self) -> bool:
        """True only for fully-trusted ONLINE devices (placement eligibility)."""
        return self.state is DeviceState.ONLINE

    @property
    def is_available(self) -> bool:
        """True when the device can serve I/O (ONLINE or SUSPECT)."""
        return self.state is not DeviceState.FAILED

    # ------------------------------------------------------------------
    # I/O — each call returns the simulated service time in seconds.
    # ------------------------------------------------------------------
    def write_chunk(self, address: ChunkAddress, payload: bytes) -> float:
        """Store (or overwrite) a chunk; returns the simulated service time.

        A ``bytes`` payload is stored as is, so the replicas of a stripe
        share one object; it also becomes the chunk's programmed bytes.
        """
        if self.state is _FAILED:
            raise DeviceFailedError(self.device_id)
        injector = self.fault_injector
        if injector is not None:
            injector.on_write(self, address)
            if self.state is _FAILED:
                raise DeviceFailedError(self.device_id)
        length = len(payload)
        previous = self._chunks.get(address)
        new_used = self._used - (len(previous) if previous is not None else 0) + length
        if new_used > self.capacity_bytes:
            raise DeviceFullError(
                f"device {self.device_id}: chunk of {length} bytes does not fit "
                f"({self.free_bytes} free)"
            )
        stats = self.stats
        ftl = self.ftl
        if previous is not None:
            # Overwriting flash means programming new pages; the old ones are
            # erased by garbage collection, which we bill immediately.
            stats.erases += 1
            if ftl is not None:
                # A torn chunk is stored shorter than it was programmed;
                # the FTL mapped the programmed length.
                ftl.trim_extent(address, len(self._programmed[address]))
        if type(payload) is not bytes:
            payload = bytes(payload)
        self._chunks[address] = self._programmed[address] = payload
        self._used = new_used
        corrupt = self.corrupt_chunks
        if corrupt:
            corrupt.discard(address)
        if ftl is not None:
            ftl.write_extent(address, length)
        stats.writes += 1
        stats.programs += 1
        stats.bytes_written += length
        if injector is not None:
            # Torn-write injection mutates the just-programmed bytes.
            injector.after_write(self, address)
        service = self.model.write_time(length)
        if injector is not None:
            service = injector.scale_time(self, service)
        return service

    def read_chunk(self, address: ChunkAddress) -> Tuple[bytes, float]:
        """Fetch a chunk; returns ``(payload, simulated service time)``.

        Raises:
            ChunkMissingError: no chunk at the address.
            ChunkCorruptedError: the stored bytes differ from the programmed
                ones; the address is remembered in :attr:`corrupt_chunks`
                until a rewrite repairs it.
            TransientIoError: injected soft failure; the chunk is intact.
        """
        if self.state is _FAILED:
            raise DeviceFailedError(self.device_id)
        injector = self.fault_injector
        if injector is not None:
            # May raise TransientIoError, rot the stored bytes (caught by
            # the integrity check below), or fire a due fail-stop on any device.
            injector.on_read(self, address)
            if self.state is _FAILED:
                raise DeviceFailedError(self.device_id)
        try:
            payload = self._chunks[address]
        except KeyError:
            raise ChunkMissingError(
                f"device {self.device_id}: no chunk at {address}"
            ) from None
        length = len(payload)
        stats = self.stats
        stats.reads += 1
        stats.bytes_read += length
        programmed = self._programmed[address]
        if payload is not programmed and payload != programmed:
            self.corrupt_chunks.add(address)
            raise ChunkCorruptedError(
                f"device {self.device_id}: stored bytes differ at {address}"
            )
        service = self.model.read_time(length)
        if injector is not None:
            service = injector.scale_time(self, service)
        return payload, service

    def discard_chunks(self, addresses: Iterable[ChunkAddress]) -> None:
        """Drop the chunks at ``addresses``, in order, if this device still serves them.

        The one way to retire chunks: on a FAILED device, or for an address
        that holds nothing, there is simply nothing to do. Each dropped
        chunk frees its bytes, its programmed copy, its corrupt mark and
        the FTL pages it was programmed with. Deletes are metadata
        operations billed no simulated time (TRIM is asynchronous).
        """
        if self.state is _FAILED:
            return
        chunks = self._chunks
        programmed = self._programmed
        corrupt = self.corrupt_chunks
        ftl = self.ftl
        freed = 0
        dropped = 0
        for address in addresses:
            payload = chunks.pop(address, None)
            if payload is None:
                continue
            intended = programmed.pop(address)
            if corrupt:
                corrupt.discard(address)
            freed += len(payload)
            dropped += 1
            if ftl is not None:
                # A torn chunk is stored shorter than it was programmed;
                # the FTL mapped the programmed length.
                ftl.trim_extent(address, len(intended))
        self._used -= freed
        stats = self.stats
        stats.deletes += dropped
        stats.erases += dropped

    def has_chunk(self, address: ChunkAddress) -> bool:
        """True if the chunk is present *and* the device can serve it."""
        return self.state is not _FAILED and address in self._chunks

    def verify_chunk(self, address: ChunkAddress) -> bool:
        """Check a stored chunk's integrity without billing an I/O.

        A metadata-only integrity oracle for tests (scrubbing reads chunks
        through :meth:`read_chunk`); returns False for corrupt bytes, raises
        for a missing chunk.
        """
        self._check_serviceable()
        try:
            payload = self._chunks[address]
        except KeyError:
            raise ChunkMissingError(
                f"device {self.device_id}: no chunk at {address}"
            ) from None
        programmed = self._programmed[address]
        return payload is programmed or payload == programmed

    # ------------------------------------------------------------------
    # Failure lifecycle
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Shoot the device down: all resident chunks become unreadable."""
        self.state = DeviceState.FAILED

    def suspect(self) -> None:
        """Demote an ONLINE device to SUSPECT (health-monitor verdict)."""
        if self.state is DeviceState.ONLINE:
            self.state = DeviceState.SUSPECT

    def corrupt_chunk(self, address: ChunkAddress) -> None:
        """Fault injection: flip bits in a stored chunk (silent corruption).

        The chunk stays present and readable-looking; the next read trips
        the integrity check and raises :class:`ChunkCorruptedError`.
        """
        self.corrupt_stored(address, offset=0, flip=0xFF)

    def corrupt_stored(self, address: ChunkAddress, offset: int, flip: int) -> bool:
        """XOR ``flip`` into stored byte ``offset % len`` (latent bit-rot).

        Returns True when bytes actually changed (empty chunks and a zero
        ``flip`` cannot rot). The programmed bytes are left untouched, so
        the next read raises :class:`ChunkCorruptedError`.
        """
        self._check_serviceable()
        try:
            payload = bytearray(self._chunks[address])
        except KeyError:
            raise ChunkMissingError(
                f"device {self.device_id}: no chunk at {address}"
            ) from None
        if not payload or not flip & 0xFF:
            return False
        payload[offset % len(payload)] ^= flip & 0xFF
        self._chunks[address] = bytes(payload)
        return True

    def tear_stored(self, address: ChunkAddress, keep_fraction: float) -> bool:
        """Truncate a stored chunk to a prefix (torn-write injection).

        The programmed bytes still hold the *intended* payload, so the next
        read trips the integrity check — the acknowledged-but-not-durable outcome
        of a power-fail torn write. A fraction that would keep every byte
        flips the final byte instead so the write is still detectably torn.
        Returns True when the stored bytes changed.
        """
        self._check_serviceable()
        try:
            payload = self._chunks[address]
        except KeyError:
            raise ChunkMissingError(
                f"device {self.device_id}: no chunk at {address}"
            ) from None
        if not payload:
            return False
        keep = min(len(payload) - 1, int(len(payload) * keep_fraction))
        if keep < 0:
            keep = 0
        torn = payload[:keep] if keep else b""
        if keep == len(payload) - 1:
            torn = payload[:-1] + bytes([payload[-1] ^ 0xFF])
        self._chunks[address] = torn
        self._used -= len(payload) - len(torn)
        return True

    def replace(self) -> None:
        """Swap in a fresh spare at this slot: empty, online, zero queue."""
        self._chunks.clear()
        self._programmed.clear()
        self.corrupt_chunks.clear()
        self._used = 0
        self.state = DeviceState.ONLINE
        self.generation += 1
        self.stats.erases += 1
        if self.ftl is not None:
            # The spare arrives with a pristine FTL of the same geometry.
            self.ftl = type(self.ftl)(self.ftl.config)

    def _check_serviceable(self) -> None:
        if not self.is_available:
            raise DeviceFailedError(self.device_id)

    def __repr__(self) -> str:
        return (
            f"FlashDevice(id={self.device_id}, state={self.state.value}, "
            f"used={self._used}/{self.capacity_bytes})"
        )
