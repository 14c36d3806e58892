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
immutable ``bytes`` that the device *replaces* and never mutates — only the
write paths, :meth:`~FlashDevice.corrupt_stored` and
:meth:`~FlashDevice.tear_stored` put a new object in its slot. The two
damage injectors keep the bytes they replaced (the *intended* bytes), so a
read compares only an address that holds damage, and compares it with its
intended bytes in full. Every corruption the fault model produces is caught
on the next read, with no collision odds, and a clean chunk is stored once.

The unit of work is the *run*: every chunk one array operation sends to one
device. :meth:`~FlashDevice.write_run` programs a run of fresh chunks, and
:meth:`~FlashDevice.stored_run` with :meth:`~FlashDevice.read_run` reads
one, with one state test, one capacity test and one counter update per run.
Their billing is per chunk, summed in run order, so a run costs the same
simulated time as its chunks one by one. A device with a fault injector or
an FTL attached is only ever driven chunk by chunk
(:meth:`~FlashDevice.write_chunk`, :meth:`~FlashDevice.read_chunk`), where
every hook sees every chunk.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

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


def _billed(service_time, payloads: List[bytes]) -> Tuple[float, int]:
    """A run's service time and bytes.

    The time is ``service_time(len(p))`` of every payload, added to ``0.0``
    one chunk at a time in run order: float addition is not associative,
    and this is the sum the per-chunk path's callers form. The model is
    asked once per stretch of equal lengths.
    """
    seconds = 0.0
    total = 0
    length = -1
    each = 0.0
    for payload in payloads:
        if len(payload) != length:
            length = len(payload)
            each = service_time(length)
        seconds += each
        total += length
    return seconds, total


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
    #: Optional fault injector (:class:`repro.faults.injector.FaultInjector`); the
    #: read/write paths call back into it when set.
    fault_injector: "object | None" = None

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("device capacity must be positive")
        self._chunks: Dict[ChunkAddress, bytes] = {}
        #: The bytes a damaged address was programmed with, kept only for
        #: the addresses ``corrupt_stored`` or ``tear_stored`` replaced: a
        #: read compares exactly those (the defence against silent bit-rot),
        #: and a rewrite or a discard drops the entry.
        self._intended: Dict[ChunkAddress, bytes] = {}
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
        share one object. The per-chunk path: every fault-injector hook and
        the FTL see this chunk alone.
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
        intended = self._intended
        if previous is not None:
            # Overwriting flash means programming new pages; the old ones are
            # erased by garbage collection, which we bill immediately.
            stats.erases += 1
            if intended:
                previous = intended.pop(address, previous)
            if ftl is not None:
                # A torn chunk is stored shorter than it was programmed;
                # the FTL mapped the intended length.
                ftl.trim_extent(address, len(previous))
        if type(payload) is not bytes:
            payload = bytes(payload)
        self._chunks[address] = payload
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
            ChunkCorruptedError: the stored bytes differ from the intended
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
        intended = self._intended
        if intended and address in intended and payload != intended[address]:
            self.corrupt_chunks.add(address)
            raise ChunkCorruptedError(
                f"device {self.device_id}: stored bytes differ at {address}"
            )
        service = self.model.read_time(length)
        if injector is not None:
            service = injector.scale_time(self, service)
        return payload, service

    def write_run(self, addresses: List[ChunkAddress], payloads: List[bytes]) -> float:
        """Program a run of fresh chunks; returns its simulated service time.

        The run path of a write: ``payloads[i]`` (a ``bytes``) lands at
        ``addresses[i]``, with one FAILED test, one capacity test on the
        run's total and one counter update. The addresses must be fresh —
        the array's stripe ids are monotonic, so a write never overwrites —
        and the device must have no fault injector and no FTL: hooks see
        chunks one by one, through :meth:`write_chunk`. The service time is
        each chunk's ``write_time`` summed from ``0.0`` in run order, the
        same float :meth:`write_chunk` calls would add up.

        Raises:
            DeviceFullError: the run does not fit; nothing is stored.
        """
        if self.state is _FAILED:
            raise DeviceFailedError(self.device_id)
        seconds, total = _billed(self.model.write_time, payloads)
        if self._used + total > self.capacity_bytes:
            raise DeviceFullError(
                f"device {self.device_id}: run of {total} bytes does not fit "
                f"({self.free_bytes} free)"
            )
        self._chunks.update(zip(addresses, payloads))
        self._used += total
        count = len(payloads)
        stats = self.stats
        stats.writes += count
        stats.programs += count
        stats.bytes_written += total
        return seconds

    def stored_run(self, addresses: List[ChunkAddress]) -> Optional[List[bytes]]:
        """The stored chunks of a run, or None when one is missing or damaged.

        The first half of a run read: a lookup like :meth:`has_chunk`, which
        counts and bills nothing, so the array can try every device of an
        object before it commits to the run path. A damaged chunk is one
        :meth:`corrupt_stored` or :meth:`tear_stored` replaced and no write
        has repaired since.
        """
        if self.state is _FAILED:
            return None
        chunks = self._chunks
        try:
            payloads = [chunks[address] for address in addresses]
        except KeyError:
            return None
        intended = self._intended
        if intended and not intended.keys().isdisjoint(addresses):
            return None
        return payloads

    def read_run(self, payloads: List[bytes]) -> Tuple[float, int]:
        """Count the read of a run :meth:`stored_run` returned.

        Returns its service time — each chunk's ``read_time`` summed from
        ``0.0`` in run order, as :meth:`read_chunk` calls would bill them —
        and its bytes.
        """
        seconds, total = _billed(self.model.read_time, payloads)
        stats = self.stats
        stats.reads += len(payloads)
        stats.bytes_read += total
        return seconds, total

    def discard_chunks(self, addresses: Iterable[ChunkAddress]) -> None:
        """Drop the chunks at ``addresses``, in order, if this device still serves them.

        The one way to retire chunks: on a FAILED device, or for an address
        that holds nothing, there is simply nothing to do. Each dropped
        chunk frees its bytes, its intended copy, its corrupt mark and the
        FTL pages it was programmed with. Deletes are metadata operations
        billed no simulated time (TRIM is asynchronous).
        """
        if self.state is _FAILED:
            return
        chunks = self._chunks
        intended = self._intended
        corrupt = self.corrupt_chunks
        ftl = self.ftl
        freed = 0
        dropped = 0
        for address in addresses:
            payload = chunks.pop(address, None)
            if payload is None:
                continue
            freed += len(payload)
            dropped += 1
            if corrupt:
                corrupt.discard(address)
            if intended:
                payload = intended.pop(address, payload)
            if ftl is not None:
                # A torn chunk is stored shorter than it was programmed;
                # the FTL mapped the intended length.
                ftl.trim_extent(address, len(payload))
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
        intended = self._intended.get(address)
        return intended is None or payload == intended

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

    def reinstate(self) -> None:
        """Return a SUSPECT device to ONLINE (health-monitor verdict)."""
        if self.state is DeviceState.SUSPECT:
            self.state = DeviceState.ONLINE

    def corrupt_chunk(self, address: ChunkAddress) -> None:
        """Fault injection: flip bits in a stored chunk (silent corruption).

        The chunk stays present and readable-looking; the next read trips
        the integrity check and raises :class:`ChunkCorruptedError`.
        """
        self.corrupt_stored(address, offset=0, flip=0xFF)

    def corrupt_stored(self, address: ChunkAddress, offset: int, flip: int) -> bool:
        """XOR ``flip`` into stored byte ``offset % len`` (latent bit-rot).

        Returns True when bytes actually changed (empty chunks and a zero
        ``flip`` cannot rot). The intended bytes are kept, so the next read
        raises :class:`ChunkCorruptedError`.
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
        self._intended.setdefault(address, self._chunks[address])
        self._chunks[address] = bytes(payload)
        return True

    def tear_stored(self, address: ChunkAddress, keep_fraction: float) -> bool:
        """Truncate a stored chunk to a prefix (torn-write injection).

        The device keeps the *intended* payload, so the next read trips the
        integrity check — the acknowledged-but-not-durable outcome
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
        self._intended.setdefault(address, payload)
        self._chunks[address] = torn
        self._used -= len(payload) - len(torn)
        return True

    def replace(self) -> None:
        """Swap in a fresh spare at this slot: empty, online, zero queue."""
        self._chunks.clear()
        self._intended.clear()
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
