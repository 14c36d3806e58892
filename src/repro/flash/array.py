"""The simulated flash array: object placement, degraded reads, rebuild.

:class:`FlashArray` is the storage engine under the OSD target. It lays
objects out in stripes across the *online* devices, encodes parity with
Reed-Solomon, serves degraded reads by decoding surviving fragments, and
rebuilds lost fragments onto a replacement spare. All I/O is billed in
simulated time: chunks on distinct devices transfer in parallel, operations
queued on the same device serialize through the device's ``busy_until``.

Space accounting distinguishes logical user bytes from redundancy bytes,
which is exactly the paper's *space efficiency* metric (§VI-B).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from operator import getitem
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from repro.erasure.rs import RSCodec
from repro.errors import (
    ChunkCorruptedError,
    DeviceFailedError,
    ErasureError,
    FlashError,
    ObjectExistsError,
    ObjectNotFoundError,
    StripeLayoutError,
    TransientIoError,
    UnrecoverableDataError,
)
from repro.flash.device import DeviceState, FlashDevice
from repro.flash.latency import INTEL_540S_SSD, ServiceTimeModel
from repro.flash.stripe import (
    ChunkLocation,
    FragmentSlot,
    RedundancyScheme,
    ReplicationScheme,
    StripeDescriptor,
    split_payload,
)
from repro.sim.clock import SimClock

__all__ = [
    "ArrayIoResult",
    "DeviceIoSample",
    "FlashArray",
    "ObjectExtent",
    "ObjectHealth",
    "ScrubReport",
]

ObjectKey = Hashable

#: Bound once: the write path and the space properties test it per device.
_ONLINE = DeviceState.ONLINE


@lru_cache(maxsize=1024)
def _scheme_geometry(scheme: RedundancyScheme, width: int) -> Tuple[int, bool]:
    """Validated per-(scheme, width) stripe geometry for the write path.

    Schemes are frozen policy values, so the validation + geometry
    arithmetic is a pure function of ``(scheme, width)`` — cached here so
    the per-write cost is one dict probe instead of re-deriving it.
    """
    scheme.validate(width)
    return scheme.data_chunks_per_stripe(width), isinstance(scheme, ReplicationScheme)


#: One device's part in the placement of stripes from one rotation on: its
#: id and its fragment index in each of the ``period`` stripes from there.
_RunPlan = Tuple[int, Tuple[int, ...]]


@lru_cache(maxsize=1024)
def _placement(scheme: RedundancyScheme, devices: Tuple[int, ...]) -> Tuple[
    int, bool, Tuple[Tuple[FragmentSlot, ...], ...], Tuple[Tuple[_RunPlan, ...], ...]
]:
    """Everything a write over ``devices`` fixes before it sees a payload.

    The scheme's geometry (``k``, replicated or not), the stripe layouts
    and, when every stripe spans every device, the run plans: per starting
    rotation, each device's fragment index in the stripes from there, in
    the order those stripes first touch the devices — the order
    chunk-by-chunk programming opens the devices' samples in. The device
    that stripe ``s`` puts fragment ``i`` on holds ``(s, i)``. A layout
    narrower than the devices (fewer replicas than devices) has no run
    plans. An invalid width raises every time (errors are not cached).
    """
    k, replicated = _scheme_geometry(scheme, len(devices))
    layouts = scheme.layouts(devices)
    if len(layouts[0]) < len(devices):
        return k, replicated, layouts, ()
    period = len(layouts)
    plans = []
    for start in range(period):
        cycled = layouts[start:] + layouts[:start]
        indices: Dict[int, List[int]] = {}
        for step, slots in enumerate(cycled):
            for slot in slots:
                indices.setdefault(slot.device_id, [0] * period)[step] = slot.fragment_index
        plans.append(tuple((device_id, tuple(picks)) for device_id, picks in indices.items()))
    return k, replicated, layouts, tuple(plans)


class ObjectHealth(enum.Enum):
    """Availability of an object given the current device states."""

    #: Every chunk lives on an online device.
    HEALTHY = "healthy"
    #: Some chunks are lost but every stripe can still be decoded.
    DEGRADED = "degraded"
    #: At least one stripe lost more fragments than its code tolerates.
    LOST = "lost"


@dataclass
class DeviceIoSample:
    """Per-device slice of one array operation (health-monitor food)."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    #: Service seconds billed to the device during the operation.
    seconds: float = 0.0
    #: Integrity/soft failures the device produced (corruption, transient).
    errors: int = 0

    def merge(self, other: "DeviceIoSample") -> None:
        self.reads += other.reads
        self.writes += other.writes
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.seconds += other.seconds
        self.errors += other.errors


@dataclass
class ArrayIoResult:
    """Outcome of one array operation, in simulated terms."""

    elapsed: float = 0.0
    chunks_read: int = 0
    chunks_written: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    #: True when the operation had to decode around missing fragments.
    degraded: bool = False
    #: Which array entry point produced this result ("read", "write",
    #: "update", "rebuild", "scrub"); lets the health monitor separate
    #: foreground degraded reads from repair traffic.
    op: str = ""
    #: Per-device observations, keyed by device id.
    device_io: Dict[int, DeviceIoSample] = field(default_factory=dict)

    def merge(self, other: "ArrayIoResult") -> None:
        """Fold another result into this one (sequential composition)."""
        self.elapsed += other.elapsed
        self.chunks_read += other.chunks_read
        self.chunks_written += other.chunks_written
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.degraded = self.degraded or other.degraded
        for device_id, sample in other.device_io.items():
            mine = self.device_io.get(device_id)
            if mine is None:
                mine = self.device_io[device_id] = DeviceIoSample()
            mine.merge(sample)


@dataclass
class ScrubReport:
    """Outcome of one scrub pass over the array."""

    objects_checked: int = 0
    chunks_checked: int = 0
    chunks_repaired: int = 0
    unrecoverable_objects: List[ObjectKey] = field(default_factory=list)
    io: ArrayIoResult = field(default_factory=ArrayIoResult)


@dataclass
class ObjectExtent:
    """Array-side metadata for one stored object."""

    key: ObjectKey
    size: int
    scheme: RedundancyScheme
    stripes: List[StripeDescriptor] = field(default_factory=list)
    #: Bytes in data chunks and in parity/replica chunks, accumulated as
    #: the stripes are laid out (chunk lengths never change afterwards).
    data_bytes: int = 0
    redundancy_bytes: int = 0
    #: Each device's chunk addresses, in stripe order: the run a write
    #: programs there, a healthy read pulls its data fragments from and a
    #: delete retires. Keyed in the order the write first touched them.
    runs: Dict[int, List[Tuple[int, int]]] = field(default_factory=dict)

    @property
    def stored_bytes(self) -> int:
        return self.data_bytes + self.redundancy_bytes


class _IoBatch:
    """Accumulates chunk operations and bills simulated time.

    Chunks on different devices proceed in parallel; multiple operations on
    the same device serialize. ``finish`` advances each involved device's
    ``busy_until`` and returns the critical-path elapsed time.
    """

    def __init__(self, start: float, op: str = "") -> None:
        self._start = start
        self._wait: Dict[int, float] = {}
        self.result = ArrayIoResult(op=op)
        #: A device's sample doubles as its open-batch record: everything
        #: billed to the device is added to ``seconds`` in I/O order, so it
        #: *is* the device's service sum.
        self._samples = self.result.device_io

    def _open(self, device: FlashDevice) -> DeviceIoSample:
        """First touch of a device: note its queueing delay, open its sample."""
        sample = self._samples[device.device_id] = DeviceIoSample()
        wait = device.busy_until - self._start
        self._wait[device.device_id] = wait if wait > 0.0 else 0.0
        return sample

    def add(self, device: FlashDevice, sample: DeviceIoSample) -> None:
        """A device's sample, at its first touch; a run comes in one sample."""
        wait = device.busy_until - self._start
        self._wait[device.device_id] = wait if wait > 0.0 else 0.0
        self._samples[device.device_id] = sample

    def read(self, device: FlashDevice, address: Tuple[int, int]) -> bytes:
        sample = self._samples.get(device.device_id)
        if sample is None:
            sample = self._open(device)
        try:
            payload, service_time = device.read_chunk(address)
        except (ChunkCorruptedError, TransientIoError):
            sample.reads += 1
            sample.errors += 1
            raise
        length = len(payload)
        result = self.result
        result.chunks_read += 1
        result.bytes_read += length
        sample.reads += 1
        sample.bytes_read += length
        sample.seconds += service_time
        return payload

    def write(self, device: FlashDevice, address: Tuple[int, int], payload: bytes) -> None:
        sample = self._samples.get(device.device_id)
        if sample is None:
            sample = self._open(device)
        service_time = device.write_chunk(address, payload)
        length = len(payload)
        result = self.result
        result.chunks_written += 1
        result.bytes_written += length
        sample.writes += 1
        sample.bytes_written += length
        sample.seconds += service_time

    def finish(self, by_id: Dict[int, FlashDevice]) -> ArrayIoResult:
        elapsed = 0.0
        for device_id, sample in self._samples.items():
            completion = self._wait[device_id] + sample.seconds
            if completion > elapsed:
                elapsed = completion
            by_id[device_id].busy_until = self._start + completion
        self.result.elapsed = elapsed
        return self.result


class FlashArray:
    """An array of simulated flash devices managing objects in stripes."""

    def __init__(
        self,
        num_devices: int = 5,
        device_capacity: int = 120 * 10**9,
        chunk_size: int = 64 * 1024,
        clock: Optional[SimClock] = None,
        model: ServiceTimeModel = INTEL_540S_SSD,
    ) -> None:
        if num_devices < 1:
            raise StripeLayoutError("an array needs at least one device")
        if chunk_size < 1:
            raise StripeLayoutError("chunk size must be positive")
        self.clock = SimClock() if clock is None else clock
        self.chunk_size = chunk_size
        self.devices: List[FlashDevice] = [
            FlashDevice(device_id=i, capacity_bytes=device_capacity, model=model)
            for i in range(num_devices)
        ]
        #: Zero-cost billing fast path: device membership is fixed for the
        #: array's lifetime (``fail``/``replace`` mutate devices in place),
        #: so the id→device map is built once instead of per operation.
        self._devices_by_id: Dict[int, FlashDevice] = {
            device.device_id: device for device in self.devices
        }
        self._objects: Dict[ObjectKey, ObjectExtent] = {}
        self._next_stripe_id = 0
        self._codecs: Dict[Tuple[int, int], RSCodec] = {}
        # Incremental space accounting.
        self._logical_bytes = 0
        self._data_bytes = 0
        self._redundancy_bytes = 0
        #: stripe id -> owning object key (targeted scrub, corruption triage).
        self._stripe_owners: Dict[int, ObjectKey] = {}
        #: Optional health monitor (:class:`repro.core.health.HealthMonitor`);
        #: every finished batch is fed to it as an :class:`ArrayIoResult`.
        self.health: "object | None" = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        """Total device slots, live or failed."""
        return len(self.devices)

    @property
    def online_devices(self) -> List[FlashDevice]:
        """Fully-trusted devices: targets for new chunk placement."""
        return [device for device in self.devices if device.state is _ONLINE]

    @property
    def online_count(self) -> int:
        return len(self.online_devices)

    @property
    def available_devices(self) -> List[FlashDevice]:
        """Devices that can serve I/O: ONLINE plus SUSPECT."""
        return [device for device in self.devices if device.is_available]

    @property
    def available_count(self) -> int:
        return len(self.available_devices)

    # Each space property walks the devices once: the OSD target reads
    # them on every write it admits.
    @property
    def capacity_bytes(self) -> int:
        """Capacity of the online devices."""
        return sum(d.capacity_bytes for d in self.devices if d.state is _ONLINE)

    @property
    def used_bytes(self) -> int:
        return sum(d.used_bytes for d in self.devices if d.state is _ONLINE)

    @property
    def free_bytes(self) -> int:
        return sum(d.free_bytes for d in self.devices if d.state is _ONLINE)

    @property
    def logical_bytes(self) -> int:
        """User bytes stored, before redundancy and padding."""
        return self._logical_bytes

    @property
    def data_bytes(self) -> int:
        """Bytes in data chunks (logical bytes plus padding)."""
        return self._data_bytes

    @property
    def redundancy_bytes(self) -> int:
        """Bytes in parity and replica chunks."""
        return self._redundancy_bytes

    @property
    def space_efficiency(self) -> float:
        """User data as a fraction of all occupied space (paper §VI-B)."""
        occupied = self._data_bytes + self._redundancy_bytes
        if occupied == 0:
            return 1.0
        return self._data_bytes / occupied

    def __contains__(self, key: ObjectKey) -> bool:
        return key in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def keys(self) -> Iterable[ObjectKey]:
        return self._objects.keys()

    def get_extent(self, key: ObjectKey) -> ObjectExtent:
        try:
            return self._objects[key]
        except KeyError:
            raise ObjectNotFoundError(f"no object {key!r} in array") from None

    def object_size(self, key: ObjectKey) -> int:
        return self.get_extent(key).size

    def stored_bytes_for(self, key: ObjectKey) -> int:
        return self.get_extent(key).stored_bytes

    def estimate_stored_bytes(self, size: int, scheme: RedundancyScheme) -> int:
        """Projected stored bytes for an object of ``size`` under ``scheme``.

        Uses the current online width; padding makes this a slight
        underestimate for tiny objects, which admission control tolerates.
        """
        width = self.online_count
        scheme.validate(width)
        return int(size * scheme.storage_multiplier(width)) if size else 0

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def write_object(
        self,
        key: ObjectKey,
        payload: bytes,
        scheme: RedundancyScheme,
        overwrite: bool = False,
    ) -> ArrayIoResult:
        """Stripe, encode, and store an object across the online devices.

        The whole object is laid out first — descriptors, fragments and
        each device's run — and then programmed: each device's run in one
        call (``_program_runs``), or chunk by chunk in stripe-major order
        (``_program_chunks``) when the object is one stripe, its stripes
        are narrower than the online devices, a device has a fault
        injector or an FTL, or a run would overflow its device. Both bill
        and store exactly the same.

        Overwrites are transactional: the new stripes are written first and
        the old copy is only deleted after they all land, so a mid-write
        failure (e.g. :class:`DeviceFullError`) rolls back and leaves the
        previous copy intact.
        """
        previous = self._objects.get(key)
        if previous is not None and not overwrite:
            raise ObjectExistsError(f"object {key!r} already stored")
        if type(payload) is not bytes:
            payload = bytes(payload)  # fragments are slices: stored chunks are immutable
        # Everything below that does not depend on the payload is fixed
        # here, once per object: the geometry, the slot tuples of every
        # rotation and each device's fragment index in them, the stripe
        # width, the parity count and its codec.
        k, is_replication, layouts, run_plans = _placement(
            scheme,
            tuple([device.device_id for device in self.devices if device.state is _ONLINE]),
        )
        period = len(layouts)
        stripe_width = len(layouts[0])
        parity_count = 0 if is_replication else stripe_width - k
        codec = self._codec(k, parity_count) if parity_count else None

        size = len(payload)
        chunk_size = self.chunk_size
        full_bytes = k * chunk_size
        # Leading stripes laid out straight from the payload: all the full
        # ones, except a lone full stripe that needs parity — batching one
        # stripe saves nothing, so it is packed and encoded like the tail.
        direct = size // full_bytes
        if codec is not None and direct == 1:
            direct = 0
        plan = split_payload(size, chunk_size, k)
        count = len(plan)
        first = self._next_stripe_id
        self._next_stripe_id = first + count
        # Every stripe but the last is full, so each device that holds a
        # chunk of every stripe holds this many bytes of the object.
        lengths = chunk_size * (count - 1) + plan[-1][1] if count else 0
        # The whole object is laid out before its first chunk is programmed,
        # so a rollback sees every stripe of it. Rotate by the *global*
        # stripe id so parity lands evenly across devices regardless of
        # object sizes (§IV-C.3).
        extent = ObjectExtent(
            key, size, scheme,
            [
                StripeDescriptor(
                    stripe_id, stripe_payload, k, parity_count,
                    layouts[stripe_id % period], chunk_length, is_replication,
                )
                for stripe_id, (stripe_payload, chunk_length) in zip(
                    range(first, first + count), plan
                )
            ],
            k * lengths,
            (stripe_width - k) * lengths,
        )

        # Data fragments of the direct stripes are slices of the payload.
        data = [
            payload[start : start + chunk_size]
            for start in range(0, direct * full_bytes, chunk_size)
        ] if direct else []
        fragments: List
        if is_replication:
            # One byte string per stripe, sent to every slot of it; k is 1,
            # so the tail stripe is the rest of the payload, unpadded.
            if count > direct:
                data.append(payload[direct * chunk_size :])
            fragments = data
        else:
            # fragments[n][i]: fragment i of stripe n.
            fragments = []
            if direct:
                columns = [data[index::k] for index in range(k)]
                if codec is not None:
                    # One encode per object: GF(256) parity is column-wise,
                    # so fragment i of every full stripe laid side by side
                    # encodes to every stripe's parity side by side, byte
                    # for byte.
                    stacked = (
                        np.frombuffer(payload, dtype=np.uint8, count=direct * full_bytes)
                        .reshape(direct, k, chunk_size)
                        .transpose(1, 0, 2)
                        .reshape(k, direct * chunk_size)
                    )
                    for row in codec.encode_arrays(stacked):
                        parity = row.tobytes()
                        columns.append([
                            parity[column : column + chunk_size]
                            for column in range(0, direct * chunk_size, chunk_size)
                        ])
                fragments += zip(*columns)
            for number in range(direct, count):
                # A stripe packed and encoded alone: the partial tail,
                # zero-padded, or a lone full stripe.
                stripe_payload, chunk_length = plan[number]
                stripe_bytes = k * chunk_length
                offset = number * full_bytes
                raw = payload[offset : offset + stripe_payload]
                if stripe_payload < stripe_bytes:
                    raw = raw.ljust(stripe_bytes, b"\0")
                packed = [
                    raw[start : start + chunk_length]
                    for start in range(0, stripe_bytes, chunk_length)
                ]
                if codec is not None:
                    packed += codec.encode(packed)
                fragments.append(packed)

        batch = _IoBatch(self.clock.now, op="write")
        try:
            # A one-stripe object's runs are single chunks: nothing to gain.
            if count < 2 or not run_plans or not self._program_runs(
                extent, fragments, run_plans[first % period], lengths, batch
            ):
                self._program_chunks(extent, fragments, batch)
        except (FlashError, ErasureError):
            # Roll back on storage failures (device full, failed
            # mid-write): drop the partially written new chunks so the
            # previous copy (if any) remains authoritative. Non-storage
            # exceptions propagate untouched — injected faults and
            # programming errors must never be silently swallowed here.
            self._discard_chunks(extent)
            raise
        if previous is not None:
            self._discard_chunks(previous)
            self._unregister_stripes(previous)
            self._logical_bytes -= previous.size
            self._data_bytes -= previous.data_bytes
            self._redundancy_bytes -= previous.redundancy_bytes
        self._objects[key] = extent
        owners = self._stripe_owners
        for stripe_id in range(first, first + count):
            owners[stripe_id] = key
        self._logical_bytes += extent.size
        self._data_bytes += extent.data_bytes
        self._redundancy_bytes += extent.redundancy_bytes
        return self._finish(batch)

    def _program_runs(
        self,
        extent: ObjectExtent,
        fragments: List,
        plans: Tuple[_RunPlan, ...],
        lengths: int,
        batch: _IoBatch,
    ) -> bool:
        """Program each device's run of a laid-out object in one call.

        Every stripe spans every device, so each run is the device's
        address and fragment in every stripe, in stripe order, ``lengths``
        bytes; the device's sample is its run, as chunk by chunk would bill
        the same chunks in the same order. False, with nothing written, when
        a device has a fault injector or an FTL attached (their hooks see
        chunks one by one, in stripe-major order) or the run would overflow
        it (so ``DeviceFullError`` and the wear counters land on the same
        chunk as chunk by chunk).
        """
        stripes = extent.stripes
        count = len(stripes)
        first = stripes[0].stripe_id
        stripe_ids = range(first, first + count)
        replicated = stripes[0].replicated
        repeats = count // len(plans[0][1]) + 1
        by_id = self._devices_by_id
        laid = []
        for device_id, cycled in plans:
            device = by_id[device_id]
            if (
                device.fault_injector is not None
                or device.ftl is not None
                or lengths > device.free_bytes
            ):
                return False
            picks = (cycled * repeats)[:count]
            held = fragments if replicated else list(map(getitem, fragments, picks))
            laid.append((device, list(zip(stripe_ids, picks)), held))
        runs = extent.runs
        for device, run, held in laid:
            seconds = device.write_run(run, held)
            batch.add(device, DeviceIoSample(0, count, 0, lengths, seconds))
            runs[device.device_id] = run
        result = batch.result
        result.chunks_written = count * len(laid)
        result.bytes_written = lengths * len(laid)
        return True

    def _program_chunks(self, extent: ObjectExtent, fragments: List, batch: _IoBatch) -> None:
        """Program a laid-out object chunk by chunk: stripe-major, slot order within a stripe.

        Each device's run is recorded as its chunks go out. If a chunk
        fails, the stripe ids after the one in flight are handed out again,
        as laying out stripe by stripe did.
        """
        by_id = self._devices_by_id
        runs = extent.runs
        result = batch.result
        samples = result.device_io
        for stripe, stripe_fragments in zip(extent.stripes, fragments):
            stripe_id = stripe.stripe_id
            chunk_length = stripe.chunk_length
            if stripe.replicated:  # one byte string for every slot
                stripe_fragments = (stripe_fragments,) * stripe.width
            try:
                # ``_IoBatch.write`` in place, chunk by chunk in slot order.
                for slot in stripe.slots:
                    device_id = slot.device_id
                    index = slot.fragment_index
                    address = (stripe_id, index)
                    device = by_id[device_id]
                    sample = samples.get(device_id)
                    if sample is None:  # the device's first chunk: its run starts
                        sample = batch._open(device)
                        runs[device_id] = [address]
                    else:
                        runs[device_id].append(address)
                    sample.seconds += device.write_chunk(address, stripe_fragments[index])
                    sample.writes += 1
                    sample.bytes_written += chunk_length
            except FlashError:
                self._next_stripe_id = stripe_id + 1
                raise
            result.chunks_written += stripe.width
            result.bytes_written += stripe.width * chunk_length

    def _discard_chunks(self, extent: ObjectExtent) -> None:
        """Remove an extent's chunks from whichever live devices hold them.

        One ``discard_chunks`` call per device, with its run: a discard
        bills no time and has no fault hook, so only the order within a
        device is observable (its FTL trims), and a run is in stripe order.
        """
        by_id = self._devices_by_id
        for device_id, addresses in extent.runs.items():
            by_id[device_id].discard_chunks(addresses)

    def _unregister_stripes(self, extent: ObjectExtent) -> None:
        for stripe in extent.stripes:
            self._stripe_owners.pop(stripe.stripe_id, None)

    def _finish(self, batch: "_IoBatch") -> ArrayIoResult:
        """Close a batch and feed the observation to the health monitor."""
        result = batch.finish(self._devices_by_id)
        if self.health is not None:
            self.health.ingest(result, self.clock.now)
        return result

    # ------------------------------------------------------------------
    # Read path (normal and degraded)
    # ------------------------------------------------------------------
    def read_object(self, key: ObjectKey) -> Tuple[bytes, ArrayIoResult]:
        """Read an object, decoding around failed devices when necessary.

        Raises:
            ObjectNotFoundError: the key is unknown.
            UnrecoverableDataError: a stripe lost more fragments than its
                redundancy tolerates.
        """
        extent = self.get_extent(key)
        batch = _IoBatch(self.clock.now, op="read")
        # A one-stripe object is one chunk per device: its stripe is its runs.
        payload = self._read_runs(extent, batch) if len(extent.stripes) > 1 else None
        if payload is None:
            by_id = self._devices_by_id
            pieces = [self._read_stripe(stripe, batch, by_id) for stripe in extent.stripes]
            payload = b"".join(pieces)[: extent.size]
        return payload, self._finish(batch)

    def _read_runs(self, extent: ObjectExtent, batch: _IoBatch) -> Optional[bytes]:
        """A healthy object's bytes, read as one run of data fragments per device.

        None, with nothing read or billed, when a holder is not ONLINE, has
        known-corrupt chunks or a fault injector, or when a data fragment is
        missing or damaged: that object is read stripe by stripe through
        ``_gather``. Otherwise ``_gather`` would read exactly these
        fragments — every stripe trusted, data fragments in index order —
        and the run read bills them the same: each device's chunks in
        stripe order, the devices opened in the order of their first read.
        """
        runs = extent.runs
        by_id = self._devices_by_id
        for device_id in runs:
            device = by_id[device_id]
            if (
                device.state is not _ONLINE
                or device.corrupt_chunks
                or device.fault_injector is not None
            ):
                return None
        stripes = extent.stripes
        k = stripes[0].data_count  # 1 for a replicated object
        all_data = k == stripes[0].width  # no parity, no replicas
        held = []
        for device_id, run in runs.items():
            wanted = run if all_data else [address for address in run if address[1] < k]
            if wanted:
                device = by_id[device_id]
                payloads = device.stored_run(wanted)
                if payloads is None:
                    return None
                held.append((wanted, device, payloads))
        chunks = nbytes = 0
        held.sort(key=lambda entry: entry[0][0])  # by first read
        for wanted, device, payloads in held:
            seconds, length = device.read_run(payloads)
            batch.add(device, DeviceIoSample(len(payloads), 0, length, 0, seconds))
            chunks += len(payloads)
            nbytes += length
        result = batch.result
        result.chunks_read = chunks
        result.bytes_read = nbytes
        # Object order is address order: stripe ids rise along the object,
        # data fragments within a stripe by index.
        fetched: Dict[Tuple[int, int], bytes] = {}
        for wanted, _, payloads in held:
            fetched.update(zip(wanted, payloads))
        pieces = list(map(fetched.__getitem__, sorted(fetched)))
        # The tail stripe's zero padding is cut off its last fragments, so
        # the object is copied once, by the join.
        excess = nbytes - extent.size
        while excess > 0:
            last = pieces.pop()
            if len(last) > excess:
                pieces.append(last[: len(last) - excess])
            excess -= len(last)
        return b"".join(pieces)

    @staticmethod
    def _fragment_order(stripe_id: int, available: Dict[int, FlashDevice]) -> List[int]:
        """Fragment indices, trusted fragments first.

        Two demotions: fragments whose address already failed a read check
        (in the device's ``corrupt_chunks``, awaiting scrub) go last — they
        *will* fail again, and rereading them just feeds error telemetry
        for damage that is already known. Fragments on SUSPECT devices go
        behind clean ONLINE ones: a suspect fragment is only pulled when
        the healthy ones cannot satisfy the stripe. Within a tier, index
        order keeps data fragments ahead of parity (cheapest path when
        nothing is wrong).
        """

        def rank(index: int) -> Tuple[bool, bool, int]:
            device = available[index]
            return ((stripe_id, index) in device.corrupt_chunks, not device.is_online, index)

        return sorted(available, key=rank)

    def _gather(
        self,
        stripe: StripeDescriptor,
        batch: _IoBatch,
        by_id: Dict[int, FlashDevice],
    ) -> Dict[int, bytes]:
        """Read a stripe's present fragments, trusted first, until it is servable.

        The one place that decides which fragments a degraded read and a
        rebuild pull, and in what order. Stops at one replica, or at ``k``
        fragments of a parity stripe; a fragment that fails to read
        (corruption, transient fault, a device a fail-stop shot down during
        this operation) marks the batch degraded and the next survivor
        takes its place.

        Raises:
            UnrecoverableDataError: the readable fragments cannot serve it.
        """
        stripe_id = stripe.stripe_id
        #: fragment index -> the device that can serve it
        available: Dict[int, FlashDevice] = {}
        trusted = True
        for slot in stripe.slots:
            device = by_id[slot.device_id]
            if device.has_chunk((stripe_id, slot.fragment_index)):
                available[slot.fragment_index] = device
            if device.state is not _ONLINE or device.corrupt_chunks:
                trusted = False
        # With every holder ONLINE and free of known-corrupt chunks all
        # fragments rank equal, and trusted-first order *is* index order.
        order = sorted(available) if trusted else self._fragment_order(stripe_id, available)
        k = stripe.data_count  # 1 for a replicated stripe
        fragments: Dict[int, bytes] = {}
        for index in order:
            payload = self._read_fragment(batch, available[index], (stripe_id, index))
            if payload is None:
                batch.result.degraded = True
                continue
            fragments[index] = payload
            if len(fragments) == k:
                return fragments
        raise UnrecoverableDataError(
            f"stripe {stripe.stripe_id}: {len(fragments)} readable fragments, {k} needed"
        )

    def _read_stripe(
        self,
        stripe: StripeDescriptor,
        batch: _IoBatch,
        by_id: Dict[int, FlashDevice],
    ) -> bytes:
        fragments = self._gather(stripe, batch, by_id)
        if stripe.replicated:
            [(index, payload)] = fragments.items()
            if index:  # a REPLICA stands in for the DATA copy (index 0)
                batch.result.degraded = True
            return payload[: stripe.payload_bytes]
        k = stripe.data_count
        if max(fragments) < k:  # k distinct indices below k: all the data
            return b"".join([fragments[i] for i in range(k)])[: stripe.payload_bytes]
        batch.result.degraded = True
        codec = self._codec(k, stripe.parity_count)
        # decode_arrays returns a contiguous (k, length) stack, so the
        # stripe payload is its raw row-major bytes — one copy, no joins.
        data = codec.decode_arrays(fragments)
        return data.tobytes()[: stripe.payload_bytes]

    @staticmethod
    def _read_fragment(
        batch: _IoBatch, device: FlashDevice, address: Tuple[int, int]
    ) -> Optional[bytes]:
        """Read one fragment; an unreadable one returns None.

        Corruption and a transient fault are recorded in the batch's
        per-device sample (health-monitor food); corruption additionally
        lands in the device's ``corrupt_chunks`` set for targeted scrubbing.
        A device that failed after the stripe was surveyed (a fail-stop that
        fired during this operation) cannot serve the fragment either.
        """
        try:
            return batch.read(device, address)
        except (ChunkCorruptedError, TransientIoError, DeviceFailedError):
            return None

    # ------------------------------------------------------------------
    # Partial updates (paper §II-B: direct vs delta parity updating)
    # ------------------------------------------------------------------
    def update_range(self, key: ObjectKey, offset: int, data: bytes) -> ArrayIoResult:
        """Update ``data`` at byte ``offset`` of a stored object in place.

        Only the affected stripes are touched. For each parity stripe the
        cheaper of the two parity-update strategies is chosen by fragment
        reads, as the paper prescribes:

        - **delta**: read the old data fragments and old parity, apply
          ``P' = P + C * (D' + D)``;
        - **direct**: read the untouched sibling fragments and re-encode.

        The object must be fully healthy (no missing or corrupt fragments);
        degraded objects should be repaired (or restriped) first.

        Raises:
            FlashError: the range falls outside the object.
        """
        extent = self.get_extent(key)
        if offset < 0 or offset + len(data) > extent.size:
            raise FlashError(
                f"update [{offset}, {offset + len(data)}) outside object of "
                f"{extent.size} bytes"
            )
        if not data:
            return ArrayIoResult()
        by_id = self._devices_by_id
        batch = _IoBatch(self.clock.now, op="update")
        position = 0
        for stripe in extent.stripes:
            stripe_end = position + stripe.payload_bytes
            if stripe_end > offset and position < offset + len(data):
                self._update_stripe(stripe, batch, by_id, position, offset, data)
            position = stripe_end
        return self._finish(batch)

    def _update_stripe(
        self,
        stripe: StripeDescriptor,
        batch: _IoBatch,
        by_id: Dict[int, FlashDevice],
        stripe_start: int,
        offset: int,
        data: bytes,
    ) -> None:
        local_start = max(0, offset - stripe_start)
        local_end = min(stripe.payload_bytes, offset + len(data) - stripe_start)
        stripe_id = stripe.stripe_id
        #: fragment index -> (device, address)
        homes = {
            slot.fragment_index: (by_id[slot.device_id], (stripe_id, slot.fragment_index))
            for slot in stripe.slots
        }

        if stripe.replicated:
            # One logical fragment replicated everywhere: read any healthy
            # copy, patch, push the new content to every replica.
            old = batch.read(*homes[min(homes)])
            patched = bytearray(old)
            patched[local_start:local_end] = data[
                stripe_start + local_start - offset : stripe_start + local_end - offset
            ]
            # One byte string for every replica, as ``write_object`` sends.
            content = bytes(patched)
            for device, address in homes.values():
                batch.write(device, address, content)
            return

        k = stripe.data_count
        chunk_length = stripe.chunk_length
        first = local_start // chunk_length
        last = (local_end - 1) // chunk_length
        updated = list(range(first, last + 1))
        codec = self._codec(k, stripe.parity_count)
        plan = codec.plan_update(len(updated)) if stripe.parity_count else None

        # The updated fragments are always read (read-modify-write).
        old_fragments: Dict[int, bytes] = {}
        new_fragments: Dict[int, bytes] = {}
        for index in updated:
            old = batch.read(*homes[index])
            patched = bytearray(old)
            frag_start = index * chunk_length
            lo = max(local_start, frag_start)
            hi = min(local_end, frag_start + chunk_length)
            patched[lo - frag_start : hi - frag_start] = data[
                stripe_start + lo - offset : stripe_start + hi - offset
            ]
            old_fragments[index] = old
            new_fragments[index] = bytes(patched)

        if plan is None:
            parity_payloads: List[bytes] = []
        elif plan.method == "delta":
            parity_payloads = [
                batch.read(*homes[k + row]) for row in range(stripe.parity_count)
            ]
            for index in updated:
                parity_payloads = codec.delta_update(
                    parity_payloads, index, old_fragments[index], new_fragments[index]
                )
        else:
            full = {}
            for index in range(k):
                if index in new_fragments:
                    full[index] = new_fragments[index]
                else:
                    full[index] = batch.read(*homes[index])
            parity_payloads = codec.encode([full[index] for index in range(k)])

        for index in updated:
            batch.write(*homes[index], new_fragments[index])
        for row, payload in enumerate(parity_payloads):
            batch.write(*homes[k + row], payload)

    # ------------------------------------------------------------------
    # Delete
    # ------------------------------------------------------------------
    def delete_object(self, key: ObjectKey) -> ArrayIoResult:
        """Remove an object's chunks (from online devices) and metadata."""
        extent = self.get_extent(key)
        self._discard_chunks(extent)
        del self._objects[key]
        self._unregister_stripes(extent)
        self._logical_bytes -= extent.size
        self._data_bytes -= extent.data_bytes
        self._redundancy_bytes -= extent.redundancy_bytes
        # Deletes are metadata-only (TRIM); no simulated time billed.
        return ArrayIoResult()

    # ------------------------------------------------------------------
    # Health and failure lifecycle
    # ------------------------------------------------------------------
    def fail_device(self, device_id: int) -> None:
        """Shoot down a device; resident chunks become unreadable."""
        self.devices[device_id].fail()

    def replace_device(self, device_id: int) -> None:
        """Insert a fresh spare into a failed slot."""
        device = self.devices[device_id]
        if device.is_online:
            raise DeviceFailedError(device_id, f"device {device_id} is not failed")
        device.replace()

    def object_health(self, key: ObjectKey) -> ObjectHealth:
        """Classify an object as healthy, degraded-but-recoverable, or lost."""
        return self.triage_object(key)[1]

    def triage_object(self, key: ObjectKey) -> Tuple[List[ChunkLocation], ObjectHealth]:
        """Missing chunks and health in one stripe walk.

        The missing list holds every chunk whose device cannot serve it
        (failed, or a spare that does not hold it yet); it is complete even
        for a LOST object, since every stripe is walked.
        """
        extent = self.get_extent(key)
        by_id = self._devices_by_id
        missing: List[ChunkLocation] = []
        health = ObjectHealth.HEALTHY
        for stripe in extent.stripes:
            stripe_id = stripe.stripe_id
            slots = stripe.slots
            present = 0
            for slot in slots:
                if by_id[slot.device_id].has_chunk((stripe_id, slot.fragment_index)):
                    present += 1
                else:
                    missing.append(stripe.locate(slot))
            if present == len(slots):
                continue
            # k is 1 for a replicated stripe: any one copy serves it.
            if present < stripe.data_count:
                health = ObjectHealth.LOST
            elif health is ObjectHealth.HEALTHY:
                health = ObjectHealth.DEGRADED
        return missing, health

    # ------------------------------------------------------------------
    # Repair (rebuild onto a replacement spare, scrub in place)
    # ------------------------------------------------------------------
    def rebuild_object(self, key: ObjectKey) -> ArrayIoResult:
        """Reconstruct the object's missing fragments onto online devices.

        Fragments whose home device is still failed are skipped (there is
        nowhere to put them until a spare arrives).

        Raises:
            UnrecoverableDataError: a stripe cannot be decoded.
        """
        extent = self.get_extent(key)
        by_id = self._devices_by_id
        batch = _IoBatch(self.clock.now, op="rebuild")
        for stripe in extent.stripes:
            stripe_id = stripe.stripe_id
            missing: List[ChunkLocation] = []
            for slot in stripe.slots:
                device = by_id[slot.device_id]
                if device.is_online and not device.has_chunk((stripe_id, slot.fragment_index)):
                    missing.append(stripe.locate(slot))
            if missing:
                fragments = self._gather(stripe, batch, by_id)
                self._regenerate(stripe, fragments, missing, batch, by_id)
        result = self._finish(batch)
        result.degraded = True
        return result

    def _regenerate(
        self,
        stripe: StripeDescriptor,
        fragments: Dict[int, bytes],
        chunks: List[ChunkLocation],
        batch: _IoBatch,
        by_id: Dict[int, FlashDevice],
    ) -> None:
        """Regenerate ``chunks`` of a stripe from fragments in hand, and program them.

        The one place rebuild and scrub turn survivors into repaired chunks:
        a replicated stripe copies a replica, a parity stripe decodes its
        ``k`` fragments once and re-derives just the chunks asked for.

        Raises:
            UnrecoverableDataError: fewer fragments than the stripe needs.
        """
        k = stripe.data_count
        if len(fragments) < k:
            raise UnrecoverableDataError(
                f"stripe {stripe.stripe_id}: {len(fragments)} readable fragments, {k} needed"
            )
        if stripe.replicated:
            payload = next(iter(fragments.values()))
            for chunk in chunks:
                batch.write(by_id[chunk.device_id], chunk.address, payload)
            return
        codec = self._codec(k, stripe.parity_count)
        rebuilt = codec.reconstruct_arrays(
            fragments, [chunk.fragment_index for chunk in chunks]
        )
        for chunk in chunks:
            batch.write(
                by_id[chunk.device_id], chunk.address, rebuilt[chunk.fragment_index].tobytes()
            )

    def scrub(self, keys: Optional[Iterable[ObjectKey]] = None) -> "ScrubReport":
        """Verify stored chunks and repair silent corruption in place.

        Walks every stored chunk of the given ``keys`` (default: every
        object — a full sweep). Corrupted fragments are regenerated from the
        healthy fragments of their stripe (replica copy or Reed-Solomon
        reconstruction) and rewritten in place. Objects whose stripes have
        too few healthy fragments are reported as unrecoverable and left
        untouched (the caller purges them: ``RecoveryManager.purge``).

        Passing ``keys`` makes incremental, prioritized scrubbing possible:
        the scrub scheduler feeds class-ordered batches (and jumps objects
        with recorded corrupt chunks to the front) so a sweep can run in
        idle gaps instead of monopolizing the array.
        """
        report = ScrubReport()
        by_id = self._devices_by_id
        batch = _IoBatch(self.clock.now, op="scrub")
        if keys is None:
            targets = list(self._objects.items())
        else:
            targets = [
                (key, self._objects[key]) for key in keys if key in self._objects
            ]
        for key, extent in targets:
            self._scrub_extent(key, extent, batch, by_id, report)
        report.io = self._finish(batch)
        return report

    def _scrub_extent(
        self,
        key: ObjectKey,
        extent: ObjectExtent,
        batch: _IoBatch,
        by_id: Dict[int, FlashDevice],
        report: "ScrubReport",
    ) -> None:
        report.objects_checked += 1
        object_ok = True
        for stripe in extent.stripes:
            stripe_id = stripe.stripe_id
            good: Dict[int, bytes] = {}
            bad: List[ChunkLocation] = []
            # Every present chunk is read: that is how scrub finds corruption.
            for slot in stripe.slots:
                device = by_id[slot.device_id]
                address = (stripe_id, slot.fragment_index)
                if not device.has_chunk(address):
                    continue
                report.chunks_checked += 1
                payload = self._read_fragment(batch, device, address)
                if payload is not None:
                    good[slot.fragment_index] = payload
                elif device.is_available:
                    # Damaged in place; a device that failed mid-scrub has
                    # nothing left to repair.
                    bad.append(stripe.locate(slot))
            if not bad:
                continue
            try:
                # The first k good fragments in slot order decode the stripe.
                first_k = dict(islice(good.items(), stripe.data_count))
                self._regenerate(stripe, first_k, bad, batch, by_id)
            except UnrecoverableDataError:
                object_ok = False
                continue
            report.chunks_repaired += len(bad)
        if not object_ok:
            report.unrecoverable_objects.append(key)

    def corrupt_object_keys(self) -> List[ObjectKey]:
        """Owners of every chunk currently flagged corrupt on some device.

        Fed by the devices' ``corrupt_chunks`` sets (recorded on a failed
        integrity check), this is the targeted-scrub worklist: repair exactly what
        reads have tripped over, without a full sweep. Deterministic order
        (device id, then address) so campaigns replay identically.
        """
        keys: List[ObjectKey] = []
        seen = set()
        for device in self.devices:
            for address in sorted(device.corrupt_chunks):
                key = self._stripe_owners.get(address[0])
                if key is not None and key not in seen:
                    seen.add(key)
                    keys.append(key)
        return keys

    def restripe_object(self, key: ObjectKey, scheme: Optional[RedundancyScheme] = None) -> ArrayIoResult:
        """Re-lay an object across the *currently online* devices.

        Used by recovery when no spare is available: a degraded object is
        read (decoding around failures) and rewritten over the surviving
        devices, recreating fresh redundancy there — the paper's
        "additional data redundancy" effect of prioritized recovery.

        Args:
            scheme: redundancy scheme for the new layout; defaults to the
                object's current scheme.

        Raises:
            UnrecoverableDataError: the object cannot be decoded.
        """
        extent = self.get_extent(key)
        scheme = scheme or extent.scheme
        payload, read_io = self.read_object(key)
        write_io = self.write_object(key, payload, scheme, overwrite=True)
        read_io.merge(write_io)
        read_io.degraded = True
        return read_io

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _codec(self, k: int, m: int) -> RSCodec:
        try:
            return self._codecs[(k, m)]
        except KeyError:
            codec = RSCodec(k, m)
            self._codecs[(k, m)] = codec
            return codec

    def decoder_cache_stats(self) -> Dict[str, int]:
        """Aggregate decoder-matrix cache counters across all codecs.

        Codecs are shared per ``(k, m)`` geometry, so every degraded read
        and rebuild that sees the same survivor pattern reuses one inverted
        matrix; these counters make that observable (tests, recovery).
        """
        hits = misses = entries = 0
        for codec in self._codecs.values():
            info = codec.decoder_cache_info()
            hits += info.hits
            misses += info.misses
            entries += info.size
        return {"hits": hits, "misses": misses, "entries": entries}

    def __repr__(self) -> str:
        return (
            f"FlashArray(devices={self.width}, online={self.online_count}, "
            f"objects={len(self._objects)}, chunk_size={self.chunk_size})"
        )
