"""Stripe geometry and redundancy schemes.

The array manages data in *stripes* (paper §IV-C.3, Fig. 4): each stripe
spans the online devices, one chunk per device. A chunk is a data chunk, a
parity chunk (Reed-Solomon coded from the data chunks of the same stripe), or
a replica chunk (an identical copy of the data chunk, for the replication
scheme applied to metadata and dirty objects). Parity chunks rotate across
devices round-robin by stripe id for an even distribution.

Unlike RAID, the number of parity chunks per stripe is *variable* — that is
exactly the mechanism differentiated redundancy is built from. The scheme
vocabulary:

- :class:`ParityScheme` — ``m`` parity chunks per stripe (``m = 0`` means no
  redundancy, the paper's "0-parity");
- :class:`ReplicationScheme` — every chunk replicated across the stripe
  ("full replication").
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

from repro.errors import StripeLayoutError

__all__ = [
    "ChunkKind",
    "ChunkLocation",
    "FragmentSlot",
    "ParityScheme",
    "RedundancyScheme",
    "ReplicationScheme",
    "StripeDescriptor",
]


class ChunkKind(enum.Enum):
    """Role of a chunk within its stripe."""

    DATA = "data"
    PARITY = "parity"
    REPLICA = "replica"


@dataclass(frozen=True)
class FragmentSlot:
    """One slot of a stripe plan: which device gets which fragment."""

    device_id: int
    fragment_index: int
    kind: ChunkKind


class ChunkLocation(NamedTuple):
    """A placed chunk: stripe, fragment, device, role, and size.

    Derived from a stripe's layout, and built only where a chunk record is
    handed out (the missing list of a triage, the chunks a repair
    regenerates); the engine's own loops walk the stripe's slots instead.
    """

    stripe_id: int
    fragment_index: int
    device_id: int
    kind: ChunkKind
    length: int

    @property
    def address(self) -> Tuple[int, int]:
        """The on-device address, ``(stripe_id, fragment_index)``."""
        return (self.stripe_id, self.fragment_index)


class StripeDescriptor(NamedTuple):
    """Metadata for one stripe of an object."""

    stripe_id: int
    payload_bytes: int
    data_count: int
    parity_count: int
    #: The memoized layout the stripe was written with (one slot per chunk,
    #: in slot order), shared by every stripe of the same rotation.
    slots: Tuple[FragmentSlot, ...]
    #: Length of every chunk of the stripe.
    chunk_length: int
    #: True when the stripe is replica-based rather than parity-based.
    replicated: bool = False

    @property
    def width(self) -> int:
        return len(self.slots)

    def locate(self, slot: FragmentSlot) -> ChunkLocation:
        """The record of the chunk one of this stripe's slots placed."""
        return ChunkLocation(
            self.stripe_id, slot.fragment_index, slot.device_id, slot.kind, self.chunk_length
        )

    @property
    def chunks(self) -> Tuple[ChunkLocation, ...]:
        """The stripe's chunk records, derived from its layout."""
        return tuple([self.locate(slot) for slot in self.slots])

    def data_chunks(self) -> List[ChunkLocation]:
        return [chunk for chunk in self.chunks if chunk.kind is ChunkKind.DATA]


class RedundancyScheme:
    """Base class for per-object redundancy schemes.

    A scheme is a *policy value*: immutable, comparable, and resolved against
    the current array width only when a stripe is actually laid out.
    """

    name: str = "abstract"

    def data_chunks_per_stripe(self, width: int) -> int:
        """Number of payload-carrying chunks in a stripe of ``width`` slots."""
        raise NotImplementedError

    def tolerable_failures(self, width: int) -> int:
        """How many device losses a stripe of this width survives."""
        raise NotImplementedError

    def storage_multiplier(self, width: int) -> float:
        """Stored bytes per logical byte, ignoring padding."""
        raise NotImplementedError

    def plan(self, devices: Sequence[int], rotation: int) -> List[FragmentSlot]:
        """Assign fragment roles to device slots for one stripe.

        Args:
            devices: ids of the online devices the stripe will span.
            rotation: stripe sequence number, used to rotate parity/primary
                placement round-robin.
        """
        self.validate(len(devices))
        layouts = self.layouts(tuple(devices))
        return list(layouts[rotation % len(layouts)])

    def layouts(self, devices: Tuple[int, ...]) -> Tuple[Tuple[FragmentSlot, ...], ...]:
        """Every distinct stripe layout over ``devices``, memoized.

        Placement repeats with the scheme's period, so stripe ``s`` uses
        ``layouts[s % len(layouts)]``. The write path asks once per object,
        for a width :meth:`validate` has already accepted, and indexes per
        stripe — no re-validation and no copy per stripe.
        """
        return _layouts(self, devices)

    def _plan_period(self, width: int) -> int:
        """After how many stripes placement repeats."""
        return width

    def _plan_slots(
        self, devices: Tuple[int, ...], rotation: int
    ) -> List[FragmentSlot]:
        """Build one stripe layout (uncached; ``rotation`` pre-normalized)."""
        raise NotImplementedError

    def validate(self, width: int) -> None:
        """Raise :class:`StripeLayoutError` if the scheme cannot fit."""
        raise NotImplementedError


@dataclass(frozen=True)
class ParityScheme(RedundancyScheme):
    """``m`` Reed-Solomon parity chunks per stripe (``m = 0`` → no redundancy).

    ``rotate=False`` pins the parity chunks to the first devices (a
    RAID-4-like layout) instead of the paper's round-robin distribution —
    used by the wear ablation to show why §IV-C.3 rotates parity.
    """

    parity: int
    rotate: bool = True

    def __post_init__(self) -> None:
        if self.parity < 0:
            raise StripeLayoutError("parity count cannot be negative")

    @property
    def name(self) -> str:
        return f"{self.parity}-parity"

    def data_chunks_per_stripe(self, width: int) -> int:
        self.validate(width)
        return width - self.parity

    def tolerable_failures(self, width: int) -> int:
        return self.parity

    def storage_multiplier(self, width: int) -> float:
        self.validate(width)
        return width / (width - self.parity)

    def validate(self, width: int) -> None:
        if width < 1:
            raise StripeLayoutError("stripe width must be at least 1")
        if self.parity >= width:
            raise StripeLayoutError(
                f"{self.parity} parity chunks need a stripe wider than {width}"
            )

    def _plan_period(self, width: int) -> int:
        return width if self.rotate else 1

    def _plan_slots(
        self, devices: Tuple[int, ...], rotation: int
    ) -> List[FragmentSlot]:
        width = len(devices)
        k = width - self.parity
        parity_slots = {(rotation + j) % width for j in range(self.parity)}
        slots: List[FragmentSlot] = []
        data_index = 0
        parity_index = 0
        for slot, device_id in enumerate(devices):
            if slot in parity_slots:
                slots.append(FragmentSlot(device_id, k + parity_index, ChunkKind.PARITY))
                parity_index += 1
            else:
                slots.append(FragmentSlot(device_id, data_index, ChunkKind.DATA))
                data_index += 1
        return slots


@dataclass(frozen=True)
class ReplicationScheme(RedundancyScheme):
    """Replicate each chunk across the whole stripe: one copy per device."""

    name = "full-replication"

    def data_chunks_per_stripe(self, width: int) -> int:
        self.validate(width)
        return 1

    def tolerable_failures(self, width: int) -> int:
        return width - 1

    def storage_multiplier(self, width: int) -> float:
        self.validate(width)
        return float(width)

    def validate(self, width: int) -> None:
        if width < 1:
            raise StripeLayoutError("stripe width must be at least 1")

    def _plan_slots(
        self, devices: Tuple[int, ...], rotation: int
    ) -> List[FragmentSlot]:
        width = len(devices)
        primary_slot = rotation % width
        slots: List[FragmentSlot] = [
            FragmentSlot(devices[primary_slot], 0, ChunkKind.DATA)
        ]
        for offset in range(1, width):
            slot = (primary_slot + offset) % width
            slots.append(FragmentSlot(devices[slot], offset, ChunkKind.REPLICA))
        return slots


@functools.lru_cache(maxsize=1024)
def _layouts(
    scheme: RedundancyScheme, devices: Tuple[int, ...]
) -> Tuple[Tuple[FragmentSlot, ...], ...]:
    """Memoized stripe layouts: schemes and slots are frozen, so sharing
    the table across calls is safe."""
    return tuple(
        tuple(scheme._plan_slots(devices, rotation))
        for rotation in range(scheme._plan_period(len(devices)))
    )


def split_payload(
    payload_size: int, chunk_size: int, data_per_stripe: int
) -> List[Tuple[int, int]]:
    """Plan stripes for a payload: returns ``(stripe_payload, chunk_length)``.

    Full stripes use ``chunk_size`` chunks; the final partial stripe uses
    equal-size chunks of ``ceil(remaining / k)`` bytes so padding stays below
    ``k`` bytes (Reed-Solomon needs equal-size fragments).
    """
    if chunk_size < 1:
        raise StripeLayoutError("chunk size must be at least one byte")
    if data_per_stripe < 1:
        raise StripeLayoutError("need at least one data chunk per stripe")
    full_stripe_payload = chunk_size * data_per_stripe
    plan: List[Tuple[int, int]] = []
    remaining = payload_size
    while remaining > 0:
        if remaining >= full_stripe_payload:
            plan.append((full_stripe_payload, chunk_size))
            remaining -= full_stripe_payload
        else:
            chunk_length = max(1, math.ceil(remaining / data_per_stripe))
            plan.append((remaining, chunk_length))
            remaining = 0
    return plan
