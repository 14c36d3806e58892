"""Chunk records derived from a stripe's layout, and per-device retirement.

A stripe stores the layout it was written with and one chunk length; its
:class:`ChunkLocation` records are derived from them. These properties pin
the derived records to the placement rule stated here from scratch, and
pin :meth:`FlashDevice.discard_chunks` to retiring its addresses one at a
time, in order.
"""

import dataclasses
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import ChunkCorruptedError
from repro.flash.array import FlashArray, ObjectHealth
from repro.flash.device import FlashDevice
from repro.flash.ftl import FtlConfig, PageMappedFtl
from repro.flash.latency import ZERO_COST
from repro.flash.stripe import (
    ChunkKind,
    ChunkLocation,
    ParityScheme,
    ReplicationScheme,
)

CHUNK = 16
SCHEMES = [
    ReplicationScheme(),
    ParityScheme(0),
    ParityScheme(1),
    ParityScheme(2),
    ParityScheme(1, rotate=False),
]


def prescribed_slots(scheme, devices, stripe_id):
    """``(device_id, fragment_index, kind)`` per slot, from the placement rule.

    Parity rotates round-robin by the *global* stripe id (pinned to the
    first slots without rotation); data fragments take the other slots in
    order. A replicated stripe puts its DATA copy at slot ``stripe_id %
    width`` and a replica on every slot that follows, around the stripe.
    """
    width = len(devices)
    if isinstance(scheme, ReplicationScheme):
        primary = stripe_id % width
        return [
            (devices[(primary + offset) % width], offset,
             ChunkKind.REPLICA if offset else ChunkKind.DATA)
            for offset in range(width)
        ]
    k = width - scheme.parity
    rotation = stripe_id % width if scheme.rotate else 0
    parity_slots = {(rotation + j) % width for j in range(scheme.parity)}
    slots, data_index, parity_index = [], 0, k
    for slot, device_id in enumerate(devices):
        if slot in parity_slots:
            slots.append((device_id, parity_index, ChunkKind.PARITY))
            parity_index += 1
        else:
            slots.append((device_id, data_index, ChunkKind.DATA))
            data_index += 1
    return slots


def prescribed_lengths(size, k):
    """Chunk length of every stripe: full stripes, then the shrunk tail."""
    full, rest = divmod(size, k * CHUNK)
    return [CHUNK] * full + ([max(1, math.ceil(rest / k))] if rest else [])


@st.composite
def layouts(draw):
    """A scheme, an array width it fits, a payload size around the k x chunk
    boundaries, and a number of earlier stripes that shifts the rotation."""
    scheme = draw(st.sampled_from(SCHEMES))
    width = draw(st.integers(min_value=1, max_value=6))
    assume(not isinstance(scheme, ParityScheme) or scheme.parity < width)
    k = scheme.data_chunks_per_stripe(width)
    stripes = draw(st.integers(min_value=0, max_value=3))
    nudge = draw(st.integers(min_value=-k - 1, max_value=k + 1))
    size = max(0, stripes * k * CHUNK + nudge)
    earlier = draw(st.integers(min_value=0, max_value=width))
    return scheme, width, size, earlier


def written(scheme, width, size, earlier):
    array = FlashArray(
        num_devices=width, device_capacity=10**6, chunk_size=CHUNK, model=ZERO_COST
    )
    for filler in range(earlier):
        array.write_object(f"pad{filler}", b"x", ParityScheme(0))
    payload = random.Random(size).randbytes(size)
    array.write_object("obj", payload, scheme)
    return array, payload


def expected_chunks(scheme, width, size, extent):
    """The chunk records the placement rule prescribes, stripe by stripe."""
    k = scheme.data_chunks_per_stripe(width)
    lengths = prescribed_lengths(size, k)
    assert len(extent.stripes) == len(lengths)
    return [
        [
            ChunkLocation(stripe.stripe_id, index, device_id, kind, length)
            for device_id, index, kind in prescribed_slots(
                scheme, list(range(width)), stripe.stripe_id
            )
        ]
        for stripe, length in zip(extent.stripes, lengths)
    ]


class TestDerivedRecords:
    @given(layouts())
    @settings(max_examples=200, deadline=None)
    def test_records_follow_the_placement_rule(self, case):
        scheme, width, size, earlier = case
        array, payload = written(scheme, width, size, earlier)
        extent = array.get_extent("obj")
        expected = expected_chunks(scheme, width, size, extent)
        for number, (stripe, chunks) in enumerate(zip(extent.stripes, expected)):
            assert stripe.stripe_id == earlier + number  # global stripe ids
            assert list(stripe.chunks) == chunks
            assert stripe.width == len(chunks)
            assert stripe.chunk_length == chunks[0].length
            assert stripe.data_chunks() == [c for c in chunks if c.kind is ChunkKind.DATA]
            for chunk in stripe.chunks:
                assert chunk.address == (chunk.stripe_id, chunk.fragment_index)
                stored, _ = array.devices[chunk.device_id].read_chunk(chunk.address)
                assert len(stored) == chunk.length
        assert array.read_object("obj")[0] == payload

    @given(layouts(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_triage_lists_every_chunk_of_a_failed_device(self, case, rng):
        scheme, width, size, earlier = case
        array, _ = written(scheme, width, size, earlier)
        extent = array.get_extent("obj")
        expected = expected_chunks(scheme, width, size, extent)
        failed = set()
        for device_id in rng.sample(range(width), width):
            array.fail_device(device_id)
            failed.add(device_id)
            missing, health = array.triage_object("obj")
            assert missing == [
                chunk for chunks in expected for chunk in chunks if chunk.device_id in failed
            ]
            present = [
                sum(chunk.device_id not in failed for chunk in chunks) for chunks in expected
            ]
            if any(
                count < stripe.data_count for count, stripe in zip(present, extent.stripes)
            ):
                assert health is ObjectHealth.LOST
            elif missing:
                assert health is ObjectHealth.DEGRADED
            else:
                assert health is ObjectHealth.HEALTHY


ADDRESSES = ((0, 0), (0, 1), (1, 0), (1, 2))
ABSENT = ((7, 7), (9, 0))
programs = st.lists(
    st.tuples(
        st.sampled_from(ADDRESSES),
        st.integers(min_value=0, max_value=200),
        st.sampled_from(["clean", "torn", "tripped"]),
    ),
    max_size=10,
)


def programmed_device(script, fail):
    """A device with an FTL, built from ``script``; identical for equal input."""
    device = FlashDevice(device_id=0, capacity_bytes=4096, model=ZERO_COST)
    device.ftl = PageMappedFtl(FtlConfig(page_size=64, pages_per_block=4, num_blocks=64))
    for address, length, damage in script:
        device.write_chunk(address, bytes([length % 251]) * length)
        if damage == "torn":
            device.tear_stored(address, keep_fraction=0.5)
        elif damage == "tripped" and length:  # an empty chunk cannot rot
            device.corrupt_chunk(address)
            with pytest.raises(ChunkCorruptedError):
                device.read_chunk(address)
            assert address in device.corrupt_chunks
    if fail:
        device.fail()
    return device


def state_of(device):
    return (
        device.used_bytes,
        device.chunk_count,
        dataclasses.astuple(device.stats),
        set(device.corrupt_chunks),
        dict(device._intended),
        device.ftl.mapped_pages,
        dataclasses.astuple(device.ftl.stats),
    )


class TestDiscardChunks:
    @given(
        programs,
        st.lists(st.sampled_from(ADDRESSES + ABSENT), max_size=8),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_retiring_one_address_at_a_time(self, script, addresses, fail):
        batched = programmed_device(script, fail)
        single = programmed_device(script, fail)
        before = state_of(batched)
        held = {address: len(batched._chunks[address]) for address in batched._chunks}

        batched.discard_chunks(addresses)
        for address in addresses:
            single.discard_chunks([address])

        assert state_of(batched) == state_of(single)
        if fail:
            assert state_of(batched) == before
            return
        dropped = {address for address in addresses if address in held}
        assert batched.stats.deletes == len(dropped)
        assert batched.stats.erases == before[2][6] + len(dropped)
        assert batched.used_bytes == before[0] - sum(held[a] for a in dropped)
        assert batched.chunk_count == before[1] - len(dropped)
        assert not dropped & batched.corrupt_chunks
        # The FTL keeps exactly the pages of the chunks still programmed,
        # at their intended (not torn) length.
        assert batched.ftl.mapped_pages == sum(
            batched.ftl.pages_for(len(batched._intended.get(address, payload)))
            for address, payload in batched._chunks.items()
        )
