"""Layout properties of the array write path and the read order it implies.

The write path slices data fragments straight out of the payload and keeps
per-extent byte totals as it goes; the zero-padded ``(k, length)`` stripe
stack and a walk over the chunks stay the definitions those shortcuts must
agree with. The read path pulls fragments in index order only when every
holder of a stripe is ONLINE with no known-corrupt chunk — a healthy object
is then read as one run per device, each device's fragments in stripe
order — and everywhere else it must follow
:meth:`FlashArray._fragment_order`, fragment by fragment.
"""

import contextlib
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.erasure.rs import RSCodec
from repro.errors import ChunkCorruptedError, UnrecoverableDataError
from repro.flash.array import FlashArray
from repro.flash.device import FlashDevice
from repro.flash.latency import ZERO_COST
from repro.flash.stripe import (
    ChunkKind,
    ParityScheme,
    ReplicationScheme,
)

CHUNK = 16
WIDTH = 5
SCHEMES = [
    ReplicationScheme(),
    ParityScheme(0),
    ParityScheme(1),
    ParityScheme(2),
    ParityScheme(1, rotate=False),
]


def make_array():
    return FlashArray(
        num_devices=WIDTH, device_capacity=10**6, chunk_size=CHUNK, model=ZERO_COST
    )


def payload_of(size, seed):
    return random.Random(seed).randbytes(size)


@st.composite
def boundary_sizes(draw, scheme):
    """Payload sizes on and around the ``k x chunk_size`` stripe boundaries."""
    k = scheme.data_chunks_per_stripe(WIDTH)
    stripes = draw(st.integers(min_value=0, max_value=3))
    nudge = draw(st.integers(min_value=-k - 1, max_value=k + 1))
    return max(0, stripes * k * CHUNK + nudge)


scheme_and_size = st.sampled_from(SCHEMES).flatmap(
    lambda scheme: st.tuples(st.just(scheme), boundary_sizes(scheme))
)


class TestLayout:
    @given(scheme_and_size, st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=150, deadline=None)
    def test_stored_fragments_match_padded_layout(self, case, seed):
        scheme, size = case
        array = make_array()
        array.write_object("pad", b"x" * 7, ParityScheme(1))  # shifts the rotation
        payload = payload_of(size, seed)
        array.write_object("obj", payload, scheme)
        extent = array.get_extent("obj")

        offset = 0
        for stripe in extent.stripes:
            raw = payload[offset : offset + stripe.payload_bytes]
            offset += stripe.payload_bytes
            length = stripe.chunk_length
            # The stripe payload, zero-padded to k fragments of one length.
            padded = raw.ljust(stripe.data_count * length, b"\0")
            stack = np.frombuffer(padded, dtype=np.uint8).reshape(
                stripe.data_count, length
            )
            parity = RSCodec(stripe.data_count, stripe.parity_count).encode_arrays(stack)
            for chunk in stripe.chunks:
                stored, _ = array.devices[chunk.device_id].read_chunk(chunk.address)
                assert chunk.length == length == len(stored)
                assert chunk.address == (chunk.stripe_id, chunk.fragment_index)
                if chunk.kind is ChunkKind.PARITY:
                    row = parity[chunk.fragment_index - stripe.data_count]
                elif chunk.kind is ChunkKind.REPLICA:
                    row = stack[0]
                else:
                    row = stack[chunk.fragment_index]
                assert stored == row.tobytes()
        assert offset == size

        chunks = [chunk for stripe in extent.stripes for chunk in stripe.chunks]
        data = sum(chunk.length for chunk in chunks if chunk.kind is ChunkKind.DATA)
        assert extent.data_bytes == data
        assert extent.redundancy_bytes == sum(chunk.length for chunk in chunks) - data
        assert extent.stored_bytes == sum(chunk.length for chunk in chunks)
        assert array.stored_bytes_for("obj") == extent.stored_bytes
        assert sum(device.used_bytes for device in array.devices) == (
            extent.stored_bytes + array.stored_bytes_for("pad")
        )
        assert array.read_object("obj")[0] == payload


@contextlib.contextmanager
def recorded_reads():
    """Log every chunk a device reads as ``(device_id, address)``.

    A ``read_chunk`` call logs its address; a run read logs the addresses
    ``stored_run`` looked up, in run order, when ``read_run`` reads them.
    A run that is looked up but never read logs nothing.
    """
    log = []
    looked_up = {}
    read_chunk = FlashDevice.read_chunk
    stored_run = FlashDevice.stored_run
    read_run = FlashDevice.read_run

    def recording_chunk(self, address):
        log.append((self.device_id, address))
        return read_chunk(self, address)

    def recording_lookup(self, addresses):
        payloads = stored_run(self, addresses)
        if payloads is not None:
            looked_up[self.device_id] = list(addresses)
        return payloads

    def recording_run(self, payloads):
        log.extend((self.device_id, address) for address in looked_up.pop(self.device_id))
        return read_run(self, payloads)

    with mock.patch.object(FlashDevice, "read_chunk", recording_chunk), mock.patch.object(
        FlashDevice, "stored_run", recording_lookup
    ), mock.patch.object(FlashDevice, "read_run", recording_run):
        yield log


def per_device(pulls):
    """``(device_id, address)`` pulls as each device's addresses, in order."""
    grouped = {}
    for device_id, address in pulls:
        grouped.setdefault(device_id, []).append(address)
    return grouped


def expected_pulls(array, stripe, rotten):
    """The reads ``_fragment_order`` prescribes for one stripe.

    ``rotten`` holds the addresses whose stored bytes fail their checksum;
    a replicated stripe stops at the first good copy, a parity stripe at
    its ``k``-th good fragment.
    """
    by_id = {device.device_id: device for device in array.devices}
    available = {
        chunk.fragment_index: by_id[chunk.device_id]
        for chunk in stripe.chunks
        if by_id[chunk.device_id].has_chunk(chunk.address)
    }
    needed = 1 if stripe.replicated else stripe.data_count
    pulls = []
    for index in FlashArray._fragment_order(stripe.stripe_id, available):
        if needed == 0:
            break
        address = (stripe.stripe_id, index)
        pulls.append((available[index].device_id, address))
        if address not in rotten:
            needed -= 1
    return pulls


class TestReadOrder:
    @given(
        scheme=st.sampled_from(SCHEMES),
        seed=st.integers(min_value=0, max_value=2**16),
        suspect=st.none() | st.integers(min_value=0, max_value=WIDTH - 1),
        corrupt=st.sets(st.integers(min_value=0, max_value=WIDTH - 1), max_size=3),
        tripped=st.booleans(),
        rotation=st.integers(min_value=0, max_value=WIDTH - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_untrusted_stripes_follow_fragment_order(
        self, scheme, seed, suspect, corrupt, tripped, rotation
    ):
        assume(suspect is not None or (corrupt and tripped))
        array = make_array()
        for filler in range(rotation):
            array.write_object(f"pad{filler}", b"x", ParityScheme(0))
        k = scheme.data_chunks_per_stripe(WIDTH)
        payload = payload_of(k * CHUNK, seed)
        array.write_object("obj", payload, scheme)
        (stripe,) = array.get_extent("obj").stripes

        rotten = set()
        for position in {position % len(stripe.chunks) for position in corrupt}:
            chunk = stripe.chunks[position]
            device = array.devices[chunk.device_id]
            device.corrupt_chunk(chunk.address)
            rotten.add(chunk.address)
            if tripped:  # a read has met the damage: the device remembers it
                with pytest.raises(ChunkCorruptedError):
                    device.read_chunk(chunk.address)
                assert chunk.address in device.corrupt_chunks
        if suspect is not None:
            array.devices[suspect].suspect()

        expected = expected_pulls(array, stripe, rotten)
        with recorded_reads() as log:
            try:
                assert array.read_object("obj")[0] == payload
            except UnrecoverableDataError:
                pass  # too much damage: the order up to giving up still counts
        assert log == expected

    def test_suspect_holder_of_fragment_zero_is_read_last(self):
        array = make_array()
        payload = payload_of(3 * CHUNK, seed=3)
        array.write_object("obj", payload, ParityScheme(2))
        (stripe,) = array.get_extent("obj").stripes
        first = next(chunk for chunk in stripe.chunks if chunk.fragment_index == 0)
        array.devices[first.device_id].suspect()
        with recorded_reads() as read_log:
            data, result = array.read_object("obj")
        assert data == payload and result.degraded
        # Index order would have started at fragment 0; trusted-first order
        # reads 1, 2 and a parity fragment and never touches the suspect.
        assert [address[1] for _, address in read_log] == [1, 2, 3]

    def test_known_corrupt_replica_is_not_reread(self):
        array = make_array()
        payload = payload_of(CHUNK, seed=4)
        array.write_object("obj", payload, ReplicationScheme())
        (stripe,) = array.get_extent("obj").stripes
        primary = stripe.data_chunks()[0]
        array.devices[primary.device_id].corrupt_chunk(primary.address)
        assert array.read_object("obj")[0] == payload  # trips the checksum
        with recorded_reads() as read_log:
            assert array.read_object("obj")[0] == payload
        assert [address[1] for _, address in read_log] == [1]

    def test_healthy_stripes_read_data_fragments_in_index_order(self):
        array = make_array()
        for scheme in SCHEMES:
            k = scheme.data_chunks_per_stripe(WIDTH)
            payload = payload_of(2 * k * CHUNK + 5, seed=5)
            array.write_object("obj", payload, scheme, overwrite=True)
            expected = [
                pull
                for stripe in array.get_extent("obj").stripes
                for pull in expected_pulls(array, stripe, rotten=())
            ]
            with recorded_reads() as read_log:
                data, result = array.read_object("obj")
            assert data == payload and not result.degraded
            # One run per device: each device's pulls in stripe order.
            assert per_device(read_log) == per_device(expected)
            assert all(address[1] < k for _, address in read_log)
