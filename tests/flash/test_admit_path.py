"""The admit path does each piece of byte work once, and only the work moves.

``write_object`` encodes all full stripes of an object in one
``RSCodec.encode_arrays`` call, and the packed tail stripe in one
``RSCodec.encode`` call, and hands each distinct fragment to the
devices once — a replicated stripe is one byte string programmed
``stripe_width`` times, and no byte of it is hashed. What is stored and what
every read verifies must be exactly what the stripe-by-stripe, chunk-by-chunk
path produced: the seed kernel in :mod:`repro.erasure.reference` stays the
definition of parity, and the device's provenance check (stored object vs.
programmed bytes) the definition of integrity.
"""

import contextlib
import random
import sys
import zlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.reference import encode_reference
from repro.erasure.rs import RSCodec
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, TornWrite
from repro.flash.array import FlashArray
from repro.flash.latency import ZERO_COST
from repro.flash.stripe import ChunkKind, ParityScheme, ReplicationScheme

from tests.flash.test_engine_equivalence import SCHEMES

CHUNK = 16


def make_array(width=5):
    return FlashArray(
        num_devices=width, device_capacity=10**6, chunk_size=CHUNK, model=ZERO_COST
    )


def stored(array, chunk):
    return array.devices[chunk.device_id].read_chunk(chunk.address)[0]


@st.composite
def parity_cases(draw):
    """(scheme, width, size): ``full`` whole stripes, then -1/0/+1 byte or a tail."""
    scheme = draw(st.sampled_from([ParityScheme(1), ParityScheme(2)]))
    width = draw(st.integers(min_value=4, max_value=6))
    stripe_bytes = scheme.data_chunks_per_stripe(width) * CHUNK
    full = draw(st.sampled_from([0, 1, 2, 7]))
    extra = draw(st.sampled_from([-1, 0, 1]) | st.integers(2, stripe_bytes - 1))
    return scheme, width, max(0, full * stripe_bytes + extra)


@contextlib.contextmanager
def recorded_encodes():
    """Log the ``(k, length)`` shape of every encode, through either entry."""
    shapes = []
    encode_arrays, encode = RSCodec.encode_arrays, RSCodec.encode

    def recording_arrays(self, stacked):
        shapes.append(stacked.shape)
        return encode_arrays(self, stacked)

    def recording(self, data):
        shapes.append((len(data), len(data[0])))
        return encode(self, data)

    with mock.patch.object(RSCodec, "encode_arrays", recording_arrays):
        with mock.patch.object(RSCodec, "encode", recording):
            yield shapes


class TestOneEncodePerObject:
    @given(parity_cases(), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=150, deadline=None)
    def test_parity_is_the_reference_encoding_of_each_stripe(self, case, seed):
        scheme, width, size = case
        array = make_array(width)
        array.write_object("pad", b"x" * 7, ParityScheme(1))  # shifts the rotation
        payload = random.Random(seed).randbytes(size)
        with recorded_encodes() as shapes:
            array.write_object("obj", payload, scheme)
        assert len(shapes) <= 2

        k = scheme.data_chunks_per_stripe(width)
        codec = RSCodec(k, scheme.parity)
        for stripe in array.get_extent("obj").stripes:
            by_index = {chunk.fragment_index: chunk for chunk in stripe.chunks}
            data = [stored(array, by_index[index]) for index in range(k)]
            parity = encode_reference(codec, data)
            for chunk in stripe.chunks:
                if chunk.kind is ChunkKind.PARITY:
                    assert stored(array, chunk) == parity[chunk.fragment_index - k]
        assert array.read_object("obj")[0] == payload

    def test_full_stripes_share_one_call_and_the_tail_takes_one_more(self):
        array = make_array()
        with recorded_encodes() as shapes:
            array.write_object("whole", bytes(7 * 3 * CHUNK), ParityScheme(2))
            array.write_object("tailed", bytes(7 * 3 * CHUNK + 5), ParityScheme(2))
            array.write_object("small", bytes(5), ParityScheme(2))
            array.write_object("lone", bytes(3 * CHUNK + 5), ParityScheme(2))
            array.write_object("plain", bytes(7 * 5 * CHUNK + 5), ParityScheme(0))
            array.write_object("mirror", bytes(7 * CHUNK + 5), ReplicationScheme())
        assert shapes == [
            (3, 7 * CHUNK), (3, 7 * CHUNK), (3, 2), (3, 2), (3, CHUNK), (3, 2),
        ]


class TestOneObjectPerDistinctFragment:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda scheme: scheme.name)
    def test_the_replicas_of_a_stripe_share_one_programmed_object(self, scheme):
        array = make_array()
        payload = random.Random(5).randbytes(9 * CHUNK + 3)
        array.write_object("obj", payload, scheme)
        for stripe in array.get_extent("obj").stripes:
            first, *others = (stored(array, chunk) for chunk in stripe.chunks)
            if stripe.replicated:
                assert others and all(other is first for other in others)
            for chunk in stripe.chunks:
                assert array.devices[chunk.device_id].verify_chunk(chunk.address)
        assert array.read_object("obj")[0] == payload

    def test_no_crc32_on_write_or_clean_read(self):
        flash = [module for name, module in sys.modules.items() if name.startswith("repro.flash")]
        assert not [module for module in flash if hasattr(module, "crc32")]
        array = make_array()
        payload = random.Random(6).randbytes(4 * CHUNK + 3)
        with mock.patch("zlib.crc32", wraps=zlib.crc32) as crc32:
            for scheme in SCHEMES:
                array.write_object(scheme.name, payload, scheme)
                assert array.read_object(scheme.name)[0] == payload
        crc32.assert_not_called()

    def test_torn_write_trips_only_the_replica_it_hit(self):
        torn = 2
        array = make_array()
        FaultInjector(
            FaultPlan(events=(TornWrite(rate=1.0, devices=(torn,)),), seed=3)
        ).attach(array)
        payload = random.Random(7).randbytes(6 * CHUNK + 3)
        array.write_object("obj", payload, ReplicationScheme())

        data, result = array.read_object("obj")
        assert data == payload
        assert result.degraded
        assert {
            device_id for device_id, sample in result.device_io.items() if sample.errors
        } == {torn}
        for stripe in array.get_extent("obj").stripes:
            for chunk in stripe.chunks:
                intact = array.devices[chunk.device_id].verify_chunk(chunk.address)
                assert intact == (chunk.device_id != torn)
