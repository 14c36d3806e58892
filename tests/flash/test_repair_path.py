"""The one repair path: degraded read, rebuild and scrub share one gather
(``FlashArray._gather``) and one regenerate step (``_regenerate``).

Repair is judged against what ``write_object`` stored: after a failure, a
spare, a silently corrupted chunk, a rebuild and a scrub, every device's
chunk map equals its snapshot taken right after the write.
"""

import numpy as np
import pytest

from repro.errors import UnrecoverableDataError
from repro.flash.array import FlashArray, ObjectHealth
from repro.flash.latency import ZERO_COST
from repro.flash.stripe import ParityScheme, ReplicationScheme

CHUNK = 64
#: The schemes the engine-equivalence script drives, minus 0-parity, which
#: has nothing to repair from (``test_zero_parity_*`` covers it).
REDUNDANT = (ReplicationScheme(), ParityScheme(1), ParityScheme(2))
#: Multi-stripe under every scheme on five devices, one with a short tail.
SIZES = (12 * CHUNK, 9 * CHUNK + 37)
FAILED = 1


def make_array():
    return FlashArray(
        num_devices=5, device_capacity=10**6, chunk_size=CHUNK, model=ZERO_COST
    )


def payload_of(size, seed=0):
    return np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8).tobytes()


def chunk_maps(array):
    """Every device's stored bytes by address (the test's ground truth)."""
    return {device.device_id: dict(device._chunks) for device in array.devices}


def corrupt(array, chunk):
    array.devices[chunk.device_id].corrupt_chunk(chunk.address)


def survivor_in_last_stripe(array, key):
    stripe = array.get_extent(key).stripes[-1]
    return next(chunk for chunk in stripe.chunks if chunk.device_id != FAILED)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("scheme", REDUNDANT, ids=lambda scheme: scheme.name)
def test_rebuild_then_scrub_restores_every_stored_byte(scheme, size):
    array = make_array()
    payload = payload_of(size, seed=size)
    array.write_object("x", payload, scheme)
    assert len(array.get_extent("x").stripes) > 1
    stored = chunk_maps(array)

    array.fail_device(FAILED)
    array.replace_device(FAILED)
    assert array.read_object("x")[0] == payload
    victim = survivor_in_last_stripe(array, "x")
    # A stripe that tolerates two losses takes the corruption before the
    # rebuild, so the rebuild's gather has to read around it; otherwise
    # the corruption lands once the stripe is whole again.
    corrupt_first = scheme.tolerable_failures(array.width) >= 2
    if corrupt_first:
        corrupt(array, victim)
        assert array.read_object("x")[0] == payload

    array.rebuild_object("x")
    assert array.read_object("x")[0] == payload
    if not corrupt_first:
        corrupt(array, victim)
        assert array.read_object("x")[0] == payload

    report = array.scrub()
    assert report.chunks_repaired == 1
    assert not report.unrecoverable_objects
    assert chunk_maps(array) == stored
    assert all(
        device.verify_chunk(address)
        for device in array.devices
        for address in stored[device.device_id]
    )
    payload_read, result = array.read_object("x")
    assert payload_read == payload
    assert not result.degraded


def test_zero_parity_loss_is_reported_and_nothing_is_written():
    array = make_array()
    array.write_object("x", payload_of(SIZES[1]), ParityScheme(0))
    corrupt(array, survivor_in_last_stripe(array, "x"))
    damaged = chunk_maps(array)
    with pytest.raises(UnrecoverableDataError):
        array.read_object("x")

    report = array.scrub()
    assert report.unrecoverable_objects == ["x"]
    assert report.chunks_repaired == 0
    assert report.io.chunks_written == 0

    array.fail_device(FAILED)
    array.replace_device(FAILED)
    with pytest.raises(UnrecoverableDataError):
        array.rebuild_object("x")
    after = chunk_maps(array)
    assert after.pop(FAILED) == {}
    del damaged[FAILED]
    assert after == damaged


def test_triage_lists_every_missing_chunk_of_a_lost_object():
    array = make_array()
    array.write_object("x", payload_of(SIZES[0]), ParityScheme(1))
    extent = array.get_extent("x")
    array.fail_device(0)
    array.fail_device(1)
    missing, health = array.triage_object("x")
    assert health is ObjectHealth.LOST
    # Every stripe spans all five devices, so every stripe is lost; the
    # walk still reports the missing chunks of all of them, in order.
    assert missing == [
        chunk
        for stripe in extent.stripes
        for chunk in stripe.chunks
        if chunk.device_id in (0, 1)
    ]
    assert {chunk.stripe_id for chunk in missing} == {
        stripe.stripe_id for stripe in extent.stripes
    }
    assert array.object_health("x") is health


def suspect_scenario():
    """2-parity, a spare in slot 0, SUSPECT device 1, a bad chunk on device 2."""
    array = make_array()
    payload = payload_of(3 * 3 * CHUNK, seed=3)  # three full stripes, k = 3
    array.write_object("x", payload, ParityScheme(2))
    array.fail_device(0)
    array.replace_device(0)
    array.devices[1].suspect()
    middle = array.get_extent("x").stripes[1]
    corrupt(array, next(chunk for chunk in middle.chunks if chunk.device_id == 2))
    return array, payload


def record_reads(array):
    log = []
    for device in array.devices:
        def spy(address, device=device, original=device.read_chunk):
            log.append((device.device_id, address[0]))
            return original(address)

        device.read_chunk = spy
    return log


def test_rebuild_reads_suspect_fragments_last_like_a_degraded_read():
    reader, payload = suspect_scenario()
    read_log = record_reads(reader)
    assert reader.read_object("x")[0] == payload

    rebuilder, _ = suspect_scenario()
    rebuild_log = record_reads(rebuilder)
    rebuilder.rebuild_object("x")
    assert rebuild_log == read_log

    stripes = [stripe.stripe_id for stripe in rebuilder.get_extent("x").stripes]
    per_stripe = {
        stripe_id: [device for device, read in rebuild_log if read == stripe_id]
        for stripe_id in stripes
    }
    # Three clean ONLINE holders cover k = 3: the suspect is never read ...
    assert 1 not in per_stripe[stripes[0]] + per_stripe[stripes[2]]
    # ... until a checksum failure leaves only two, and then it is read last.
    assert per_stripe[stripes[1]][-1] == 1
    assert per_stripe[stripes[1]].count(1) == 1
    assert len(per_stripe[stripes[1]]) == 4
    assert rebuilder.read_object("x")[0] == payload
