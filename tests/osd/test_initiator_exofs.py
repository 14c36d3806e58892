"""Tests for the initiator API and the exofs volume layout."""

import pytest

from repro.errors import OsdError
from repro.flash.array import FlashArray
from repro.flash.latency import ZERO_COST
from repro.flash.stripe import ChunkKind, ParityScheme, ReplicationScheme
from repro.osd.exofs import format_volume, read_device_table, read_super_block
from repro.osd.initiator import OsdInitiator
from repro.osd.sense import SenseCode
from repro.osd.target import OsdTarget
from repro.osd.types import (
    DEVICE_TABLE,
    PARTITION_BASE,
    ROOT_DIRECTORY,
    SUPER_BLOCK,
    ObjectId,
)


def reo_like_policy(class_id: int):
    if class_id in (0, 1):
        return ReplicationScheme()
    if class_id == 2:
        return ParityScheme(2)
    return ParityScheme(0)


def make_stack(policy=reo_like_policy):
    array = FlashArray(num_devices=5, device_capacity=10**6, chunk_size=64, model=ZERO_COST)
    target = OsdTarget(array, policy=policy)
    format_volume(target)
    return array, target, OsdInitiator(target)


USER_A = ObjectId(PARTITION_BASE, 0x10005)


class TestExofs:
    def test_format_creates_reserved_objects(self):
        _array, target, _initiator = make_stack()
        for object_id in (SUPER_BLOCK, DEVICE_TABLE, ROOT_DIRECTORY):
            assert target.exists(object_id)
            assert target.get_info(object_id).class_id == 0

    def test_double_format_raises(self):
        _array, target, _initiator = make_stack()
        with pytest.raises(OsdError):
            format_volume(target)

    def test_super_block_content(self):
        array, target, _initiator = make_stack()
        super_block = read_super_block(target)
        assert super_block["magic"] == "exofs-reo"
        assert super_block["chunk_size"] == array.chunk_size
        assert super_block["num_devices"] == 5

    def test_device_table_content(self):
        _array, target, _initiator = make_stack()
        table = read_device_table(target)
        assert len(table["devices"]) == 5

    def test_metadata_replicated_across_all_devices(self):
        array, _target, _initiator = make_stack()
        extent = array.get_extent(SUPER_BLOCK)
        kinds = [chunk.kind for stripe in extent.stripes for chunk in stripe.chunks]
        assert kinds.count(ChunkKind.DATA) == len(extent.stripes)
        assert kinds.count(ChunkKind.REPLICA) == 4 * len(extent.stripes)

    def test_metadata_survives_four_failures(self):
        array, target, _initiator = make_stack()
        for device_id in range(4):
            array.fail_device(device_id)
        assert read_super_block(target)["magic"] == "exofs-reo"


class TestInitiator:
    def test_write_read_roundtrip(self):
        _array, _target, initiator = make_stack()
        initiator.write(USER_A, b"hello", class_id=3)
        payload, response = initiator.read(USER_A)
        assert payload == b"hello"
        assert response.ok

    def test_exists_and_remove(self):
        _array, target, initiator = make_stack()
        initiator.write(USER_A, b"hello")
        assert target.exists(USER_A)
        initiator.remove(USER_A)
        assert not target.exists(USER_A)

    def test_set_class_via_control_object(self):
        array, target, initiator = make_stack()
        initiator.write(USER_A, b"m" * 640, class_id=3)
        response = initiator.set_class(USER_A, 2)
        assert response.ok
        assert target.get_info(USER_A).class_id == 2
        assert array.get_extent(USER_A).redundancy_bytes > 0

    def test_query_via_control_object(self):
        array, _target, initiator = make_stack()
        initiator.write(USER_A, b"m" * 640, class_id=3)
        sense, _io = initiator.query(USER_A, "R", 0, 640)
        assert sense is SenseCode.OK
        array.fail_device(0)
        sense, _io = initiator.query(USER_A, "R", 0, 640)
        assert sense is SenseCode.DATA_CORRUPTED

    def test_control_write_bills_time(self):
        from repro.flash.latency import INTEL_540S_SSD

        array = FlashArray(num_devices=5, device_capacity=10**6, chunk_size=64)
        target = OsdTarget(array, policy=reo_like_policy)
        format_volume(target)
        initiator = OsdInitiator(target)
        initiator.write(USER_A, b"m" * 640, class_id=3)
        response = initiator.set_class(USER_A, 3)  # same scheme, no re-encode
        assert response.io.elapsed > 0
