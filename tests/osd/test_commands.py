"""Tests for the OSD command layer."""

from repro.flash.array import FlashArray
from repro.flash.latency import ZERO_COST
from repro.flash.stripe import ParityScheme
from repro.osd import commands
from repro.osd.sense import SenseCode
from repro.osd.target import OsdTarget
from repro.osd.types import PARTITION_BASE, ObjectId, ObjectKind


def no_redundancy(_class_id):
    return ParityScheme(0)


def make_target():
    array = FlashArray(num_devices=5, device_capacity=10**6, chunk_size=64, model=ZERO_COST)
    target = OsdTarget(array, policy=no_redundancy)
    target.create_partition(PARTITION_BASE)
    return target


USER_A = ObjectId(PARTITION_BASE, 0x10005)


class TestCommands:
    def test_create_partition(self):
        array = FlashArray(num_devices=5, device_capacity=10**6, chunk_size=64, model=ZERO_COST)
        target = OsdTarget(array, policy=no_redundancy)
        assert commands.CreatePartition(PARTITION_BASE).apply(target).ok
        assert commands.CreatePartition(PARTITION_BASE).apply(target).sense is SenseCode.FAIL

    def test_create_collection(self):
        # A collection (an exofs directory) is stored by the target itself;
        # the commands serve it like any other object.
        target = make_target()
        collection = ObjectId(PARTITION_BASE, 0x30000)
        assert target.write_object(collection, b"{}", class_id=0, kind=ObjectKind.COLLECTION).ok
        assert target.get_info(collection).kind is ObjectKind.COLLECTION
        assert commands.Read(collection).apply(target).payload == b"{}"
        assert commands.GetAttr(collection).apply(target).payload == b"0"
        listing = commands.ListPartition(PARTITION_BASE).apply(target).payload.decode()
        assert str(collection) in listing.split("\n")

    def test_write_read_remove(self):
        target = make_target()
        assert commands.Write(USER_A, b"payload", class_id=2).apply(target).ok
        response = commands.Read(USER_A).apply(target)
        assert response.payload == b"payload"
        assert commands.Remove(USER_A).apply(target).ok
        assert commands.Read(USER_A).apply(target).sense is SenseCode.FAIL

    def test_attributes(self):
        target = make_target()
        commands.Write(USER_A, b"x").apply(target)
        assert commands.GetAttr(USER_A).apply(target).payload == b"3"
        commands.Write(USER_A, b"y", class_id=2).apply(target)
        response = commands.GetAttr(USER_A).apply(target)
        assert response.ok and response.payload == b"2"

    def test_attr_on_missing_object(self):
        target = make_target()
        assert commands.GetAttr(USER_A).apply(target).sense is SenseCode.FAIL

    def test_list_partition(self):
        target = make_target()
        commands.Write(USER_A, b"x").apply(target)
        response = commands.ListPartition(PARTITION_BASE).apply(target)
        assert response.ok
        assert str(USER_A) in response.payload.decode()

    def test_list_unknown_partition(self):
        target = make_target()
        assert commands.ListPartition(0x99999).apply(target).sense is SenseCode.FAIL
