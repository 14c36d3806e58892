"""Tests for OSD object identifiers and metadata."""

import pytest

from repro.osd.types import (
    CONTROL_OBJECT,
    DEVICE_TABLE,
    ROOT_DIRECTORY,
    SUPER_BLOCK,
    ObjectId,
    ObjectInfo,
    ObjectKind,
)


class TestObjectId:
    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            ObjectId(-1, 0)
        with pytest.raises(ValueError):
            ObjectId(0, -1)

    def test_equality_and_hash(self):
        assert ObjectId(1, 2) == ObjectId(1, 2)
        assert hash(ObjectId(1, 2)) == hash(ObjectId(1, 2))
        assert ObjectId(1, 2) != ObjectId(2, 1)

    def test_ordering(self):
        assert ObjectId(1, 5) < ObjectId(2, 0)
        assert ObjectId(1, 5) < ObjectId(1, 6)

    def test_str_is_hex(self):
        assert str(ObjectId(0x10000, 0x10005)) == "0x10000/0x10005"


class TestReservedObjects:
    def test_table_i_reserved_oids(self):
        # Paper Table I: exofs reserves OIDs 0x10000-0x10002 in partition 0x10000.
        assert SUPER_BLOCK == ObjectId(0x10000, 0x10000)
        assert DEVICE_TABLE == ObjectId(0x10000, 0x10001)
        assert ROOT_DIRECTORY == ObjectId(0x10000, 0x10002)

    def test_control_object_oid(self):
        # Paper §IV-C.2/§V: the communication point is OID 0x10004.
        assert CONTROL_OBJECT == ObjectId(0x10000, 0x10004)


class TestObjectInfo:
    def test_defaults(self):
        info = ObjectInfo(ObjectId(1, 1), ObjectKind.USER)
        assert info.class_id == 3
