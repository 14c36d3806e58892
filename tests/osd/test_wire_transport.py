"""Tests for the PDU wire format (stream framing: tests/net/test_framing.py)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import OsdError
from repro.osd import commands, wire
from repro.osd.sense import SenseCode
from repro.osd.target import OsdResponse
from repro.osd.types import PARTITION_BASE, ObjectId

from tests.osd.test_wire_properties import command_pdu, response_pdu

USER_A = ObjectId(PARTITION_BASE, 0x10005)

ALL_COMMANDS = [
    commands.CreatePartition(PARTITION_BASE),
    commands.Write(USER_A, b"\x00\x01payload\xff", 2),
    commands.Write(USER_A, b"", None),
    commands.Update(USER_A, 128, b"delta-bytes"),
    commands.Read(USER_A),
    commands.Remove(USER_A),
    commands.GetAttr(USER_A),
    commands.ListPartition(PARTITION_BASE),
]


class TestWireFormat:
    @pytest.mark.parametrize("command", ALL_COMMANDS, ids=lambda c: type(c).__name__)
    def test_command_roundtrip(self, command):
        assert wire.decode_command_pdu(command_pdu(command)).command == command

    def test_response_roundtrip(self):
        from repro.flash.array import ArrayIoResult

        response = OsdResponse(
            SenseCode.DATA_CORRUPTED,
            io=ArrayIoResult(elapsed=0.5, chunks_read=3, bytes_read=100, degraded=True),
            payload=b"\x00binary\xff",
        )
        _, decoded = wire.decode_response_pdu(response_pdu(response))
        assert decoded.sense is SenseCode.DATA_CORRUPTED
        assert decoded.payload == b"\x00binary\xff"
        assert decoded.io.elapsed == pytest.approx(0.5)
        assert decoded.io.degraded

    def test_none_payload_distinct_from_empty(self):
        _, ok_none = wire.decode_response_pdu(response_pdu(OsdResponse(SenseCode.OK)))
        _, ok_empty = wire.decode_response_pdu(
            response_pdu(OsdResponse(SenseCode.OK, payload=b""))
        )
        assert ok_none.payload is None
        assert ok_empty.payload == b""

    def test_truncated_pdu_rejected(self):
        with pytest.raises(OsdError):
            wire.decode_command_pdu(b"\x00\x00")
        with pytest.raises(OsdError):
            wire.decode_command_pdu(b"\x00\x00\x00\xff{}")

    def test_unknown_op_rejected(self):
        pdu = bytearray(command_pdu(commands.Read(USER_A)))
        pdu[2] = 0x7F  # the opcode byte
        with pytest.raises(OsdError):
            wire.decode_command_pdu(bytes(pdu))

    def test_garbage_header_rejected(self):
        with pytest.raises(OsdError):
            wire.decode_command_pdu(b"\x00\x00\x00\x04weee")

    @given(st.binary(max_size=512), st.integers(min_value=0, max_value=2**20))
    def test_write_payload_roundtrip_property(self, payload, oid_offset):
        command = commands.Write(ObjectId(PARTITION_BASE, 0x10005 + oid_offset), payload, 3)
        assert wire.decode_command_pdu(command_pdu(command)).command == command

