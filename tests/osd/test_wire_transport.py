"""Tests for the PDU wire format and the iSCSI-like transport."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import OsdError
from repro.flash.array import FlashArray
from repro.flash.latency import ZERO_COST, ServiceTimeModel
from repro.flash.stripe import ParityScheme
from repro.osd import commands, wire
from repro.osd.initiator import OsdInitiator
from repro.osd.sense import SenseCode
from repro.osd.target import OsdResponse, OsdTarget
from repro.osd.transport import IscsiChannel
from repro.osd.types import PARTITION_BASE, ObjectId, ObjectKind

USER_A = ObjectId(PARTITION_BASE, 0x10005)

ALL_COMMANDS = [
    commands.CreatePartition(PARTITION_BASE),
    commands.CreateObject(USER_A, ObjectKind.COLLECTION),
    commands.Write(USER_A, b"\x00\x01payload\xff", 2),
    commands.Write(USER_A, b"", None),
    commands.Update(USER_A, 128, b"delta-bytes"),
    commands.Read(USER_A),
    commands.Remove(USER_A),
    commands.SetAttr(USER_A, "app", "medisyn"),
    commands.GetAttr(USER_A, "app"),
    commands.ListPartition(PARTITION_BASE),
]


class TestWireFormat:
    @pytest.mark.parametrize("command", ALL_COMMANDS, ids=lambda c: type(c).__name__)
    def test_command_roundtrip(self, command):
        assert wire.decode_command(wire.encode_command(command)) == command

    def test_response_roundtrip(self):
        from repro.flash.array import ArrayIoResult

        response = OsdResponse(
            SenseCode.DATA_CORRUPTED,
            io=ArrayIoResult(elapsed=0.5, chunks_read=3, bytes_read=100, degraded=True),
            payload=b"\x00binary\xff",
        )
        decoded = wire.decode_response(wire.encode_response(response))
        assert decoded.sense is SenseCode.DATA_CORRUPTED
        assert decoded.payload == b"\x00binary\xff"
        assert decoded.io.elapsed == pytest.approx(0.5)
        assert decoded.io.degraded

    def test_none_payload_distinct_from_empty(self):
        ok_none = wire.decode_response(wire.encode_response(OsdResponse(SenseCode.OK)))
        ok_empty = wire.decode_response(
            wire.encode_response(OsdResponse(SenseCode.OK, payload=b""))
        )
        assert ok_none.payload is None
        assert ok_empty.payload == b""

    def test_truncated_pdu_rejected(self):
        with pytest.raises(OsdError):
            wire.decode_command(b"\x00\x00")
        with pytest.raises(OsdError):
            wire.decode_command(b"\x00\x00\x00\xff{}")

    def test_unknown_op_rejected(self):
        pdu = bytearray(wire.encode_command(commands.Read(USER_A)))
        pdu[2] = 0x7F  # the opcode byte
        with pytest.raises(OsdError):
            wire.decode_command(bytes(pdu))

    def test_garbage_header_rejected(self):
        with pytest.raises(OsdError):
            wire.decode_command(b"\x00\x00\x00\x04weee")

    @given(st.binary(max_size=512), st.integers(min_value=0, max_value=2**20))
    def test_write_payload_roundtrip_property(self, payload, oid_offset):
        command = commands.Write(ObjectId(PARTITION_BASE, 0x10005 + oid_offset), payload, 3)
        assert wire.decode_command(wire.encode_command(command)) == command


def make_stack(channel_model=None):
    array = FlashArray(num_devices=5, device_capacity=10**6, chunk_size=64, model=ZERO_COST)
    target = OsdTarget(array, policy=lambda cid: ParityScheme(1))
    target.create_partition(PARTITION_BASE)
    channel = IscsiChannel(target, model=channel_model or ZERO_COST)
    return array, target, OsdInitiator(target, channel=channel), channel


class TestTransport:
    def test_full_session_roundtrip(self):
        _array, _target, initiator, channel = make_stack()
        initiator.write(USER_A, b"over the wire", class_id=3)
        payload, response = initiator.read(USER_A)
        assert payload == b"over the wire"
        assert response.ok
        assert channel.stats.commands == 2
        assert channel.stats.bytes_sent > 0
        assert channel.stats.bytes_received > len(b"over the wire")

    def test_control_messages_cross_the_wire(self):
        _array, target, initiator, channel = make_stack()
        initiator.write(USER_A, b"x" * 320, class_id=3)
        response = initiator.set_class(USER_A, 2)
        assert response.ok
        assert target.get_info(USER_A).class_id == 2
        sense, _ = initiator.query(USER_A)
        assert sense is SenseCode.OK
        assert channel.stats.commands == 3

    def test_partial_update_over_wire(self):
        _array, _target, initiator, _channel = make_stack()
        initiator.write(USER_A, b"a" * 200, class_id=3)
        initiator.update(USER_A, 50, b"WIRE")
        payload, _ = initiator.read(USER_A)
        assert payload[50:54] == b"WIRE"

    def test_network_time_billed(self):
        slow_link = ServiceTimeModel(0.01, 0.01, 10**9, 10**9)
        _array, _target, initiator, _channel = make_stack(channel_model=slow_link)
        response = initiator.write(USER_A, b"y" * 100, class_id=3)
        # Two transfers (command out, response back) at 10 ms overhead each.
        assert response.io.elapsed >= 0.02

    def test_link_queues_back_to_back_commands(self):
        slow_link = ServiceTimeModel(0.01, 0.01, 10**9, 10**9)
        _array, _target, initiator, channel = make_stack(channel_model=slow_link)
        initiator.write(USER_A, b"y", class_id=3)
        response = initiator.read(USER_A)[1]
        # The second command waited behind the first on the same session.
        assert response.io.elapsed > 0.02

    def test_failed_submission_counted(self):
        _array, _target, _initiator, channel = make_stack()

        class Unserializable(commands.OsdCommand):
            def apply(self, target):  # pragma: no cover - never reached
                raise AssertionError

        with pytest.raises(OsdError):
            channel.submit(Unserializable())
        assert channel.stats.commands == 1
        assert channel.stats.failures == 1
        assert channel.stats.sense_errors == 0

    def test_sense_error_counted_separately_from_failures(self):
        _array, _target, initiator, channel = make_stack()
        _, response = initiator.read(USER_A)  # never written
        assert response.sense is SenseCode.FAIL
        assert channel.stats.commands == 1
        assert channel.stats.failures == 0
        assert channel.stats.sense_errors == 1

    def test_local_initiator_has_no_channel_cost(self):
        array = FlashArray(num_devices=5, device_capacity=10**6, chunk_size=64, model=ZERO_COST)
        target = OsdTarget(array, policy=lambda cid: ParityScheme(0))
        target.create_partition(PARTITION_BASE)
        initiator = OsdInitiator(target)
        response = initiator.write(USER_A, b"local", class_id=3)
        assert response.io.elapsed == 0.0
