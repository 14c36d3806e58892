"""Property tests, fuzzing and golden bytes for the PDU wire format.

Round-trips **every** command and response type through real bytes
(including sense-code error responses and empty/large payloads), pins the
bytes of one PDU of each kind, and feeds truncated, bit-flipped and
garbage PDUs to the decoders, which must answer with
:class:`~repro.errors.WireError` — never a bare ``KeyError``/``ValueError``
/``struct.error`` or a silently wrong object.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OsdError, WireError
from repro.flash.array import ArrayIoResult
from repro.osd import commands, wire
from repro.osd.sense import SenseCode
from repro.osd.target import OsdResponse
from repro.osd.types import PARTITION_BASE, ObjectId

OID = ObjectId(PARTITION_BASE, 0x10005)
U64 = 2**64 - 1


def command_pdu(command, seq=None, retry=0):
    """A command's whole PDU, as the send path's segments joined."""
    return b"".join(wire.encode_command_parts(command, seq, retry))


def response_pdu(response, seq=None):
    """A response's whole PDU, as the send path's segments joined."""
    return b"".join(wire.encode_response_parts(response, seq))


# ----------------------------------------------------------------------
# Strategies: one per command type, then the union of all of them
# ----------------------------------------------------------------------
u64s = st.integers(min_value=0, max_value=U64)
object_ids = st.builds(ObjectId, u64s, u64s)
payloads = st.one_of(
    st.just(b""),
    st.binary(max_size=256),
    st.just(b"\xff" * 65536),  # large payload without slowing hypothesis down
)

command_strategies = st.one_of(
    st.builds(commands.CreatePartition, u64s),
    st.builds(
        commands.Write,
        object_ids,
        payloads,
        st.one_of(st.none(), st.integers(min_value=0, max_value=7)),
    ),
    st.builds(
        commands.Update, object_ids, st.integers(min_value=0, max_value=2**63 - 1), payloads
    ),
    st.builds(commands.Read, object_ids),
    st.builds(commands.Remove, object_ids),
    st.builds(commands.GetAttr, object_ids),
    st.builds(commands.ListPartition, u64s),
)

responses = st.builds(
    OsdResponse,
    st.sampled_from(list(SenseCode)),
    io=st.builds(
        ArrayIoResult,
        elapsed=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        chunks_read=st.integers(min_value=0, max_value=2**32 - 1),
        chunks_written=st.integers(min_value=0, max_value=2**32 - 1),
        bytes_read=u64s,
        bytes_written=u64s,
        degraded=st.booleans(),
    ),
    payload=st.one_of(st.none(), payloads),
)

seqs = st.one_of(st.none(), st.just(0), st.just(U64), u64s)
retries = st.integers(min_value=0, max_value=2**32 - 1)

# ----------------------------------------------------------------------
# Golden bytes, recorded at the commit before the JSON codec was deleted
# (with ``version=WIRE_V2``): the bytes on the wire must never move.
# GetAttr's was re-recorded when it lost its key: the fixed header alone.
# ----------------------------------------------------------------------
GOLDEN_COMMANDS = [
    # (hex PDU, seq, retry, command)
    (
        "b2020102000000000000000100000000000000000001000000000000000000000000000000000000"
        "00000000",
        1, 0, commands.CreatePartition(PARTITION_BASE),
    ),
    (
        "b2020306000000000000000300000000000000000001000000000000000100050000000000000003"
        "0000000568656c6c6f",
        3, 0, commands.Write(OID, b"hello", 3),
    ),
    (
        "b2020402000000000000000400000001000000000001000000000000000100050000000000001000"
        "000000027879",
        4, 1, commands.Update(OID, 4096, b"xy"),
    ),
    (
        "b2020502000000000000000500000000000000000001000000000000000100050000000000000000"
        "00000000",
        5, 0, commands.Read(OID),
    ),
    (
        "b2020600000000000000000000000000000000000001000000000000000100050000000000000000"
        "00000000",
        None, 0, commands.Remove(OID),
    ),
    (
        "b2020802000000000000000800000002000000000001000000000000000100050000000000000000"
        "00000000",
        8, 2, commands.GetAttr(OID),
    ),
    (
        "b2020902ffffffffffffffff00000000000000000001000000000000000000000000000000000000"
        "00000000",
        U64, 0, commands.ListPartition(PARTITION_BASE),
    ),
]

GOLDEN_RESPONSES = [
    # (hex PDU, seq, response)
    (
        "b202800e000000000000000500003fd0000000000000000000030000000000000000000030000000"
        "0000000000000000000464617461",
        5,
        OsdResponse(
            SenseCode.OK,
            io=ArrayIoResult(elapsed=0.25, chunks_read=3, bytes_read=12288, degraded=True),
            payload=b"data",
        ),
    ),
    (
        "b2028002000000000000000300003fe0000000000000000000000000000400000000000000000000"
        "00000000400000000000",
        3,
        OsdResponse(
            SenseCode.OK,
            io=ArrayIoResult(elapsed=0.5, chunks_written=4, bytes_written=16384),
        ),
    ),
    (
        "b20280000000000000000000ffff0000000000000000000000000000000000000000000000000000"
        "00000000000000000000",
        None,
        OsdResponse(SenseCode.FAIL),
    ),
]

#: PDUs of the two deleted service actions, CreateObject (opcode 0x02) and
#: SetAttr (0x07), as the same recording encoded them: no decoder accepts
#: them any more.
RETIRED_COMMANDS = [
    "b2020202000000000000000200000000000000000001000000000000000100050000000000000002"
    "00000000",
    "b2020703000000000000000700000000000000000001000000000000000100050000000000000000"
    "0000000000227b226b6579223a226f776e6572222c2276616c7565223a22725c75303065396f227d",
]

RETIRED_IDS = ["CreateObject", "SetAttr"]

#: A GetAttr PDU of the retired keyed format, as the same recording encoded
#: it: flag 0x01, then the key in a length-prefixed JSON header.
KEYED_GETATTR = (
    "b2020803000000000000000800000002000000000001000000000000000100050000000000000000"
    "00000000000f7b226b6579223a226f776e6572227d"
)

#: The flag bits each PDU kind leaves undefined (0x01 among them, retired).
UNDEFINED_COMMAND_FLAGS = [0x01, 0x08, 0x10, 0x20, 0x40, 0x80]
UNDEFINED_RESPONSE_FLAGS = [0x01, 0x10, 0x20, 0x40, 0x80]

command_ids = [type(case[3]).__name__ for case in GOLDEN_COMMANDS]
response_ids = ["ok-payload", "ok-no-payload", "fail"]


def exported_command_types():
    return {
        getattr(commands, name) for name in commands.__all__ if name != "OsdCommand"
    }


class TestGoldenBytes:
    @pytest.mark.parametrize("golden,seq,retry,command", GOLDEN_COMMANDS, ids=command_ids)
    def test_command_bytes_pinned_both_ways(self, golden, seq, retry, command):
        assert command_pdu(command, seq=seq, retry=retry).hex() == golden
        assert wire.decode_command_pdu(bytes.fromhex(golden)) == (seq, retry, command)

    @pytest.mark.parametrize("golden,seq,response", GOLDEN_RESPONSES, ids=response_ids)
    def test_response_bytes_pinned_both_ways(self, golden, seq, response):
        assert response_pdu(response, seq=seq).hex() == golden
        assert wire.decode_response_pdu(bytes.fromhex(golden)) == (seq, response)

    def test_every_command_type_has_a_golden_pdu(self):
        assert {type(case[3]) for case in GOLDEN_COMMANDS} == exported_command_types()


class TestCommandRoundTrips:
    @given(command=command_strategies, seq=seqs, retry=retries)
    def test_every_command_seq_and_retry_round_trips(self, command, seq, retry):
        pdu = command_pdu(command, seq=seq, retry=retry)
        envelope = wire.decode_command_pdu(pdu)
        assert envelope.seq == seq
        assert envelope.retry == retry
        assert envelope.command == command

    @given(command=command_strategies, seq=seqs)
    def test_parts_are_the_pdu_with_the_payload_uncopied(self, command, seq):
        parts = wire.encode_command_parts(command, seq=seq)
        assert wire.decode_command_pdu(b"".join(parts)) == (seq, 0, command)
        payload = getattr(command, "payload", b"")
        if payload:
            assert parts[-1] is payload

    def test_all_command_types_covered(self):
        """The strategy union must include every exported command type."""
        covered = {
            commands.CreatePartition,
            commands.Write,
            commands.Update,
            commands.Read,
            commands.Remove,
            commands.GetAttr,
            commands.ListPartition,
        }
        assert covered == exported_command_types()

    def test_decoders_accept_any_buffer(self):
        command = commands.Write(OID, b"payload", 3)
        pdu = command_pdu(command, seq=1)
        for view in (bytearray(pdu), memoryview(pdu)):
            assert wire.decode_command_pdu(view).command == command


class TestResponseRoundTrips:
    @given(response=responses, seq=seqs)
    def test_every_sense_and_payload_round_trips(self, response, seq):
        pdu = response_pdu(response, seq=seq)
        assert wire.decode_response_pdu(pdu) == (seq, response)

    def test_hot_path_headers_are_fixed_width(self):
        """The point of the binary header: no JSON on the hot path."""
        assert len(command_pdu(commands.Read(OID), seq=12345)) == 44
        assert len(response_pdu(OsdResponse(SenseCode.OK), seq=1)) == 50


class TestEncoderLimits:
    @pytest.mark.parametrize(
        "command",
        [
            commands.Read(ObjectId(U64 + 1, 1)),
            commands.Read(ObjectId(1, U64 + 1)),
            commands.CreatePartition(U64 + 1),
            commands.ListPartition(-1),
            commands.Update(OID, 2**63, b""),
            commands.Update(OID, -(2**63) - 1, b""),
            commands.Write(OID, b"", 2**63),
        ],
        ids=["pid", "oid", "create-pid", "negative-pid", "offset", "negative-offset", "class_id"],
    )
    def test_out_of_range_field_is_a_wire_error(self, command):
        with pytest.raises(WireError, match="fit"):
            command_pdu(command)

    @pytest.mark.parametrize("seq", [U64 + 1, -1])
    def test_out_of_range_seq_is_a_wire_error(self, seq):
        with pytest.raises(WireError, match="fit"):
            command_pdu(commands.Read(OID), seq=seq)
        with pytest.raises(WireError, match="fit"):
            response_pdu(OsdResponse(SenseCode.OK), seq=seq)

    def test_out_of_range_retry_and_io_counters_are_wire_errors(self):
        with pytest.raises(WireError, match="fit"):
            command_pdu(commands.Read(OID), retry=2**32)
        response = OsdResponse(SenseCode.OK, io=ArrayIoResult(chunks_read=2**32))
        with pytest.raises(WireError, match="fit"):
            response_pdu(response)

    def test_oversized_pdu_rejected_by_encoders(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_PDU_BYTES", 1024)
        with pytest.raises(WireError, match="limit"):
            command_pdu(commands.Write(OID, b"x" * 1024, None))
        with pytest.raises(WireError, match="limit"):
            response_pdu(OsdResponse(SenseCode.OK, payload=b"x" * 1024))

    def test_foreign_command_rejected(self):
        with pytest.raises(WireError, match="cannot encode"):
            command_pdu(commands.OsdCommand())


def with_ext(pdu: bytes, ext: bytes) -> bytes:
    """Set the retired extended-header flag on a no-payload PDU and append
    ``ext``, as the keyed GetAttr format did."""
    flagged = bytearray(pdu)
    flagged[3] |= 0x01
    return bytes(flagged) + struct.pack(">H", len(ext)) + ext


class TestDecoderFuzzing:
    @given(garbage=st.binary(max_size=512))
    @settings(max_examples=300)
    def test_garbage_never_escapes_wire_error(self, garbage):
        """Any byte soup — bare or behind the magic and version bytes —
        either decodes cleanly or raises WireError."""
        for soup in (garbage, bytes([wire.MAGIC, wire.VERSION]) + garbage):
            for decoder in (wire.decode_command_pdu, wire.decode_response_pdu):
                try:
                    decoder(soup)
                except WireError:
                    pass

    @pytest.mark.parametrize(
        "golden",
        [case[0] for case in GOLDEN_COMMANDS] + RETIRED_COMMANDS,
        ids=command_ids + RETIRED_IDS,
    )
    def test_command_truncated_at_every_cut_rejected(self, golden):
        pdu = bytes.fromhex(golden)
        for cut in range(len(pdu)):
            with pytest.raises(WireError):
                wire.decode_command_pdu(pdu[:cut])

    @pytest.mark.parametrize("golden", [case[0] for case in GOLDEN_RESPONSES], ids=response_ids)
    def test_response_truncated_at_every_cut_rejected(self, golden):
        pdu = bytes.fromhex(golden)
        for cut in range(len(pdu)):
            with pytest.raises(WireError):
                wire.decode_response_pdu(pdu[:cut])

    @given(command=command_strategies, seq=seqs, data=st.data())
    def test_truncated_or_padded_command_rejected(self, command, seq, data):
        pdu = command_pdu(command, seq=seq)
        cut = data.draw(st.integers(min_value=0, max_value=len(pdu) - 1))
        with pytest.raises(WireError):
            wire.decode_command_pdu(pdu[:cut])
        with pytest.raises(WireError, match="data segment"):
            wire.decode_command_pdu(pdu + b"\x00")

    @given(
        index=st.integers(min_value=0, max_value=43),
        value=st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=300)
    def test_byte_flipped_command_header_never_escapes_wire_error(self, index, value):
        for command in (commands.Write(OID, b"x" * 32, 3), commands.GetAttr(OID)):
            pdu = bytearray(command_pdu(command, seq=9))
            pdu[index] = value
            try:
                wire.decode_command_pdu(bytes(pdu))
            except WireError:
                pass

    @given(
        index=st.integers(min_value=0, max_value=49),
        value=st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=300)
    def test_byte_flipped_response_header_never_escapes_wire_error(self, index, value):
        pdu = bytearray(response_pdu(OsdResponse(SenseCode.OK, payload=b"x" * 32), 9))
        pdu[index] = value
        try:
            wire.decode_response_pdu(bytes(pdu))
        except WireError:
            pass

    def test_wire_error_is_typed(self):
        with pytest.raises(WireError):
            wire.decode_command_pdu(b"\x00\x00")
        assert issubclass(WireError, OsdError)

    def test_bad_magic_version_and_opcode_rejected(self):
        pdu = command_pdu(commands.Read(OID), seq=1)
        for index, value, message in ((0, 0x00, "magic"), (1, 3, "version"), (2, 0x7F, "opcode")):
            broken = bytearray(pdu)
            broken[index] = value
            with pytest.raises(WireError, match=message):
                wire.decode_command_pdu(bytes(broken))

    def test_json_header_pdu_is_garbage(self):
        """The deleted JSON-header format is not a second dialect."""
        header = b'{"oid":65541,"op":"read","pid":65536,"seq":4}'
        pdu = struct.pack(">I", len(header)) + header
        with pytest.raises(WireError, match="magic"):
            wire.decode_command_pdu(pdu)
        assert wire.salvage_seq(pdu) is None

    def test_command_decoder_rejects_response_kind_and_the_reverse(self):
        with pytest.raises(WireError, match="command"):
            wire.decode_command_pdu(response_pdu(OsdResponse(SenseCode.OK), seq=1))
        with pytest.raises(WireError, match="response"):
            wire.decode_response_pdu(command_pdu(commands.Read(OID)))

    def test_oversized_declared_data_rejected(self):
        pdu = bytearray(command_pdu(commands.Write(OID, b"abc", None)))
        # Last 4 fixed-header bytes are the data length; declare > MAX_PDU.
        pdu[40:44] = (wire.MAX_PDU_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(WireError, match="data segment"):
            wire.decode_command_pdu(bytes(pdu))

    def test_oversized_pdu_rejected_by_decoders(self, monkeypatch):
        command = command_pdu(commands.Write(OID, b"x" * 1024, None))
        response = response_pdu(OsdResponse(SenseCode.OK, payload=b"x" * 1024))
        monkeypatch.setattr(wire, "MAX_PDU_BYTES", 1024)
        with pytest.raises(WireError, match="limit"):
            wire.decode_command_pdu(command)
        with pytest.raises(WireError, match="limit"):
            wire.decode_response_pdu(response)

    def test_unknown_sense_rejected(self):
        pdu = bytearray(response_pdu(OsdResponse(SenseCode.OK)))
        pdu[12:14] = (9999).to_bytes(2, "big")
        with pytest.raises(WireError, match="sense"):
            wire.decode_response_pdu(bytes(pdu))

    @pytest.mark.parametrize("golden", RETIRED_COMMANDS, ids=RETIRED_IDS)
    def test_retired_opcode_rejected(self, golden):
        with pytest.raises(WireError, match="opcode"):
            wire.decode_command_pdu(bytes.fromhex(golden))

    def test_retired_server_timeout_sense_rejected(self):
        pdu = bytearray(response_pdu(OsdResponse(SenseCode.OK)))
        pdu[12:14] = (0x69).to_bytes(2, "big")
        with pytest.raises(WireError, match="sense"):
            wire.decode_response_pdu(bytes(pdu))

    def test_salvage_seq(self):
        pdu = command_pdu(commands.Read(OID), seq=4242)
        assert wire.salvage_seq(pdu) == 4242
        assert wire.salvage_seq(response_pdu(OsdResponse(SenseCode.OK), seq=7)) == 7
        assert wire.salvage_seq(command_pdu(commands.Read(OID))) is None
        assert wire.salvage_seq(pdu[:3]) is None
        assert wire.salvage_seq(b"") is None
        assert wire.salvage_seq(b"\x00" + pdu[1:]) is None

    # ------------------------------------------------------------------
    # Flags: a decoder refuses every bit its PDU kind does not define.
    # ------------------------------------------------------------------
    @pytest.mark.parametrize("bit", UNDEFINED_COMMAND_FLAGS, ids=hex)
    @pytest.mark.parametrize("golden", [case[0] for case in GOLDEN_COMMANDS], ids=command_ids)
    def test_undefined_command_flag_rejected(self, golden, bit):
        pdu = bytearray.fromhex(golden)
        pdu[3] |= bit
        with pytest.raises(WireError, match="flag"):
            wire.decode_command_pdu(bytes(pdu))

    @pytest.mark.parametrize("bit", UNDEFINED_RESPONSE_FLAGS, ids=hex)
    @pytest.mark.parametrize("golden", [case[0] for case in GOLDEN_RESPONSES], ids=response_ids)
    def test_undefined_response_flag_rejected(self, golden, bit):
        pdu = bytearray.fromhex(golden)
        pdu[3] |= bit
        with pytest.raises(WireError, match="flag"):
            wire.decode_response_pdu(bytes(pdu))

    def test_keyed_getattr_pdu_rejected(self):
        with pytest.raises(WireError, match="flag"):
            wire.decode_command_pdu(bytes.fromhex(KEYED_GETATTR))

    # ------------------------------------------------------------------
    # The retired extended header: refused by its flag, whatever follows.
    # ------------------------------------------------------------------
    def test_ext_cannot_override_the_opcode(self):
        pdu = with_ext(command_pdu(commands.Read(OID), seq=7), b'{"op":"remove"}')
        with pytest.raises(WireError, match="flag"):
            wire.decode_command_pdu(pdu)

    def test_ext_cannot_override_seq_retry_or_pid(self):
        pdu = with_ext(
            command_pdu(commands.Read(OID), seq=7), b'{"seq":99,"retry":5,"pid":1}'
        )
        with pytest.raises(WireError, match="flag"):
            wire.decode_command_pdu(pdu)

    @pytest.mark.parametrize(
        "command",
        [
            command
            for _, _, _, command in GOLDEN_COMMANDS
            if not isinstance(command, commands.GetAttr)
        ],
        ids=lambda c: type(c).__name__,
    )
    def test_ext_on_an_opcode_that_has_none_rejected(self, command):
        with_payload = wire.encode_command_parts(command, seq=1)
        pdu = with_ext(with_payload[0], b"{}") + b"".join(with_payload[1:])
        with pytest.raises(WireError, match="flag"):
            wire.decode_command_pdu(pdu)

    def test_ext_on_a_response_rejected(self):
        pdu = with_ext(response_pdu(OsdResponse(SenseCode.OK), seq=1), b'{"sense":-1}')
        with pytest.raises(WireError, match="flag"):
            wire.decode_response_pdu(pdu)

    @pytest.mark.parametrize(
        "ext",
        [
            b"[1,2,3]",  # valid JSON, not an object
            b'"key"',
            b"{}",  # missing key
            b'{"key":"k","value":"v"}',  # a key GetAttr did not define
            b'{"key":"k","oid":1}',
            b'{"key":7}',  # not a string
            b'{"key":null}',
            b'{"key":"k"',  # not JSON
            b'{"key":"\xff"}',  # not ASCII
            b"[" * 40000,  # nested past a JSON parser's recursion limit
        ],
        ids=[
            "array", "string", "empty", "extra-value", "extra-oid", "number", "null",
            "malformed", "non-ascii", "deeply-nested",
        ],
    )
    def test_bad_ext_on_an_attr_command_rejected(self, ext):
        pdu = command_pdu(commands.GetAttr(OID), seq=1)
        with pytest.raises(WireError, match="flag"):
            wire.decode_command_pdu(with_ext(pdu, ext))
