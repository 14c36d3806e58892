"""Wire format for OSD commands and responses.

The real open-osd stack carries OSD service actions in SCSI CDBs over
iSCSI. This module is the simulation's equivalent: every command and
response serializes to one PDU of

- a fixed-width binary header packed by ``struct`` (magic + version byte,
  command opcode or response kind, flags, sequence id, then the
  kind-specific fields and the data-segment length), then
- an opaque binary data segment (write payloads, read results).

Round-tripping through real bytes keeps the initiator/target boundary
honest — nothing crosses it except what the wire format can carry — and
gives the transport layer true payload sizes to bill.

Hardening: whole PDUs have an explicit size limit, every field a decoder
reads is checked (magic, version, opcode, flag bits the PDU kind does not
define, truncation, declared against actual data length, sense code), and
every protocol-level failure raises :class:`~repro.errors.WireError` (an
:class:`OsdError` subclass) so transports can tell stream corruption from
target errors. Encoders raise it too for a value its fixed-width field
cannot hold. PDU headers optionally carry a ``seq`` sequence id, which
lets a pipelined connection match out-of-order responses to their
requests.

Zero-copy: every decode path accepts any buffer-protocol object
(``bytes``/``bytearray``/``memoryview``), so a stream decoder can hand
PDU slices straight off its receive buffer without materializing an
intermediate copy — the data segment is copied exactly once, into the
command/response payload. On the send side the encoders return the PDU
as ``[header segment, payload]`` buffers for ``writelines``-style send
paths, so the encoder never concatenates a large payload into a fresh
PDU bytestring. (The transport may: before CPython 3.12 the selector
transport's ``writelines`` is a ``b"".join`` followed by ``write``; from
3.12 it sends the segments with ``sendmsg``.)
"""

from __future__ import annotations

import struct
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from repro.errors import WireError
from repro.flash.array import ArrayIoResult
from repro.osd import commands
from repro.osd.sense import SenseCode
from repro.osd.target import OsdResponse
from repro.osd.types import ObjectId

__all__ = [
    "Buffer",
    "CommandPdu",
    "MAGIC",
    "MAX_PDU_BYTES",
    "VERSION",
    "decode_command_pdu",
    "decode_response_pdu",
    "encode_command_parts",
    "encode_response_parts",
    "salvage_seq",
]

#: Anything the decode paths and vectored send paths accept in place of
#: ``bytes``. (``collections.abc.Buffer`` needs 3.12; spell it out.)
Buffer = Union[bytes, bytearray, memoryview]

#: Hard ceiling on a whole PDU (header + data segment). Caps both what an
#: encoder will produce and what a decoder/server will buffer per request.
MAX_PDU_BYTES = 64 * 1024 * 1024

#: First two bytes of every PDU.
MAGIC = 0xB2
VERSION = 2

#: What both PDU kinds start with: magic, version, kind, flags, seq. The
#: kind byte is a command's opcode (all < 0x80) or :data:`_RESPONSE_KIND`.
_PREFIX = struct.Struct(">BBBBQ")
_RESPONSE_KIND = 0x80
#: Command fixed header: the prefix, then retry, pid, oid, aux (op-specific:
#: update offset / write class_id), data length. 44 bytes.
_COMMAND = struct.Struct(">BBBBQIQQqI")
#: Response fixed header: the prefix, then sense (signed — FAIL is -1),
#: elapsed, chunks read/written, bytes read/written, data length. 50 bytes.
_RESPONSE = struct.Struct(">BBBBQhdIIQQI")

#: Flag bits shared by both PDU kinds. Bit 0x01 is retired and refused.
_FLAG_SEQ = 0x02  # seq field is meaningful (None otherwise)
#: Command-only: the aux field carries a Write class_id.
_FLAG_AUX = 0x04
#: Response-only.
_FLAG_PAYLOAD = 0x04
_FLAG_DEGRADED = 0x08
#: Every bit each PDU kind defines; a decoder refuses any other.
_COMMAND_FLAGS = _FLAG_SEQ | _FLAG_AUX
_RESPONSE_FLAGS = _FLAG_SEQ | _FLAG_PAYLOAD | _FLAG_DEGRADED

_OPCODES: Dict[type, int] = {
    commands.CreatePartition: 0x01,
    commands.Write: 0x03,
    commands.Update: 0x04,
    commands.Read: 0x05,
    commands.Remove: 0x06,
    commands.GetAttr: 0x08,
    commands.ListPartition: 0x09,
}
_COMMAND_TYPES = {opcode: kind for kind, opcode in _OPCODES.items()}
#: Commands addressed by a partition id alone; the rest name an object.
_PARTITION_COMMANDS = (commands.CreatePartition, commands.ListPartition)
_OBJECT_COMMANDS = (
    commands.Write,
    commands.Update,
    commands.Read,
    commands.Remove,
    commands.GetAttr,
)


def _pack(layout: struct.Struct, *fields: object) -> bytes:
    try:
        return layout.pack(*fields)
    except struct.error as exc:
        raise WireError(f"value does not fit its wire field: {exc}") from None


def _assemble(head: bytes, data: Buffer) -> List[Buffer]:
    """Enforce the PDU size limit; the payload rides along un-copied."""
    total = len(head) + len(data)
    if total > MAX_PDU_BYTES:
        raise WireError(
            f"PDU of {total} bytes exceeds the {MAX_PDU_BYTES}-byte limit"
        )
    return [head, data] if len(data) else [head]


def _kind_and_flags(pdu: Buffer) -> Tuple[int, int]:
    """Validate what both PDU kinds share; returns ``(kind byte, flags)``."""
    if len(pdu) > MAX_PDU_BYTES:
        raise WireError(
            f"PDU of {len(pdu)} bytes exceeds the {MAX_PDU_BYTES}-byte limit"
        )
    if len(pdu) < _PREFIX.size:
        raise WireError("truncated PDU: missing fixed header")
    magic, version, kind, flags, _ = _PREFIX.unpack_from(pdu)
    if magic != MAGIC:
        raise WireError(f"bad magic byte 0x{magic:02x}")
    if version != VERSION:
        raise WireError(f"unsupported wire version {version}")
    return kind, flags


def _data(pdu: Buffer, offset: int, data_length: int) -> Buffer:
    """The data segment after the fixed header, as a slice of the input
    (not copied), checked against its declared length."""
    data = pdu[offset:]
    if len(data) != data_length:
        raise WireError(
            f"data segment of {len(data)} bytes does not match the "
            f"declared {data_length}"
        )
    return data


def _materialize(data: Buffer) -> bytes:
    """Copy a data segment out of the decoder's buffer, exactly once."""
    return data if isinstance(data, bytes) else bytes(data)


def salvage_seq(pdu: Buffer) -> Optional[int]:
    """Best-effort sequence id recovery from a PDU that failed to decode.

    A server that cannot decode a PDU still wants to address its failure
    reply, so the client's pending request fails fast instead of timing
    out. Returns ``None`` when no sequence id can be recovered.
    """
    if len(pdu) < _PREFIX.size or pdu[0] != MAGIC or not pdu[3] & _FLAG_SEQ:
        return None
    seq: int = _PREFIX.unpack_from(pdu)[4]
    return seq


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def encode_command_parts(
    command: commands.OsdCommand, seq: Optional[int] = None, retry: int = 0
) -> List[Buffer]:
    """Serialize a command to its PDU, as ``[header segment, payload]`` buffers.

    The write/update payload rides along un-copied, for ``writelines``-style
    send paths.

    Args:
        command: the command to serialize.
        seq: optional sequence id for pipelined connections; echoed back on
            the matching response so it can be demultiplexed.
        retry: retransmission attempt number (0 = first send). Lets the
            server count retried commands in its service stats.
    """
    opcode = _OPCODES.get(type(command))
    if opcode is None:
        raise WireError(f"cannot encode command {command!r}")
    flags = 0 if seq is None else _FLAG_SEQ
    pid = oid = aux = 0
    if isinstance(command, _PARTITION_COMMANDS):
        pid = command.pid
    elif isinstance(command, _OBJECT_COMMANDS):
        pid, oid = command.object_id.pid, command.object_id.oid
    data: Buffer = b""
    if isinstance(command, commands.Write):
        data = command.payload
        if command.class_id is not None:
            flags |= _FLAG_AUX
            aux = command.class_id
    elif isinstance(command, commands.Update):
        data = command.payload
        aux = command.offset
    head = _pack(
        _COMMAND, MAGIC, VERSION, opcode, flags,
        seq or 0, retry, pid, oid, aux, len(data),
    )
    return _assemble(head, data)


class CommandPdu(NamedTuple):
    """Decoded command envelope."""

    seq: Optional[int]
    retry: int
    command: commands.OsdCommand


def decode_command_pdu(pdu: Buffer) -> CommandPdu:
    """Parse a command PDU into its ``(seq, retry, command)`` envelope."""
    opcode, flags = _kind_and_flags(pdu)
    if opcode == _RESPONSE_KIND:
        raise WireError("expected a command PDU, got a response")
    kind = _COMMAND_TYPES.get(opcode)
    if kind is None:
        raise WireError(f"unknown command opcode 0x{opcode:02x}")
    if flags & ~_COMMAND_FLAGS:
        raise WireError(f"undefined command flag bits 0x{flags & ~_COMMAND_FLAGS:02x}")
    if len(pdu) < _COMMAND.size:
        raise WireError("truncated PDU: command header cut short")
    _, _, _, _, seq, retry, pid, oid, aux, data_length = _COMMAND.unpack_from(pdu)
    data = _data(pdu, _COMMAND.size, data_length)
    command: commands.OsdCommand
    if kind in (commands.CreatePartition, commands.ListPartition):
        command = kind(pid)
    elif kind is commands.Write:
        command = commands.Write(
            ObjectId(pid, oid), _materialize(data), aux if flags & _FLAG_AUX else None
        )
    elif kind is commands.Update:
        command = commands.Update(ObjectId(pid, oid), aux, _materialize(data))
    else:  # Read, Remove, GetAttr: the object id alone
        command = kind(ObjectId(pid, oid))
    return CommandPdu(seq if flags & _FLAG_SEQ else None, retry, command)


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
def encode_response_parts(
    response: OsdResponse, seq: Optional[int] = None
) -> List[Buffer]:
    """Serialize a response (sense + io summary + payload) to its PDU, as
    ``[header segment, payload]`` buffers.

    ``seq`` echoes the request's sequence id so pipelined connections can
    match out-of-order responses to in-flight requests. A read payload is
    written straight from the object store's bytes, never copied into a
    concatenated PDU.
    """
    io = response.io
    flags = 0 if seq is None else _FLAG_SEQ
    if response.payload is not None:
        flags |= _FLAG_PAYLOAD
    if io.degraded:
        flags |= _FLAG_DEGRADED
    data = response.payload or b""
    head = _pack(
        _RESPONSE, MAGIC, VERSION, _RESPONSE_KIND, flags,
        seq or 0, int(response.sense), io.elapsed,
        io.chunks_read, io.chunks_written, io.bytes_read, io.bytes_written, len(data),
    )
    return _assemble(head, data)


def decode_response_pdu(pdu: Buffer) -> Tuple[Optional[int], OsdResponse]:
    """Parse a response PDU; returns ``(sequence id or None, response)``."""
    kind, flags = _kind_and_flags(pdu)
    if kind != _RESPONSE_KIND:
        raise WireError("expected a response PDU, got a command")
    if flags & ~_RESPONSE_FLAGS:
        raise WireError(f"undefined response flag bits 0x{flags & ~_RESPONSE_FLAGS:02x}")
    if len(pdu) < _RESPONSE.size:
        raise WireError("truncated PDU: response header cut short")
    (
        _, _, _, _, seq, sense_value, elapsed,
        chunks_read, chunks_written, bytes_read, bytes_written, data_length,
    ) = _RESPONSE.unpack_from(pdu)
    data = _data(pdu, _RESPONSE.size, data_length)
    try:
        sense = SenseCode(sense_value)
    except ValueError:
        raise WireError(f"unknown sense code {sense_value} in response PDU") from None
    io = ArrayIoResult(
        elapsed=elapsed,
        chunks_read=chunks_read,
        chunks_written=chunks_written,
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        degraded=bool(flags & _FLAG_DEGRADED),
    )
    payload = _materialize(data) if flags & _FLAG_PAYLOAD else None
    return seq if flags & _FLAG_SEQ else None, OsdResponse(sense, io=io, payload=payload)
