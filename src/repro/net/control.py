"""Binary serialisation for the control plane.

The live transport takes the §3 protocol messages defined in
:mod:`repro.protocol.messages` — the same dataclasses the sans-IO
engines consume — and gives each a compact big-endian wire form: one
type byte followed by struct-packed fields.

Four messages exist only on the live transport:

* :class:`SessionInfo` — server -> joiner: the coding geometry and
  content length, so a peer can build a matching decoder before the
  first data frame arrives.
* :class:`PeerLocator` — server -> peer: the transport address of
  another peer (the matrix stores ids; sockets need host:port).  Sent
  ahead of any grant or redirect that names a peer.
* :class:`DataHello` — child -> parent, first frame on a data
  connection: "I am node ``node_id``; stream me column ``column``".
  Downstream nodes dial upstream, which makes reconnect-after-repair a
  pure child-side retry loop.
* :class:`GenerationsComplete` — child -> parent, on the same data
  connection: which generations the child has fully decoded, so the
  parent stops spending the thread on them.  Cumulative, so a lost or
  repeated record costs nothing but redundancy.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..protocol.messages import (
    ComplaintMsg,
    CongestionDrop,
    CongestionRestore,
    JoinGrant,
    JoinRequest,
    KeepAlive,
    LeaveRequest,
    Probe,
    ProbeAck,
    SetParent,
    ThreadRemoved,
)

__all__ = [
    "ControlFormatError",
    "DataHello",
    "GenerationsComplete",
    "MAX_COMPLETE_WINDOW",
    "MESSAGE_TYPES",
    "PeerLocator",
    "SessionInfo",
    "decode_control",
    "encode_control",
]


class ControlFormatError(ValueError):
    """Raised when a control frame cannot be parsed."""


# ----------------------------------------------------------------------
# Net-only messages


@dataclass(frozen=True)
class SessionInfo:
    """Server -> joiner: session coding geometry (precedes the grant)."""

    generation_size: int
    payload_size: int
    generation_count: int
    content_length: int
    k: int
    d: int


@dataclass(frozen=True)
class PeerLocator:
    """Server -> peer: where ``node_id`` listens for data connections."""

    node_id: int
    host: str
    port: int


@dataclass(frozen=True)
class DataHello:
    """Child -> parent: first frame of a data connection."""

    node_id: int
    column: int


#: Furthest above ``base`` a :class:`GenerationsComplete` can name a
#: generation: the bound on its bitmap (8 KiB), and so on what a
#: hostile child can make a parent parse per record.
MAX_COMPLETE_WINDOW = 1 << 16


@dataclass(frozen=True)
class GenerationsComplete:
    """Child -> parent: the generations the child has fully decoded.

    Every generation below ``base`` is complete, ``base`` itself is
    not, and ``extras`` names the complete ones above it in increasing
    order — a child served in order reports ``(n, ())``, ten bytes
    framed, however many generations there are.  The record is the
    child's whole set every time: a parent takes the union, so records
    may be lost, repeated or coalesced freely.
    """

    base: int
    extras: tuple[int, ...] = ()


# ----------------------------------------------------------------------
# Codec registry: message class -> (type byte, struct, field names).
# 0x03 and 0x04 are retired and never reused: a node still sending them
# gets a ControlFormatError, never a different message.

_SIMPLE: dict[type, tuple[int, struct.Struct, tuple[str, ...]]] = {
    JoinRequest: (0x01, struct.Struct(">i"), ("reply_to",)),
    LeaveRequest: (0x02, struct.Struct(">i"), ("node_id",)),
    SetParent: (0x05, struct.Struct(">Hi"), ("column", "parent")),
    KeepAlive: (0x06, struct.Struct(">Hi"), ("column", "sender")),
    CongestionDrop: (0x07, struct.Struct(">i"), ("node_id",)),
    CongestionRestore: (0x08, struct.Struct(">i"), ("node_id",)),
    ThreadRemoved: (0x09, struct.Struct(">H"), ("column",)),
    ComplaintMsg: (0x0A, struct.Struct(">iHi"), ("reporter", "column", "suspect")),
    Probe: (0x0B, struct.Struct(">Q"), ("nonce",)),
    ProbeAck: (0x0C, struct.Struct(">iQ"), ("node_id", "nonce")),
    SessionInfo: (
        0x10,
        struct.Struct(">HHIQHH"),
        ("generation_size", "payload_size", "generation_count",
         "content_length", "k", "d"),
    ),
    DataHello: (0x12, struct.Struct(">iH"), ("node_id", "column")),
}

_TYPE_JOIN_GRANT = 0x0D
_TYPE_PEER_LOCATOR = 0x11
_TYPE_GENERATIONS_COMPLETE = 0x13

#: Every message class the codec round-trips (property-based tests
#: enumerate this to fuzz arbitrary control streams).
MESSAGE_TYPES: tuple[type, ...] = (
    *_SIMPLE, JoinGrant, PeerLocator, GenerationsComplete)

_BY_TYPE = {type_byte: (cls, fmt, fields)
            for cls, (type_byte, fmt, fields) in _SIMPLE.items()}

_GRANT_HEADER = struct.Struct(">iH")
_GRANT_PAIR = struct.Struct(">Hi")
_LOCATOR_HEADER = struct.Struct(">iHB")
_COMPLETE_BASE = struct.Struct(">I")


def encode_control(message: object) -> bytes:
    """Serialise a control message: one type byte + packed fields."""
    entry = _SIMPLE.get(type(message))
    if entry is not None:
        type_byte, fmt, fields = entry
        values = tuple(getattr(message, name) for name in fields)
        return bytes([type_byte]) + fmt.pack(*values)
    if isinstance(message, JoinGrant):
        body = _GRANT_HEADER.pack(message.node_id, len(message.assignments))
        for column, parent in message.assignments:
            body += _GRANT_PAIR.pack(column, parent)
        return bytes([_TYPE_JOIN_GRANT]) + body
    if isinstance(message, PeerLocator):
        host = message.host.encode("utf-8")
        if len(host) > 255:
            raise ControlFormatError(f"host too long: {len(host)} bytes")
        return (bytes([_TYPE_PEER_LOCATOR])
                + _LOCATOR_HEADER.pack(message.node_id, message.port, len(host))
                + host)
    if isinstance(message, GenerationsComplete):
        # Bit j of the little-endian bitmap is generation base + 1 + j.
        # An extra past the window is left out: under-reporting only
        # costs the redundancy the record exists to save.
        first = message.base + 1
        bits = 0
        for generation in message.extras:
            if generation < first:
                raise ControlFormatError(
                    f"GenerationsComplete: extra {generation} not above "
                    f"base {message.base}")
            if generation - first < MAX_COMPLETE_WINDOW:
                bits |= 1 << (generation - first)
        return (bytes([_TYPE_GENERATIONS_COMPLETE])
                + _COMPLETE_BASE.pack(message.base)
                + bits.to_bytes((bits.bit_length() + 7) // 8, "little"))
    raise ControlFormatError(f"unknown control message {type(message).__name__}")


def decode_control(data: bytes) -> object:
    """Parse a control frame back into its message dataclass."""
    if not data:
        raise ControlFormatError("empty control frame")
    type_byte, body = data[0], data[1:]
    entry = _BY_TYPE.get(type_byte)
    try:
        if entry is not None:
            cls, fmt, fields = entry
            if len(body) != fmt.size:
                raise ControlFormatError(
                    f"{cls.__name__}: expected {fmt.size} body bytes, got {len(body)}"
                )
            return cls(**dict(zip(fields, fmt.unpack(body))))
        if type_byte == _TYPE_JOIN_GRANT:
            node_id, count = _GRANT_HEADER.unpack_from(body)
            expected = _GRANT_HEADER.size + count * _GRANT_PAIR.size
            if len(body) != expected:
                raise ControlFormatError(
                    f"JoinGrant: expected {expected} body bytes, got {len(body)}"
                )
            assignments = tuple(
                _GRANT_PAIR.unpack_from(body, _GRANT_HEADER.size + i * _GRANT_PAIR.size)
                for i in range(count)
            )
            return JoinGrant(node_id=node_id, assignments=assignments)
        if type_byte == _TYPE_PEER_LOCATOR:
            node_id, port, host_len = _LOCATOR_HEADER.unpack_from(body)
            host = body[_LOCATOR_HEADER.size:]
            if len(host) != host_len:
                raise ControlFormatError(
                    f"PeerLocator: expected {host_len} host bytes, got {len(host)}"
                )
            return PeerLocator(node_id=node_id, host=host.decode("utf-8"), port=port)
        if type_byte == _TYPE_GENERATIONS_COMPLETE:
            (base,) = _COMPLETE_BASE.unpack_from(body)
            bitmap = body[_COMPLETE_BASE.size:]
            if len(bitmap) * 8 > MAX_COMPLETE_WINDOW:
                raise ControlFormatError(
                    f"GenerationsComplete: {len(bitmap)} bitmap bytes "
                    f"exceed the {MAX_COMPLETE_WINDOW}-generation window")
            if bitmap and not bitmap[-1]:
                raise ControlFormatError(
                    "GenerationsComplete: bitmap ends in a zero byte")
            bits = int.from_bytes(bitmap, "little")
            extras = []
            while bits:
                lowest = bits & -bits
                extras.append(base + lowest.bit_length())
                bits ^= lowest
            return GenerationsComplete(base=base, extras=tuple(extras))
    except struct.error as exc:
        raise ControlFormatError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ControlFormatError(str(exc)) from exc
    raise ControlFormatError(f"unknown control type 0x{type_byte:02x}")
