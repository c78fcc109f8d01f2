"""Wire format: serialise coded packets to bytes and back.

Layout (big-endian), matching the practical-network-coding framing of
[5] — a fixed header, the coefficient vector, then the payload:

    offset  size  field
    0       2     magic (0x5243, "RC")
    2       1     version (2)
    3       1     flags (bit 0: systematic hint)
    4       4     generation index
    8       4     origin node id (two's complement; -1 = server)
    12      2     generation size g (coefficient count)
    14      2     payload size in bytes
    16      g     coefficients (GF(256), one byte each)
    16+g    n     payload bytes
    16+g+n  4     CRC32 trailer

The trailer is a CRC32 of everything before it, so a frame corrupted in
transit (or mis-reassembled from TCP segments) fails loudly in
:func:`decode_packet` instead of feeding garbage coefficients to the
decoder.  A frame stamped with any other version — including the
trailer-less version 1 this format replaced, which would otherwise let
a sender opt out of the checksum — is rejected as malformed.

Every frame is built the same way: one ``bytes`` join of a head (the
header, after whatever prefix the caller frames it with), the row
``coefficients | payload``, and a trailer whose CRC is seeded with the
header's.  A relay's fan-out (:func:`encode_mixture_rows`) packs each
group's two possible headers — systematic flag clear and set — and
their CRCs once, so a mixture costs a flag test (two ``bytes.count``
calls), one CRC over its row and the join.  The packet forms
(:func:`encode_packet`, :func:`encode_packet_into`,
:func:`encode_packets_into`) pack the one header they need.  At the
one- and two-row groups a relay typically frames, numpy's per-call cost
on tiny arrays was most of what framing cost, so the mixture path makes
no numpy call per frame and leases no buffer.

Decoding parses at an offset cursor (:func:`decode_packet_from` /
:func:`read_frame_at`), bounded by the end of the frame when the caller
knows it, and copies the body once: the coefficient and payload arrays
of the packet are two views of that one copy, which the packet owns.

``wire_size()`` on :class:`~repro.coding.packet.CodedPacket` counts an
8-byte abstract header; the concrete format here spends 16 for
alignment and a version field — the difference is irrelevant to every
experiment (overheads are dominated by the coefficient vector).
"""

from __future__ import annotations

import struct
import zlib
from typing import Optional, Sequence

import numpy as np

from .buffers import DEFAULT_POOL, BufferPool
from .packet import CodedPacket, systematic_row

#: Magic bytes identifying a coded-packet frame.
MAGIC = 0x5243
#: The wire version (CRC32 trailer).
VERSION = 2

_HEADER = struct.Struct(">HBBIiHH")
_TRAILER = struct.Struct(">I")

#: Flag bit: the sender believes this is an unmixed source packet.
FLAG_SYSTEMATIC = 0x01


class WireFormatError(ValueError):
    """Raised when a frame cannot be parsed."""


class CrcError(WireFormatError):
    """A well-formed frame whose CRC32 trailer did not match — the
    payload was corrupted in transit (receivers count these
    separately from structural framing violations)."""


def frame_size(generation_size: int, payload_size: int) -> int:
    """Bytes on the wire for the given geometry."""
    return _HEADER.size + generation_size + payload_size + _TRAILER.size


# ----------------------------------------------------------------------
# Encoding


def _frame(head: bytes, header_crc: int, row: bytes) -> bytes:
    """The one frame encoder: ``head`` (ending in the wire header whose
    CRC32 is ``header_crc``), the ``coefficients | payload`` row, and
    the trailer."""
    return b"".join((head, row, _TRAILER.pack(zlib.crc32(row, header_crc))))


def encode_packet(packet: CodedPacket) -> bytes:
    """Serialise a packet to its exact-length wire frame.

    ``tobytes`` reads either array whatever its strides, so views of a
    larger matrix need no preparation.
    """
    coefficients = packet.coefficients.tobytes()
    row = coefficients + packet.payload.tobytes()
    g = len(coefficients)
    header = _HEADER.pack(
        MAGIC, VERSION, FLAG_SYSTEMATIC if systematic_row(row, g) else 0,
        packet.generation, packet.origin, g, len(row) - g,
    )
    return _frame(header, zlib.crc32(header), row)


def encode_packet_into(packet: CodedPacket, buf: bytearray, offset: int = 0) -> int:
    """Serialise ``packet`` into ``buf`` at ``offset``; return the end offset.

    ``buf`` must already be large enough; size it with :func:`frame_size`.
    """
    frame = encode_packet(packet)
    end = offset + len(frame)
    if end > len(buf):
        raise WireFormatError(
            f"buffer too small: need {end} bytes, have {len(buf)}"
        )
    buf[offset:end] = frame
    return end


def encode_packets_rows(packets: Sequence[CodedPacket], rows: np.ndarray) -> None:
    """Encode uniform-geometry packets into the rows of ``rows``.

    ``rows`` is a writable ``(len(packets), frame)`` uint8 view —
    possibly non-contiguous columns of a larger per-frame buffer, as
    long as each row's bytes are contiguous.  Every packet must share
    one ``(g, n)`` geometry (callers check).  Row ``i`` receives
    :func:`encode_packet` of packet ``i``.
    """
    m = len(packets)
    if m == 0:
        return
    first = packets[0]
    frame = frame_size(first.generation_size, first.payload_size)
    if rows.shape != (m, frame):
        raise WireFormatError(
            f"row buffer shape {rows.shape} != ({m}, {frame})"
        )
    for i, packet in enumerate(packets):
        rows[i] = np.frombuffer(encode_packet(packet), dtype=np.uint8)


def encode_mixture_rows(mix: np.ndarray, generation: int, origin: int,
                        generation_size: int, prefix: bytes) -> list[bytes]:
    """Frame a raw mixture matrix, no packets involved.

    ``mix`` is a ``(m, g + n)`` matrix whose rows are
    ``[coefficients | payload]`` (the
    :meth:`~repro.coding.decoder.GenerationDecoder.mixture_rows`
    output); each returned frame is ``prefix`` followed by one row's
    wire frame, byte for byte what :func:`encode_packet` makes of the
    equivalent packet.  Every row shares the generation and origin, so
    the header is packed once per flag value, and the matrix is read
    once into ``bytes`` (whatever its strides), whose row slices the
    flag test and the CRC run on.
    """
    m, width = mix.shape
    g = generation_size
    heads = []
    for flags in (0, FLAG_SYSTEMATIC):
        header = _HEADER.pack(MAGIC, VERSION, flags, generation, origin,
                              g, width - g)
        heads.append((prefix + header, zlib.crc32(header)))
    raw = mix.tobytes()
    frames = []
    for i in range(m):
        row = raw[i * width:(i + 1) * width]
        frames.append(_frame(*heads[systematic_row(row, g)], row))
    return frames


def encode_packets_into(
    packets: Sequence[CodedPacket],
    buf: Optional[bytearray] = None,
    pool: Optional[BufferPool] = None,
) -> tuple[bytearray, list[tuple[int, int]]]:
    """Serialise a batch of packets back-to-back into one buffer.

    Returns ``(buffer, spans)`` where ``spans[i] = (offset, length)``
    locates packet ``i``'s frame inside ``buffer``.  When ``buf`` is
    None the buffer is leased from ``pool`` (the module default pool if
    none is given) and the *caller* is responsible for releasing it —
    typically after the flush that hands the bytes to the transport::

        buf, spans = encode_packets_into(batch)
        try:
            frames = [bytes(memoryview(buf)[o:o + ln]) for o, ln in spans]
        finally:
            DEFAULT_POOL.release(buf)
    """
    total = sum(
        frame_size(p.generation_size, p.payload_size) for p in packets
    )
    if buf is None:
        buf = (pool if pool is not None else DEFAULT_POOL).lease(total)
    elif total > len(buf):
        raise WireFormatError(
            f"buffer too small: need {total} bytes, have {len(buf)}"
        )
    offset = 0
    spans: list[tuple[int, int]] = []
    for packet in packets:
        end = encode_packet_into(packet, buf, offset)
        spans.append((offset, end - offset))
        offset = end
    return buf, spans


# ----------------------------------------------------------------------
# Decoding


def _parse_header_at(buffer, offset: int) -> tuple[int, int, int, int]:
    """Validate magic/version; return (generation, origin, g, n)."""
    magic, version, _flags, generation, origin, g, n = _HEADER.unpack_from(
        buffer, offset
    )
    if magic != MAGIC:
        raise WireFormatError(f"bad magic 0x{magic:04x}")
    if version != VERSION:
        raise WireFormatError(f"unsupported version {version}")
    return generation, origin, g, n


def _decode_at(buffer, offset: int, generation: int, origin: int,
               g: int, n: int) -> CodedPacket:
    """Build a packet from a header-validated frame at ``offset``.

    The body is copied once, and the CRC runs over that copy seeded
    with the header's; the packet's coefficients and payload are the
    two halves of the copy, so it shares nothing with ``buffer``.
    """
    body_start = offset + _HEADER.size
    body = np.frombuffer(buffer, dtype=np.uint8, count=g + n,
                         offset=body_start).copy()
    (crc,) = _TRAILER.unpack_from(buffer, body_start + g + n)
    actual = zlib.crc32(body, zlib.crc32(buffer[offset:body_start]))
    if actual != crc:
        raise CrcError(
            f"CRC mismatch: trailer 0x{crc:08x}, body 0x{actual:08x}"
        )
    return CodedPacket.trusted(generation, body[:g], body[g:], origin)


def decode_packet_from(buffer, offset: int = 0,
                       end: Optional[int] = None) -> tuple[CodedPacket, int]:
    """Parse one frame at ``offset``; return ``(packet, end_offset)``.

    The streaming-decode primitive: nothing before ``offset`` is looked
    at, and the caller advances its cursor to the returned end offset.
    ``end``, when given, is where the frame must stop (a stream's
    length prefix says so): a header that promises any other length is
    rejected before the CRC is computed, so it can never be decoded
    from the bytes of the frame after it.  Raises
    :class:`WireFormatError` on truncation, bad magic, unknown version,
    length mismatch, or checksum mismatch.
    """
    available = (len(buffer) if end is None else end) - offset
    if available < _HEADER.size:
        raise WireFormatError(f"frame too short: {max(available, 0)} bytes")
    generation, origin, g, n = _parse_header_at(buffer, offset)
    total = frame_size(g, n)
    if available < total or (end is not None and available != total):
        raise WireFormatError(
            f"length mismatch: header promises {total}, frame has {available}"
        )
    packet = _decode_at(buffer, offset, generation, origin, g, n)
    return packet, offset + total


def decode_packet(frame) -> CodedPacket:
    """Parse an exact-length wire frame back into a packet.

    Raises :class:`WireFormatError` on truncation, bad magic, unknown
    version, trailing garbage, or checksum mismatch.
    """
    return decode_packet_from(frame, 0, len(frame))[0]


def read_frame_at(buffer, offset: int = 0) -> tuple[Optional[CodedPacket], int]:
    """Streaming decode with an offset cursor: no tail re-slicing.

    Returns ``(packet, new_offset)`` when a complete frame starts at
    ``offset``, or ``(None, offset)`` when more bytes are needed — the
    receive loop keeps the buffer intact and only advances its cursor,
    so consuming F frames costs O(bytes) instead of the O(bytes x F)
    of rebuilding the tail after every frame.  Malformed data (bad
    magic/version, CRC mismatch) raises :class:`WireFormatError`; a
    well-formed prefix never does.
    """
    if len(buffer) - offset < _HEADER.size:
        return None, offset
    generation, origin, g, n = _parse_header_at(buffer, offset)
    total = frame_size(g, n)
    if len(buffer) - offset < total:
        return None, offset
    packet = _decode_at(buffer, offset, generation, origin, g, n)
    return packet, offset + total
