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

Every frame is built by one call of :func:`repro.gf.kernels.frame_rows`
(C on the native backend, its numpy twin on the other): this module
packs the group's two possible headers — systematic flag clear and
set — and the kernel writes, per ``coefficients | payload`` row, the
prefix the caller frames it with, the header the row's coefficients
select (the flag is set exactly when they are one 1 among zeros), the
row, and the CRC32 trailer.  A relay's fan-out
(:func:`encode_mixture_rows`) frames a whole group of mixtures in that
one call, whatever the matrix's strides; the packet form
(:func:`encode_packet`, and the batch forms built on it) frames one
row.  On the native backend no byte of a frame is touched in Python.

Decoding parses the header at an offset cursor
(:func:`decode_packet_from` / :func:`read_frame_at`), bounded by the end
of the frame when the caller knows it, and checks magic, version and
length here; :func:`repro.gf.kernels.open_frame` then checks the CRC
over the bytes where they lie and copies the coefficients and the
payload once, into two fresh writable arrays that the packet owns.

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

from ..gf.kernels import frame_rows, open_frame
from .buffers import DEFAULT_POOL, BufferPool
from .packet import CodedPacket

#: Magic bytes identifying a coded-packet frame.
MAGIC = 0x5243
#: The wire version (CRC32 trailer).
VERSION = 2

_HEADER = struct.Struct(">HBBIiHH")
_TRAILER = struct.Struct(">I")
#: Bytes of a frame beyond its ``coefficients | payload`` row.
FRAME_OVERHEAD = _HEADER.size + _TRAILER.size

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
    return FRAME_OVERHEAD + generation_size + payload_size


# ----------------------------------------------------------------------
# Encoding


def encode_packet(packet: CodedPacket) -> bytes:
    """Serialise a packet to its exact-length wire frame.

    The arrays may have any strides, so views of a larger matrix need no
    preparation.
    """
    generation, origin = packet.generation, packet.origin
    g, n = packet.coefficients.shape[0], packet.payload.shape[0]
    return frame_rows(
        packet.coefficients, packet.payload, b"",
        _HEADER.pack(MAGIC, VERSION, 0, generation, origin, g, n),
        _HEADER.pack(MAGIC, VERSION, FLAG_SYSTEMATIC, generation, origin, g, n),
    )[0]


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
    the header is packed once per flag value, and the group is framed
    in one :func:`~repro.gf.kernels.frame_rows` call, whatever the
    matrix's strides.
    """
    g = generation_size
    n = mix.shape[1] - g
    return frame_rows(
        mix[:, :g], mix[:, g:], prefix,
        _HEADER.pack(MAGIC, VERSION, 0, generation, origin, g, n),
        _HEADER.pack(MAGIC, VERSION, FLAG_SYSTEMATIC, generation, origin, g, n),
    )


def encode_packets_into(
    packets: Sequence[CodedPacket],
    buf: Optional[bytearray] = None,
    pool: Optional[BufferPool] = None,
) -> tuple[bytearray, list[tuple[int, int]]]:
    """Serialise a batch of packets back-to-back into one buffer.

    Returns ``(buffer, spans)`` where ``spans[i] = (offset, length)``
    locates packet ``i``'s frame inside ``buffer``.  When ``buf`` is
    None the buffer is leased from ``pool`` (the module default pool if
    none is given).
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


def _parse_header_at(buffer, offset: int) -> tuple[int, int]:
    """Validate magic/version; return the geometry (g, n)."""
    magic, version, _flags, _generation, _origin, g, n = (
        _HEADER.unpack_from(buffer, offset))
    if magic != MAGIC:
        raise WireFormatError(f"bad magic 0x{magic:04x}")
    if version != VERSION:
        raise WireFormatError(f"unsupported version {version}")
    return g, n


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
    # _parse_header_at's checks, inline; TestErrors runs both copies
    magic, version, _flags, generation, origin, g, n = _HEADER.unpack_from(
        buffer, offset)
    if magic != MAGIC:
        raise WireFormatError(f"bad magic 0x{magic:04x}")
    if version != VERSION:
        raise WireFormatError(f"unsupported version {version}")
    total = FRAME_OVERHEAD + g + n
    if available < total or (end is not None and available != total):
        raise WireFormatError(
            f"length mismatch: header promises {total}, frame has {available}"
        )
    parts = open_frame(buffer, offset, _HEADER.size, g, n)
    if parts is None:
        stop = offset + total - _TRAILER.size
        (crc,) = _TRAILER.unpack_from(buffer, stop)
        raise CrcError(f"CRC mismatch: trailer 0x{crc:08x}, "
                       f"body 0x{zlib.crc32(buffer[offset:stop]):08x}")
    coefficients, payload = parts
    return CodedPacket.trusted(
        generation, coefficients, payload, origin), offset + total


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
    g, n = _parse_header_at(buffer, offset)
    end = offset + FRAME_OVERHEAD + g + n
    if len(buffer) < end:
        return None, offset
    return decode_packet_from(buffer, offset, end)
