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

The codec is zero-copy (:func:`encode_packet_into` /
:func:`encode_packets_into` / :func:`decode_packet_from` /
:func:`read_frame_at`): frames are written straight into a caller (or
:class:`~repro.coding.buffers.BufferPool`) supplied ``bytearray`` and
parsed at an offset cursor, so a busy connection neither builds
per-frame temporaries on the way out nor re-slices its receive buffer
on the way in.  :func:`encode_packet` / :func:`decode_packet` are the
exact-length single-frame forms of the same codec.

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
from .packet import CodedPacket

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


def encode_packet_into(packet: CodedPacket, buf: bytearray, offset: int = 0) -> int:
    """Serialise ``packet`` into ``buf`` at ``offset``; return the end offset.

    This is the zero-copy encode path: the header is packed in place,
    the coefficient and payload bytes are copied exactly once (from the
    packet's arrays into the frame slot — the one copy that must
    happen), and the CRC is computed over a :class:`memoryview` without
    materialising an intermediate body.  ``buf`` must already be large
    enough; size it with :func:`frame_size`.
    """
    g = packet.generation_size
    n = packet.payload_size
    end = offset + frame_size(g, n)
    if end > len(buf):
        raise WireFormatError(
            f"buffer too small: need {end} bytes, have {len(buf)}"
        )
    flags = FLAG_SYSTEMATIC if packet.is_systematic() else 0
    _HEADER.pack_into(
        buf, offset,
        MAGIC, VERSION, flags,
        packet.generation, packet.origin, g, n,
    )
    view = memoryview(buf)
    coeff_start = offset + _HEADER.size
    view[coeff_start:coeff_start + g] = memoryview(packet.coefficients)
    view[coeff_start + g:coeff_start + g + n] = memoryview(packet.payload)
    crc = zlib.crc32(view[offset:end - _TRAILER.size])
    _TRAILER.pack_into(buf, end - _TRAILER.size, crc)
    return end


def encode_packet(packet: CodedPacket) -> bytes:
    """Serialise a packet to its exact-length wire frame."""
    buf = bytearray(frame_size(packet.generation_size, packet.payload_size))
    encode_packet_into(packet, buf)
    return bytes(buf)


def encode_packets_rows(packets: Sequence[CodedPacket], rows: np.ndarray) -> None:
    """Vectorised batch encode of uniform-geometry packets.

    ``rows`` is a writable ``(len(packets), frame)`` uint8 view —
    possibly non-contiguous columns of a larger per-frame buffer, as
    long as each row's bytes are contiguous.  Every packet must share
    one ``(g, n)`` geometry (callers check; mismatched shapes fail the
    ``np.stack`` below).  The constant header fields are broadcast once
    across the batch, each variable field lands with one vectorised
    store, and only the CRC runs per frame — the result is
    bit-identical to :func:`encode_packet_into` row by row, it just
    replaces per-frame struct packing with whole-batch array stores.
    """
    m = len(packets)
    if m == 0:
        return
    first = packets[0]
    g = first.generation_size
    n = first.payload_size
    frame = frame_size(g, n)
    if rows.shape != (m, frame):
        raise WireFormatError(
            f"row buffer shape {rows.shape} != ({m}, {frame})"
        )
    rows[:, : _HEADER.size] = np.frombuffer(
        _HEADER.pack(MAGIC, VERSION, 0, 0, 0, g, n), dtype=np.uint8
    )
    generations = np.array([p.generation for p in packets], dtype=">u4")
    rows[:, 4:8] = generations.view(np.uint8).reshape(m, 4)
    origins = np.array([p.origin for p in packets], dtype=">i4")
    rows[:, 8:12] = origins.view(np.uint8).reshape(m, 4)
    coeff_start = _HEADER.size
    coeffs = np.stack([p.coefficients for p in packets])
    rows[:, coeff_start:coeff_start + g] = coeffs
    if g:
        systematic = (
            (np.count_nonzero(coeffs, axis=1) == 1)
            & (coeffs.max(axis=1) == 1)
        )
        rows[:, 3] = np.where(systematic, FLAG_SYSTEMATIC, 0)
    rows[:, coeff_start + g:coeff_start + g + n] = np.stack(
        [p.payload for p in packets]
    )
    data_end = frame - _TRAILER.size
    crcs = np.array(
        [zlib.crc32(rows[i, :data_end]) for i in range(m)], dtype=">u4"
    )
    rows[:, data_end:] = crcs.view(np.uint8).reshape(m, 4)


def encode_mixture_rows(dest: np.ndarray, mix: np.ndarray, generation: int,
                        origin: int, generation_size: int) -> None:
    """Encode a raw mixture matrix into wire frames, no packets involved.

    ``mix`` is a ``(m, g + n)`` matrix whose rows are
    ``[coefficients | payload]`` (the
    :meth:`~repro.coding.decoder.GenerationDecoder.mixture_rows` output);
    ``dest`` is a writable ``(m, frame)`` uint8 view.  All frames share
    one generation and origin, so the entire header except the
    systematic flag is baked into a single broadcast template, the flag
    is computed with one vectorised reduction over the coefficient
    columns, and the bodies land with one 2-D copy — the zero-copy
    endpoint of the batched emit pipeline.  Bit-identical per row to
    :func:`encode_packet_into` on the equivalent packet.
    """
    m, width = mix.shape
    g = generation_size
    n = width - g
    frame = frame_size(g, n)
    if dest.shape != (m, frame):
        raise WireFormatError(
            f"row buffer shape {dest.shape} != ({m}, {frame})"
        )
    dest[:, : _HEADER.size] = np.frombuffer(
        _HEADER.pack(MAGIC, VERSION, 0, generation, origin, g, n),
        dtype=np.uint8,
    )
    coeffs = mix[:, :g]
    if g:
        systematic = (
            (np.count_nonzero(coeffs, axis=1) == 1)
            & (coeffs.max(axis=1) == 1)
        )
        dest[:, 3] = np.where(systematic, FLAG_SYSTEMATIC, 0)
    dest[:, _HEADER.size:_HEADER.size + width] = mix
    data_end = frame - _TRAILER.size
    crcs = np.array(
        [zlib.crc32(dest[i, :data_end]) for i in range(m)], dtype=">u4"
    )
    dest[:, data_end:] = crcs.view(np.uint8).reshape(m, 4)


def _uniform_geometry(
    packets: Sequence[CodedPacket],
) -> Optional[tuple[int, int]]:
    """``(g, n)`` when every packet shares one geometry, else None."""
    first = packets[0]
    g = first.generation_size
    n = first.payload_size
    for packet in packets:
        if packet.generation_size != g or packet.payload_size != n:
            return None
    return g, n


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

    One batch costs one (pooled, usually pre-existing) allocation and
    one copy per payload byte, versus three temporaries per frame on
    the old ``header + coeffs.tobytes() + payload.tobytes()`` path.
    """
    total = sum(
        frame_size(p.generation_size, p.payload_size) for p in packets
    )
    if buf is None:
        buf = (pool if pool is not None else DEFAULT_POOL).lease(total)
    m = len(packets)
    if m > 1:
        geometry = _uniform_geometry(packets)
        if geometry is not None:
            # Uniform batch (the emit_batch common case): one vectorised
            # fill across all frames instead of m struct-packed encodes.
            frame = frame_size(*geometry)
            if m * frame > len(buf):
                raise WireFormatError(
                    f"buffer too small: need {m * frame} bytes, "
                    f"have {len(buf)}"
                )
            rows = np.frombuffer(buf, dtype=np.uint8,
                                 count=m * frame).reshape(m, frame)
            encode_packets_rows(packets, rows)
            return buf, [(i * frame, frame) for i in range(m)]
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

    The CRC is checked over a :class:`memoryview` (no body slice) and
    the coefficient/payload arrays are materialised with one
    ``np.frombuffer(...).copy()`` each — the single copy that gives the
    packet ownership of its bytes, and the only per-frame allocation.
    """
    body_end = offset + frame_size(g, n) - _TRAILER.size
    (crc,) = _TRAILER.unpack_from(buffer, body_end)
    actual = zlib.crc32(memoryview(buffer)[offset:body_end])
    if actual != crc:
        raise CrcError(
            f"CRC mismatch: trailer 0x{crc:08x}, body 0x{actual:08x}"
        )
    coefficients = np.frombuffer(buffer, dtype=np.uint8,
                                 count=g, offset=offset + _HEADER.size).copy()
    payload = np.frombuffer(buffer, dtype=np.uint8, count=n,
                            offset=offset + _HEADER.size + g).copy()
    return CodedPacket(
        generation=generation,
        coefficients=coefficients,
        payload=payload,
        origin=origin,
    )


def decode_packet_from(buffer, offset: int = 0) -> tuple[CodedPacket, int]:
    """Parse one frame at ``offset``; return ``(packet, end_offset)``.

    The streaming-decode primitive: nothing before ``offset`` is looked
    at, nothing is sliced, and the caller advances its cursor to the
    returned end offset.  Raises :class:`WireFormatError` on truncation,
    bad magic, unknown version, or checksum mismatch.
    """
    available = len(buffer) - offset
    if available < _HEADER.size:
        raise WireFormatError(f"frame too short: {max(available, 0)} bytes")
    generation, origin, g, n = _parse_header_at(buffer, offset)
    total = frame_size(g, n)
    if available < total:
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
    packet, end = decode_packet_from(frame, 0)
    if end != len(frame):
        raise WireFormatError(
            f"length mismatch: header promises {end}, frame has {len(frame)}"
        )
    return packet


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
