"""Length-prefixed TCP framing for the live transport.

Every frame on a connection is::

    uint32  body length (big-endian)
    uint8   kind (0 = data, 1 = control)
    bytes   body

Data bodies are exactly the coded-packet wire frames of
:mod:`repro.coding.wire` (version 2, CRC32-trailed), so a captured
stream is a concatenation of the same frames the simulators serialise.
Control bodies are :mod:`repro.net.control` messages.

There is one inbound path: :class:`FrameBuffer`, a sans-IO accumulator
(``feed`` bytes, pop complete messages), is the only code that turns
stream bytes into messages.  :class:`MessageStream` pairs it with a
connection's reader — every read site in the server and peer nodes goes
through one per connection — and ``send_control`` /
``write_control_nowait`` are the outbound control helpers.
"""

from __future__ import annotations

import struct
from typing import Optional, Union

from ..coding.packet import CodedPacket
from ..coding.wire import (
    CrcError,
    WireFormatError,
    decode_packet_from,
    encode_mixture_rows,
    encode_packet,
    frame_size,
)
from .control import ControlFormatError, decode_control, encode_control
from .transport import ByteStreamReader, ByteStreamWriter, Clock

__all__ = [
    "CrcMismatchError",
    "FrameBuffer",
    "FramingError",
    "KIND_CONTROL",
    "KIND_DATA",
    "MAX_FRAME_BYTES",
    "MessageStream",
    "encode_data_frame",
    "encode_data_frames",
    "encode_frame",
    "encode_mixture_frames",
    "first_message",
    "send_control",
]

#: Frame kinds.
KIND_DATA = 0
KIND_CONTROL = 1

#: Upper bound on a frame body; anything larger is treated as stream
#: corruption (the largest legitimate data frame is a little over
#: 128 KiB: 64 KiB of coefficients + 64 KiB of payload + header — the
#: wire header's 16-bit sizes keep every encoded data frame below it).
MAX_FRAME_BYTES = 1 << 20

_PREFIX = struct.Struct(">IB")

#: Bytes asked of the reader per :meth:`MessageStream.fill` — also the
#: bound on how much one wake-up parses before yielding to the loop.
READ_CHUNK_BYTES = 1 << 16

#: A parsed message off the stream.
Message = Union[CodedPacket, object]


class FramingError(ConnectionError):
    """Raised when a stream violates the framing contract."""


class CrcMismatchError(FramingError):
    """A data frame failed its CRC32 check: the connection still dies
    (the stream can no longer be trusted), but receivers count these
    corruption events separately from structural framing errors."""


def encode_frame(kind: int, body: bytes) -> bytes:
    """Prefix a body with its length and kind."""
    if kind not in (KIND_DATA, KIND_CONTROL):
        raise FramingError(f"unknown frame kind {kind}")
    if len(body) > MAX_FRAME_BYTES:
        raise FramingError(f"frame body too large: {len(body)} bytes")
    return _PREFIX.pack(len(body), kind) + body


def encode_data_frame(packet: CodedPacket) -> bytes:
    """Serialise one packet as a length-prefixed data frame."""
    frame = encode_packet(packet)
    return _PREFIX.pack(len(frame), KIND_DATA) + frame


def encode_data_frames(packets: list[CodedPacket]) -> list[bytes]:
    """Serialise a batch of packets as length-prefixed data frames, one
    :func:`encode_data_frame` each."""
    return [encode_data_frame(p) for p in packets]


def encode_mixture_frames(
    groups: list, generation_size: int, origin: int,
) -> list[bytes]:
    """Encode recoder mixture groups straight to length-prefixed frames.

    ``groups`` is ``[(generation, rows), ...]``, each ``rows`` a
    :meth:`repro.coding.recoder.Recoder.emit_rows` matrix, all sharing
    one ``(g, n)`` geometry (they mix one content object).  The mixtures
    never become :class:`~repro.coding.packet.CodedPacket` objects: each
    group is framed by one :func:`~repro.coding.wire.encode_mixture_rows`
    call behind the prefix they all share, group after group.  This is
    the fused emit-to-wire path every peer's fan-out uses.
    """
    if not groups:
        return []
    width = groups[0][1].shape[1]
    prefix = _PREFIX.pack(frame_size(generation_size, width - generation_size),
                          KIND_DATA)
    frames: list[bytes] = []
    for generation, rows in groups:
        frames += encode_mixture_rows(
            rows, generation, origin, generation_size, prefix)
    return frames


class FrameBuffer:
    """Sans-IO reassembly of frames from an arbitrary byte stream.

    Feed it whatever chunks the socket hands you; iterate the complete
    messages.  Raises :class:`FramingError` on protocol violations, at
    which point the connection should be dropped.

    Consumption is cursor-based: parsing a message advances an offset
    into the accumulated buffer instead of rebuilding the tail, so
    draining F buffered frames costs O(bytes) rather than the
    O(bytes x F) of the old ``del buffer[:total]`` per message; the
    consumed prefix is compacted away on the next ``feed``, or at once
    when a message ends where the buffered bytes end, so a drained
    buffer holds nothing between reads.  A data
    body is decoded through the wire layer's offset cursor
    (:func:`repro.coding.wire.decode_packet_from`), bounded by the end
    its prefix framed, with one copy: the packet's.  A control body is
    copied once, into the slice :func:`decode_control` parses.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._cursor = 0

    def feed(self, data: bytes) -> None:
        """Append raw bytes received from the stream."""
        if self._cursor:
            del self._buffer[: self._cursor]
            self._cursor = 0
        self._buffer.extend(data)

    def pending(self) -> int:
        """Bytes buffered but not yet consumed."""
        return len(self._buffer) - self._cursor

    def next_message(self) -> Optional[Message]:
        """Pop one complete message, or None if more bytes are needed."""
        buf, cursor = self._buffer, self._cursor
        if len(buf) - cursor < _PREFIX.size:
            return None
        length, kind = _PREFIX.unpack_from(buf, cursor)
        if length > MAX_FRAME_BYTES:
            raise FramingError(f"frame body too large: {length} bytes")
        total = _PREFIX.size + length
        if len(buf) - cursor < total:
            return None
        body_start = cursor + _PREFIX.size
        end = self._cursor = cursor + total  # consumed even if bad
        if kind == KIND_DATA:
            try:
                message = decode_packet_from(buf, body_start, end)[0]
            except WireFormatError as exc:
                cls = (CrcMismatchError if isinstance(exc, CrcError)
                       else FramingError)
                raise cls(f"bad frame body: {exc}") from exc
        elif kind == KIND_CONTROL:
            try:
                message = decode_control(buf[body_start:end])
            except ControlFormatError as exc:
                raise FramingError(f"bad frame body: {exc}") from exc
        else:
            raise FramingError(f"unknown frame kind {kind}")
        if end == len(buf):
            # Drained: release the bytes now, not at the next feed.
            self._buffer = bytearray()
            self._cursor = 0
        return message


class MessageStream:
    """A connection's inbound side: its reader and the one
    :class:`FrameBuffer` that parses it.

    Bytes the reader hands over stay buffered here between calls, so
    the object must live as long as the connection does — hand the same
    stream from an admission sequence to the loop that follows it.
    """

    def __init__(self, reader: ByteStreamReader) -> None:
        self._reader = reader
        self._frames = FrameBuffer()

    def next_nowait(self) -> Optional[Message]:
        """Pop one buffered message, or None when :meth:`fill` is due."""
        return self._frames.next_message()

    async def fill(self) -> bool:
        """Feed the parser one chunked read.  False on a clean EOF (the
        stream ended at a frame boundary); EOF inside a frame raises
        :class:`FramingError`."""
        data = await self._reader.read(READ_CHUNK_BYTES)
        if data:
            self._frames.feed(data)
            return True
        if self._frames.pending():
            raise FramingError("stream truncated inside a frame")
        return False

    async def next(self) -> Optional[Message]:
        """The next message off the stream; None on a clean EOF."""
        while True:
            message = self._frames.next_message()
            if message is not None or not await self.fill():
                return message


async def first_message(
    stream: MessageStream, writer: ByteStreamWriter,
    clock: Clock, timeout: float,
) -> Optional[Message]:
    """A dialler's first message; None if it sent garbage, hung up, or
    did not finish one within ``timeout``.

    The read is bare.  Its bound is one timer, due ``timeout`` from
    now, that closes the connection under the read (which then ends
    as a hang-up) and is cancelled as soon as the message is in: the
    common case — the frame is already here — completes in the
    caller's own step, with no task switch between a dial and the
    attach it asks for.
    """
    deadline = clock.call_at(clock.time() + timeout, writer.close)
    try:
        return await stream.next()
    except (ConnectionError, OSError):
        return None
    finally:
        deadline.cancel()


def write_control_nowait(writer: ByteStreamWriter, message: object) -> None:
    """Queue a control frame on the writer without draining."""
    writer.write(encode_frame(KIND_CONTROL, encode_control(message)))


async def send_control(writer: ByteStreamWriter, message: object) -> None:
    """Write one control frame and drain."""
    write_control_nowait(writer, message)
    await writer.drain()
