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
stream bytes into messages.  :class:`Connection` is that buffer as a
connection's protocol object — the transport calls its
``data_received`` with each segment, and it hands every complete
message to the connection's :class:`Handler` — so every connection,
control or data, dialled or accepted, is one ``Connection`` and one
handler.  :class:`FirstFrame` is the handler of an accepted connection
until its first message picks the real one, and
``write_control_nowait`` is the outbound control helper.
"""

from __future__ import annotations

import struct
from typing import Callable, Optional, Union

from ..coding.packet import CodedPacket
from ..coding.wire import (
    FRAME_OVERHEAD,
    CrcError,
    WireFormatError,
    decode_packet_from,
    encode_mixture_rows,
    encode_packet,
)
from .control import ControlFormatError, decode_control, encode_control
from .transport import ByteStreamWriter, Clock

__all__ = [
    "Callbacks",
    "Connection",
    "CrcMismatchError",
    "FirstFrame",
    "FrameBuffer",
    "FramingError",
    "Handler",
    "KIND_CONTROL",
    "KIND_DATA",
    "MAX_FRAME_BYTES",
    "encode_data_frame",
    "encode_data_frames",
    "encode_frame",
    "encode_mixture_frames",
    "write_control_nowait",
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
    prefix = _PREFIX.pack(FRAME_OVERHEAD + groups[0][1].shape[1], KIND_DATA)
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


class Handler:
    """What one connection's messages mean: the per-connection half of
    a :class:`Connection`.  Every callback is a no-op here; a handler
    overrides the ones its kind of connection needs."""

    __slots__ = ()

    def connected(self, connection: "Connection") -> None:
        """The connection is up and ``connection.transport`` is set."""

    def message(self, message: Message) -> None:
        """One complete message, in stream order.  Raising
        :class:`FramingError` closes the connection with that error."""

    def drained(self) -> None:
        """Every complete message of a segment has been handed over (a
        segment that completes none does not call this)."""

    def closed(self, error: Optional[BaseException]) -> None:
        """The connection ended, once: ``error`` is None for a clean
        close, the :class:`FramingError` (or transport error) else."""


class Callbacks(Handler):
    """A handler that is two callables: ``message(message)`` and
    ``closed(error)``."""

    __slots__ = ("message", "closed")

    def __init__(self, message: Callable[[Message], None],
                 closed: Callable[[Optional[BaseException]], None]) -> None:
        self.message = message
        self.closed = closed


class Connection(FrameBuffer):
    """One connection's protocol object, on either transport: the
    :class:`FrameBuffer` its bytes are fed to, and the :class:`Handler`
    its messages go to.

    ``data_received`` feeds the segment, pops every complete message
    into the handler — re-reading ``handler`` each time, so a message
    may hand the rest to another (:class:`FirstFrame`) — then tells it
    the segment is drained.  EOF at a frame boundary is a clean close;
    EOF inside a frame, and any :class:`FramingError` a message raises,
    close the connection with that error.  Nothing is delivered after a
    close, and a drained connection buffers nothing: what stays between
    segments is one incomplete frame, at most ``MAX_FRAME_BYTES`` and a
    prefix.  The transport's flow-control pair goes to ``sender``, the
    outbound pump feeding the connection, if it has one.
    """

    def __init__(self, handler: Handler) -> None:
        super().__init__()
        self.handler = handler
        #: The write side, set by ``connection_made``.
        self.transport: Optional[ByteStreamWriter] = None
        #: What hears ``pause_writing``/``resume_writing``.
        self.sender = None
        self.closed = False

    def connection_made(self, transport: ByteStreamWriter) -> None:
        self.transport = transport
        self.handler.connected(self)

    def data_received(self, data: bytes) -> None:
        if self.closed:
            return
        self.feed(data)
        try:
            message = self.next_message()
            if message is None:
                return
            while message is not None:
                self.handler.message(message)
                if self.closed:
                    return
                message = self.next_message()
        except FramingError as error:
            self.close(error)
            return
        if self._cursor:
            # A partial frame is left: keep only its bytes.
            del self._buffer[: self._cursor]
            self._cursor = 0
        self.handler.drained()

    def eof_received(self) -> None:
        self.close(FramingError("stream truncated inside a frame")
                   if self.pending() else None)

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.close(exc)

    def pause_writing(self) -> None:
        if self.sender is not None:
            self.sender.pause_writing()

    def resume_writing(self) -> None:
        if self.sender is not None:
            self.sender.resume_writing()

    def close(self, error: Optional[BaseException] = None) -> None:
        """End the connection (idempotent): the transport closes, the
        buffer is released and the handler hears ``closed(error)``."""
        if self.closed:
            return
        self.closed = True
        self._buffer = bytearray()
        self._cursor = 0
        if self.transport is not None:
            self.transport.close()
        self.handler.closed(error)


class FirstFrame(Handler):
    """An accepted connection until its first message: ``pick(connection,
    message)`` sets the connection's ``handler`` to the one that message
    calls for, or leaves the connection to be closed.  A dialler that
    has not finished its first frame ``timeout`` after it connected is
    closed by one ``clock.call_at`` deadline, cancelled when the frame
    is in."""

    def __init__(
        self,
        pick: Callable[[Connection, Message], None],
        clock: Clock,
        timeout: float,
    ) -> None:
        self._pick = pick
        self._clock = clock
        self._timeout = timeout
        self._connection: Optional[Connection] = None
        self._deadline = None

    def connected(self, connection: Connection) -> None:
        self._connection = connection
        self._deadline = self._clock.call_at(
            self._clock.time() + self._timeout, connection.close)

    def message(self, message: Message) -> None:
        self._deadline.cancel()
        connection = self._connection
        self._pick(connection, message)
        if connection.handler is self:
            connection.close()

    def closed(self, error: Optional[BaseException]) -> None:
        if self._deadline is not None:
            self._deadline.cancel()


def write_control_nowait(writer: ByteStreamWriter, message: object) -> None:
    """Queue a control frame on the writer."""
    writer.write(encode_frame(KIND_CONTROL, encode_control(message)))
