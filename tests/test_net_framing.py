"""Tests for stream framing and the bounded outbound pumps."""

import asyncio
import tracemalloc

import numpy as np
import pytest

from repro.coding import CodedPacket, GenerationParams, Recoder
from repro.coding.wire import encode_packet
from repro.dataplane import RelayEngine
from repro.net.control import DataHello, encode_control
from repro.net.framing import (
    KIND_CONTROL,
    KIND_DATA,
    CrcMismatchError,
    FrameBuffer,
    FramingError,
    MessageStream,
    encode_data_frame,
    encode_frame,
)
from repro.net.streams import PacketSender, PumpSet
from repro.protocol.messages import KeepAlive, SetParent


def _drain(buffer: FrameBuffer) -> list:
    """Every complete message buffered, in order."""
    return list(iter(buffer.next_message, None))


def _packet(generation=0, origin=3):
    return CodedPacket(
        generation=generation,
        coefficients=np.array([1, 2, 3], dtype=np.uint8),
        payload=np.arange(10, dtype=np.uint8),
        origin=origin,
    )


def _restamped(version: int) -> list[bytes]:
    """A valid wire frame with its version byte overwritten, with and
    without the four bytes where the CRC trailer sits."""
    body = bytearray(encode_packet(_packet()))
    body[2] = version
    return [bytes(body), bytes(body[:-4])]


def _decode_queued(frame: bytes) -> CodedPacket:
    """Decode one length-prefixed data frame from a sender queue."""
    buffer = FrameBuffer()
    buffer.feed(frame)
    return buffer.next_message()


class TestFrameBuffer:
    def test_byte_by_byte_feed(self):
        """TCP can deliver any fragmentation; one byte at a time is the
        worst case."""
        buffer = FrameBuffer()
        frame = encode_frame(KIND_DATA, encode_packet(_packet()))
        for i, byte in enumerate(frame):
            buffer.feed(bytes([byte]))
            message = buffer.next_message()
            if i < len(frame) - 1:
                assert message is None
            else:
                assert isinstance(message, CodedPacket)

    def test_mixed_kinds_in_one_feed(self):
        buffer = FrameBuffer()
        buffer.feed(
            encode_frame(KIND_DATA, encode_packet(_packet(generation=4)))
            + encode_frame(KIND_CONTROL, encode_control(SetParent(column=1, parent=2)))
            + encode_frame(KIND_CONTROL, encode_control(KeepAlive(column=0, sender=9)))
        )
        messages = list(_drain(buffer))
        assert [type(m).__name__ for m in messages] == [
            "CodedPacket", "SetParent", "KeepAlive"
        ]
        assert messages[0].generation == 4
        assert buffer.pending() == 0

    def test_oversize_frame_rejected(self):
        buffer = FrameBuffer()
        buffer.feed((2**30).to_bytes(4, "big") + b"\x00junk")
        with pytest.raises(FramingError):
            buffer.next_message()

    def test_unknown_kind_rejected(self):
        buffer = FrameBuffer()
        buffer.feed((1).to_bytes(4, "big") + bytes([7]) + b"x")
        with pytest.raises(FramingError):
            buffer.next_message()

    def test_corrupt_body_rejected(self):
        body = bytearray(encode_packet(_packet()))
        body[-1] ^= 0x01  # breaks the CRC32 trailer
        buffer = FrameBuffer()
        buffer.feed(encode_frame(KIND_DATA, bytes(body)))
        with pytest.raises(CrcMismatchError):
            buffer.next_message()

    def test_wrong_version_is_malformed_not_a_crc_failure(self):
        """A frame stamped with a version other than 2 is a structural
        violation whatever its trailer says — receivers must not count
        it as in-transit corruption."""
        for version in (0, 1, 3):
            for body in _restamped(version):
                buffer = FrameBuffer()
                buffer.feed(encode_frame(KIND_DATA, body))
                with pytest.raises(FramingError) as caught:
                    buffer.next_message()
                assert not isinstance(caught.value, CrcMismatchError)

    @pytest.mark.parametrize("followed", [True, False],
                             ids=["followed", "alone"])
    def test_header_must_agree_with_the_length_prefix(self, followed):
        """A header promising more bytes than its prefix framed is a
        framing error whether or not another frame follows — it is
        never decoded (and CRC-checked) over the next frame's bytes."""
        buffer = FrameBuffer()
        buffer.feed(_overlong_frame(followed))
        with pytest.raises(FramingError) as caught:
            buffer.next_message()
        assert not isinstance(caught.value, CrcMismatchError)


class TestFrameBufferHoldsNothingDrained:
    """A buffer whose last message ended where its bytes end keeps
    none of them until the next feed."""

    def test_three_whole_frames_drain_to_empty(self):
        buffer = FrameBuffer()
        buffer.feed(b"".join(encode_data_frame(_packet(g)) for g in range(3)))
        assert [buffer.next_message().generation for _ in range(3)] == [0, 1, 2]
        assert buffer.pending() == 0
        assert len(buffer._buffer) == 0

    def test_control_only_stream_drains_to_empty(self):
        keepalive = encode_frame(
            KIND_CONTROL, encode_control(KeepAlive(column=0, sender=1)))
        buffer = FrameBuffer()
        buffer.feed(keepalive * 3)
        assert [type(m) for m in _drain(buffer)] == [KeepAlive] * 3
        assert len(buffer._buffer) == 0

    def test_a_partial_frame_stays_buffered(self):
        frame = encode_data_frame(_packet())
        buffer = FrameBuffer()
        buffer.feed(frame + frame[:5])
        assert isinstance(buffer.next_message(), CodedPacket)
        assert buffer.next_message() is None
        assert buffer.pending() == 5
        buffer.feed(frame[5:])
        assert isinstance(buffer.next_message(), CodedPacket)
        assert len(buffer._buffer) == 0


def _overlong_frame(followed: bool) -> bytes:
    """A 64-byte data frame whose payload-size field says 80, then —
    if ``followed`` — a valid frame."""
    packet = CodedPacket(generation=1,
                         coefficients=np.arange(1, 9, dtype=np.uint8),
                         payload=np.arange(36, dtype=np.uint8), origin=2)
    body = bytearray(encode_packet(packet))
    assert len(body) == 64
    body[14:16] = (80).to_bytes(2, "big")
    data = encode_frame(KIND_DATA, bytes(body))
    if followed:
        data += encode_data_frame(packet)
    return data


def _stream(data: bytes) -> MessageStream:
    """A MessageStream over a real StreamReader holding ``data`` + EOF."""
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return MessageStream(reader)


async def _first(data: bytes):
    return await _stream(data).next()


class TestReadMessage:
    """Reading messages off an asyncio stream through the drivers'
    inbound path, :class:`MessageStream` (the class name is kept so the
    test ids stay stable)."""

    def test_reads_frames_then_clean_eof(self):
        async def scenario():
            stream = _stream(
                encode_frame(KIND_CONTROL, encode_control(DataHello(node_id=1,
                                                                    column=2)))
                + encode_frame(KIND_DATA, encode_packet(_packet()))
            )
            return await stream.next(), await stream.next(), await stream.next()

        first, second, third = asyncio.run(scenario())
        assert first == DataHello(node_id=1, column=2)
        assert isinstance(second, CodedPacket)
        assert third is None

    def test_truncated_prefix_raises(self):
        with pytest.raises(FramingError, match="truncated"):
            asyncio.run(_first(b"\x00\x00"))

    def test_truncated_body_raises(self):
        frame = encode_frame(KIND_DATA, encode_packet(_packet()))
        with pytest.raises(FramingError, match="truncated"):
            asyncio.run(_first(frame[:-3]))

    def test_complete_frames_before_a_truncation_still_arrive(self):
        frame = encode_frame(KIND_DATA, encode_packet(_packet(generation=6)))

        async def scenario():
            stream = _stream(frame + frame[:-3])
            first = await stream.next()
            with pytest.raises(FramingError, match="truncated"):
                await stream.next()
            return first

        assert asyncio.run(scenario()).generation == 6

    @pytest.mark.parametrize("data, crc", [
        pytest.param(
            (2**30).to_bytes(4, "big") + b"\x00junk", False, id="oversize"),
        pytest.param(
            (1).to_bytes(4, "big") + bytes([7]) + b"x", False,
            id="unknown-kind"),
        pytest.param(
            encode_frame(KIND_DATA, encode_packet(_packet()) + b"\x00"),
            False, id="framed-length-exceeds-wire-span"),
        pytest.param(
            encode_frame(KIND_DATA, _restamped(3)[0]), False,
            id="wrong-version"),
        pytest.param(
            encode_frame(KIND_DATA, encode_packet(_packet())[:-1] + b"\xff"),
            True, id="crc-mismatch"),
    ])
    def test_every_rejection_surfaces_through_the_stream(self, data, crc):
        """The checks live in FrameBuffer; the stream must not swallow
        or reclassify any of them (an oversize prefix is rejected before
        its body arrives)."""
        with pytest.raises(FramingError) as caught:
            asyncio.run(_first(data))
        assert isinstance(caught.value, CrcMismatchError) is crc


def _crc_failures(data: bytes) -> int:
    """``PeerStats.crc_failures`` after ``PumpSet.consume`` reads a
    parent that answers the child's hello with ``data``."""
    from repro.net.peer import PeerStats
    from repro.net.testing import VirtualNetwork
    from repro.obs import Registry

    async def scenario():
        net = VirtualNetwork()

        async def parent(reader, writer):
            await MessageStream(reader).next()  # the child's DataHello
            writer.write(data)

        listener = net.bind("parent", 0, parent)
        pumps = PumpSet(Registry("peer"), limit=8,
                        keepalive_interval=None, clock=net.clock)
        pumps.engine = RelayEngine(Recoder(
            GenerationParams(4, 16), 1, np.random.default_rng(0), 9))
        pumps.generation_size = 4
        stats = PeerStats()
        reader, writer = await net.open_connection("peer", *listener.address)
        await pumps.consume(0, reader, writer, 1.0, stats)
        await net.shutdown()
        return stats.crc_failures

    return asyncio.run(scenario())


class TestPeerCorruptionAccounting:
    def test_peer_counts_crc_failures_but_not_wrong_versions(self):
        """PeerStats.crc_failures moves on a corrupted body and stays
        put on a wrong-version frame; both drop the connection
        ``PumpSet.consume`` is reading."""
        corrupted = bytearray(encode_packet(_packet()))
        corrupted[-1] ^= 0x01
        assert _crc_failures(encode_frame(KIND_DATA, bytes(corrupted))) == 1
        for body in _restamped(1):
            assert _crc_failures(encode_frame(KIND_DATA, body)) == 0

    @pytest.mark.parametrize("followed", [True, False],
                             ids=["followed", "alone"])
    def test_overlong_header_is_not_a_crc_failure(self, followed):
        """A data frame whose header outruns its length prefix drops
        the connection without counting a CRC failure."""
        assert _crc_failures(_overlong_frame(followed)) == 0


def _no_fill():
    """A pump's idle question with no data to answer it: keep-alives."""
    return None


class _StubWriter:
    """Just enough StreamWriter for a PacketSender that never runs."""

    def write(self, data):  # pragma: no cover - enqueue never writes
        raise AssertionError("enqueue must not touch the writer")

    def close(self):
        pass


class _DiscardingWriter:
    """A writer that keeps nothing it is handed (drain never blocks)."""

    def write(self, data):
        pass

    def writelines(self, frames):
        pass

    async def drain(self):
        return None

    def close(self):
        pass


class TestPacketSenderQueue:
    def test_parked_pump_keeps_none_of_what_it_flushed(self):
        """256 KiB goes out in one flush; once the pump is parked again
        it holds under 4 KiB of anything allocated since."""
        async def scenario():
            sender = PacketSender(
                _DiscardingWriter(), column=0, sender_id=1,
                idle_packet=_no_fill, limit=64)
            task = asyncio.ensure_future(sender.run())
            await asyncio.sleep(0)  # parked on an empty queue
            tracemalloc.start()
            try:
                for _ in range(64):
                    sender.enqueue_frame(bytes(4096))
                for _ in range(3):
                    await asyncio.sleep(0)  # flushed, drained, parked
                retained = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            parked = sender._parked is not None and not sender._parked.done()
            sender.close()
            await task
            return retained, parked, sender.stats

        retained, parked, stats = asyncio.run(scenario())
        assert parked
        assert (stats.sent, stats.flushes) == (64, 1)
        assert stats.bytes_sent == 256 * 1024
        assert retained < 4096

    def test_drop_oldest_on_overflow(self):
        async def scenario():
            sender = PacketSender(
                _StubWriter(), column=0, sender_id=1, idle_packet=_no_fill,
                limit=3)
            for generation in range(5):
                sender.enqueue(_packet(generation=generation))
            return sender

        sender = asyncio.run(scenario())
        assert sender.stats.enqueued == 5
        assert sender.stats.dropped == 2
        # The three newest mixtures survive — RLNC makes the evicted
        # two redundant by construction.  The queue holds pre-encoded
        # length-prefixed frames; decode them to inspect.
        queued = [_decode_queued(frame) for frame in sender._queue]
        assert [p.generation for p in queued] == [2, 3, 4]

    def test_enqueue_after_close_is_refused(self):
        async def scenario():
            sender = PacketSender(
                _StubWriter(), column=0, sender_id=1, idle_packet=_no_fill,
                limit=2)
            sender.close()
            return sender.enqueue(_packet())

        assert asyncio.run(scenario()) is False


# ----------------------------------------------------------------------
# Property-based stream fuzzing (hypothesis)

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.net.control import GenerationsComplete, decode_control
from repro.protocol.messages import ComplaintMsg, JoinGrant, Probe

_INT32 = st.integers(-(2**31), 2**31 - 1)
_UINT16 = st.integers(0, 2**16 - 1)
_UINT64 = st.integers(0, 2**64 - 1)

#: Control messages whose encoded form round-trips exactly (field
#: values stay within their struct ranges).
control_messages = st.one_of(
    st.builds(KeepAlive, column=_UINT16, sender=_INT32),
    st.builds(SetParent, column=_UINT16, parent=_INT32),
    st.builds(ComplaintMsg, reporter=_INT32, column=_UINT16, suspect=_INT32),
    st.builds(Probe, nonce=_UINT64),
    st.builds(DataHello, node_id=_INT32, column=_UINT16),
    # The completed-set record a child writes behind its hello: any
    # base, extras anywhere in a window above it (canonical: sorted).
    st.builds(
        lambda base, offsets: GenerationsComplete(
            base, tuple(base + offset for offset in sorted(offsets))),
        base=st.integers(0, 2**32 - 1),
        offsets=st.sets(st.integers(1, 300), max_size=6),
    ),
    st.builds(
        JoinGrant,
        node_id=_INT32,
        assignments=st.lists(
            st.tuples(_UINT16, _INT32), max_size=4
        ).map(tuple),
    ),
)

coded_packets = st.builds(
    lambda generation, origin, coeffs, payload: CodedPacket(
        generation=generation,
        origin=origin,
        coefficients=np.array(coeffs, dtype=np.uint8),
        payload=np.array(payload, dtype=np.uint8),
    ),
    generation=st.integers(0, 2**32 - 1),
    origin=_INT32,
    coeffs=st.lists(st.integers(0, 255), min_size=1, max_size=8),
    payload=st.lists(st.integers(0, 255), min_size=1, max_size=32),
)


def _message_key(message):
    """An equality key (CodedPacket holds numpy arrays, so dataclass
    ``==`` is ambiguous)."""
    if isinstance(message, CodedPacket):
        return (
            "packet", message.generation, message.origin,
            message.coefficients.tobytes(), message.payload.tobytes(),
        )
    return ("control", message)


class FrameStreamMachine(RuleBasedStateMachine):
    """Feed a valid frame stream to FrameBuffer in arbitrary chunk
    splits; whatever the fragmentation, the decoded message sequence
    must be exactly a prefix of what was queued — never reordered,
    never duplicated, never invented."""

    def __init__(self):
        super().__init__()
        self.buffer = FrameBuffer()
        self.pending = bytearray()  # encoded but not yet fed
        self.expected = []
        self.decoded = []

    @rule(message=control_messages)
    def queue_control(self, message):
        self.expected.append(_message_key(message))
        self.pending.extend(encode_frame(KIND_CONTROL, encode_control(message)))

    @rule(packet=coded_packets)
    def queue_packet(self, packet):
        self.expected.append(_message_key(packet))
        self.pending.extend(encode_frame(KIND_DATA, encode_packet(packet)))

    @rule(size=st.integers(1, 64))
    def feed_chunk(self, size):
        chunk = bytes(self.pending[:size])
        del self.pending[:size]
        self.buffer.feed(chunk)
        for message in _drain(self.buffer):
            self.decoded.append(_message_key(message))

    @invariant()
    def decoded_is_a_prefix_of_expected(self):
        assert self.decoded == self.expected[:len(self.decoded)]

    def teardown(self):
        # Flush the remainder: every queued message must come out.
        self.buffer.feed(bytes(self.pending))
        for message in _drain(self.buffer):
            self.decoded.append(_message_key(message))
        assert self.decoded == self.expected


FrameStreamMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
TestFrameStream = FrameStreamMachine.TestCase


class TestCorruptStreams:
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_corrupt_data_frame_never_desyncs_or_overreads(self, data):
        """Flip one bit anywhere in a stream of CRC32-protected data
        frames: every frame before the flip decodes intact, the
        corrupted frame never decodes, and the only error the buffer
        may raise is FramingError."""
        packets = data.draw(
            st.lists(coded_packets, min_size=1, max_size=4), label="packets"
        )
        frames = [encode_frame(KIND_DATA, encode_packet(p)) for p in packets]
        target = data.draw(
            st.integers(0, len(frames) - 1), label="corrupt_frame"
        )
        start = sum(len(f) for f in frames[:target])
        offset = start + data.draw(
            st.integers(0, len(frames[target]) - 1), label="corrupt_offset"
        )
        bit = data.draw(st.integers(0, 7), label="bit")
        blob = bytearray(b"".join(frames))
        blob[offset] ^= 1 << bit

        buffer = FrameBuffer()
        decoded = []
        position = 0
        failed = False
        while position < len(blob) and not failed:
            size = data.draw(st.integers(1, 64), label="chunk")
            buffer.feed(bytes(blob[position:position + size]))
            position += size
            try:
                decoded.extend(
                    _message_key(m) for m in _drain(buffer)
                )
            except FramingError:
                failed = True
            except Exception as exc:  # pragma: no cover - the assertion
                raise AssertionError(
                    f"corrupt stream escaped FramingError: {exc!r}"
                ) from exc

        expected = [_message_key(p) for p in packets]
        # Nothing decodes past the corrupted frame, and everything that
        # did decode matches the original stream order exactly.
        assert len(decoded) <= target
        assert decoded == expected[:len(decoded)]

    @given(message=control_messages)
    @settings(max_examples=50, deadline=None)
    def test_control_codec_roundtrip(self, message):
        assert decode_control(encode_control(message)) == message


# ----------------------------------------------------------------------
# PacketSender edge cases (satellite: drop-oldest queue branches)


class _CollectingWriter:
    """A writer whose sink is a list (drain never blocks)."""

    def __init__(self):
        self.chunks = []
        self.batches = []
        self.closed = False

    def write(self, data):
        self.chunks.append(bytes(data))

    def writelines(self, frames):
        frames = [bytes(f) for f in frames]
        self.batches.append(frames)
        self.chunks.extend(frames)

    async def drain(self):
        return None

    def close(self):
        self.closed = True


class TestPacketSenderEdges:
    def test_zero_capacity_is_rejected(self):
        with pytest.raises(ValueError, match="limit"):
            PacketSender(_CollectingWriter(), column=0, sender_id=1,
                         idle_packet=_no_fill, limit=0)

    def test_negative_capacity_is_rejected(self):
        with pytest.raises(ValueError, match="limit"):
            PacketSender(_CollectingWriter(), column=0, sender_id=1,
                         idle_packet=_no_fill, limit=-3)

    def test_close_while_blocked_unblocks_run(self):
        """close() must wake a pump parked on an empty queue (no
        keep-alives configured, so the wait would otherwise be forever)."""

        async def scenario():
            writer = _CollectingWriter()
            sender = PacketSender(
                writer, column=0, sender_id=1, idle_packet=_no_fill,
                limit=2)
            task = asyncio.ensure_future(sender.run())
            await asyncio.sleep(0)  # let run() park on the empty queue
            assert not task.done()
            sender.close()
            await asyncio.wait_for(task, timeout=5)
            return writer.closed

        assert asyncio.run(scenario()) is True

    def test_enqueue_while_closed_never_wakes_the_pump(self):
        async def scenario():
            writer = _CollectingWriter()
            sender = PacketSender(
                writer, column=0, sender_id=1, idle_packet=_no_fill,
                limit=2)
            sender.close()
            assert sender.enqueue(_packet()) is False
            await sender.run()  # exits immediately: already closed
            return writer.chunks

        assert asyncio.run(scenario()) == []

    def test_keepalive_cadence_on_virtual_clock(self):
        """A keep-alive goes out exactly one interval (0.5) after the
        pump's last park, and never while it is fed faster than that:
        idle at 0.5, 1.0, 1.5; flushed at 1.75 and every 0.4 after,
        through 3.35; idle again at 3.85."""
        from repro.net.testing import VirtualClock

        async def scenario():
            clock = VirtualClock()
            writer = _CollectingWriter()
            log = []
            write, writelines = writer.write, writer.writelines
            writer.write = lambda data: (
                log.append((clock.time(), "keepalive")), write(data))
            writer.writelines = lambda frames: (
                log.append((clock.time(), "flush")), writelines(frames))
            sender = PacketSender(
                writer, column=3, sender_id=7, idle_packet=_no_fill, limit=4,
                keepalive_interval=0.5, clock=clock,
            )
            task = asyncio.ensure_future(sender.run())
            await clock.advance(1.75)
            for _ in range(5):
                sender.enqueue(_packet())
                await clock.advance(0.4)
            await clock.advance(0.3)
            sender.close()
            await task
            return log, sender.stats

        log, stats = asyncio.run(scenario())
        assert [kind for _, kind in log] == (
            ["keepalive"] * 3 + ["flush"] * 5 + ["keepalive"])
        assert [when for when, _ in log] == [
            pytest.approx(t, abs=1e-9)
            for t in (0.5, 1.0, 1.5, 1.75, 2.15, 2.55, 2.95, 3.35, 3.85)]
        assert (stats.keepalives, stats.sent) == (4, 5)


class TestSenderCoalescing:
    """SenderStats accounting and the one-writelines-per-wakeup flush."""

    @staticmethod
    def _pump(writer, n):
        async def scenario():
            sender = PacketSender(
                writer, column=0, sender_id=1, idle_packet=_no_fill,
                limit=2 * n)
            frames = [
                encode_data_frame(_packet(generation=i)) for i in range(n)
            ]
            for frame in frames:
                sender.enqueue_frame(frame)
            task = asyncio.ensure_future(sender.run())
            await asyncio.sleep(0)  # one wakeup: the whole queue drains
            sender.close()
            await task
            return sender.stats, frames

        return asyncio.run(scenario())

    def test_queue_drains_in_one_writelines_flush(self):
        writer = _CollectingWriter()
        stats, frames = self._pump(writer, 5)
        assert writer.batches == [frames]  # a single writelines call
        assert stats.flushes == 1
        assert stats.sent == 5
        assert stats.bytes_sent == sum(len(f) for f in frames)

