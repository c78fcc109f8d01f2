"""Every connection is one ``Connection``: what it does with hostile
bytes, what it costs in tasks, and how its transport's flow-control
pair drives the outbound pump.

* A hypothesis state machine feeds adversarial segmentations — control
  and data frames, garbage, oversize prefixes, EOF mid-frame — to a
  connection under a control handler (an accepted connection, its
  first frame picking the handler) and under a data handler (a child's
  connection at its parent, which takes completed-set reports only).
* A converged deployment runs no task: none per connection, per held
  upstream thread or for the source's rounds.
* ``pause_writing`` holds the pump's queue (drop-oldest, bounded) and
  ``resume_writing`` flushes it once — on the virtual network's
  ``buffer_bytes`` window, and on a real loopback socket.
* A parent's packet for a generation or geometry the session lacks
  closes that one upstream connection with a ``FramingError``.
* One loop callback per tick flushes the pumps and one delivers the
  virtual pipes; the orders the batches keep are pinned.
"""

import asyncio
import socket
from collections import Counter

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.coding.packet import CodedPacket
from repro.coding.wire import encode_packet
from repro.core.matrix import SERVER
from repro.net.control import GenerationsComplete, encode_control
from repro.net.framing import (
    KIND_CONTROL,
    KIND_DATA,
    MAX_FRAME_BYTES,
    Callbacks,
    Connection,
    CrcMismatchError,
    FirstFrame,
    FramingError,
    Handler,
    encode_data_frame,
    encode_frame,
)
from repro.net.streams import PacketSender
from repro.net.transport import AsyncioClock
from repro.net.testing import (
    ChaosConfig,
    ChaosHarness,
    VirtualClock,
    VirtualNetwork,
)

from tests.netkit import CollectingWriter, Inbox, dial, listen
from tests.test_net_framing import _message_key, coded_packets, control_messages
from tests.test_net_pumps import RecordingEngine, _pump_set, _serving

#: Reports a child may send on one connection at the data handler's
#: session (8 generations, nothing queued): the hello's, one per
#: generation.
ALLOWANCE = 1 + RecordingEngine.generation_count


class _StillClock:
    """A clock whose deadlines never come (the first-frame bound is
    tested in ``test_net_inbound``)."""

    class _Timer:
        def cancel(self):
            pass

    def time(self):
        return 0.0

    def call_at(self, when, callback):
        return self._Timer()


def _connection(kind: str):
    """A connection under a ``kind`` handler, its close wrapped: the
    connection, what its handler has taken so far (as message keys),
    and the errors it was closed with."""
    errors: list = []
    if kind == "control":
        taken: list = []

        def pick(connection, first):
            taken.append(_message_key(first))
            connection.handler = Callbacks(
                lambda m: taken.append(_message_key(m)), lambda error: None)

        connection = Connection(FirstFrame(pick, _StillClock(), 1.0))
        connection.connection_made(CollectingWriter())

        def delivered():
            return list(taken)
    else:
        engine = RecordingEngine()
        _, connection = _serving(
            _pump_set(engine, clock=VirtualClock()), "child")

        def delivered():
            return [("control", GenerationsComplete(e.base, e.extras))
                    for e in engine.heard if hasattr(e, "base")]
    close = connection.close
    connection.close = lambda error=None: (errors.append(error), close(error))
    return connection, delivered, errors


class HostileBytesMachine(RuleBasedStateMachine):
    """Whatever the segmentation and whatever is in the stream, each
    ``data_received`` either delivers every complete message in order
    or closes the connection with a typed :class:`FramingError`;
    nothing is delivered after a close; and a connection keeps at most
    one incomplete frame buffered.

    The model is the stream as a list of items, each either a message
    the handler takes or a *reject* with the byte offset at which it is
    detectable: an oversize prefix once its five bytes are in, anything
    else once its whole frame is.  The control handler takes every
    well-formed frame; the data handler takes completed-set reports
    naming generations the session has, up to the allowance, and
    rejects anything else.
    """

    def __init__(self):
        super().__init__()
        self.stream = bytearray()
        #: ("take", end offset, key) per message the handler takes and
        #: ("reject", detect offset, None) per reject, in order.
        self.items: list[tuple] = []
        self.fed = 0
        self.eof = False
        self.reports = 0
        self.connection = None
        self.delivered_at_close = None

    @initialize(kind=st.sampled_from(["control", "data"]))
    def connect(self, kind):
        self.kind = kind
        self.connection, self.delivered, self.errors = _connection(kind)

    def _queue(self, frame: bytes, key, valid: bool) -> None:
        self.stream += frame
        self.items.append(
            ("take" if valid else "reject", len(self.stream), key))

    def _reject(self, data: bytes, detect: int) -> None:
        self.items.append(("reject", len(self.stream) + detect, None))
        self.stream += data

    @rule(message=control_messages)
    def queue_control(self, message):
        valid = self.kind == "control"
        if isinstance(message, GenerationsComplete) and self.kind == "data":
            highest = message.extras[-1] if message.extras else message.base - 1
            if highest < RecordingEngine.generation_count:
                self.reports += 1
                valid = self.reports <= ALLOWANCE
        self._queue(encode_frame(KIND_CONTROL, encode_control(message)),
                    _message_key(message), valid)

    @rule(packet=coded_packets)
    def queue_packet(self, packet):
        self._queue(encode_frame(KIND_DATA, encode_packet(packet)),
                    _message_key(packet), self.kind == "control")

    @rule(packet=coded_packets, flip=st.integers(0, 2**16), bit=st.integers(0, 7))
    def queue_corrupt_packet(self, packet, flip, bit):
        body = bytearray(encode_packet(packet))
        # A bit of the body past its header's magic and version (those
        # make a malformed frame, not a CRC failure).
        index = 3 + flip % (len(body) - 3)
        body[index] ^= 1 << bit
        # A flip in the header's sizes makes it malformed, anywhere
        # else a CRC mismatch: typed either way.
        frame = encode_frame(KIND_DATA, bytes(body))
        self._reject(frame, len(frame))

    @rule(kind=st.integers(2, 255), body=st.binary(max_size=40))
    def queue_unknown_kind(self, kind, body):
        frame = len(body).to_bytes(4, "big") + bytes([kind]) + body
        self._reject(frame, len(frame))

    @rule(excess=st.integers(1, 2**31))
    def queue_oversize_prefix(self, excess):
        # Rejected on its prefix alone: the body never arrives.
        self._reject(
            (MAX_FRAME_BYTES + excess).to_bytes(4, "big") + b"\x00" * 9, 5)

    @rule(body=st.binary(max_size=12))
    def queue_garbage_control_body(self, body):
        # A type byte no message has, then anything.
        frame = encode_frame(KIND_CONTROL, b"\xee" + body)
        self._reject(frame, len(frame))

    @precondition(lambda self: not self.eof)
    @rule(size=st.integers(1, 96))
    def deliver_segment(self, size):
        segment = bytes(self.stream[self.fed:self.fed + size])
        if segment:
            self.fed += len(segment)
            self.connection.data_received(segment)

    @precondition(lambda self: not self.eof)
    @rule()
    def end_of_stream(self):
        self.eof = True
        self.connection.eof_received()

    @invariant()
    def buffers_at_most_one_incomplete_frame(self):
        connection = self.connection
        if connection is None:
            return
        assert connection.pending() <= MAX_FRAME_BYTES + 5
        assert len(connection._buffer) <= MAX_FRAME_BYTES + 5

    @invariant()
    def delivers_in_order_or_closes_typed(self):
        if self.connection is None:
            return
        expected, reject = [], None
        for item in self.items:
            if item[0] == "reject":
                reject = item
                break
            expected.append(item)
        # (Every reject is typed: the connection raises nothing else.)
        delivered = self.delivered()
        takeable = [key for _, end, key in expected]
        assert delivered == takeable[:len(delivered)]
        closed = self.connection.closed
        if closed and self.delivered_at_close is None:
            self.delivered_at_close = len(delivered)
        if closed:
            # Nothing after a close.
            assert len(delivered) == self.delivered_at_close
            error = self.errors[0]
            if error is not None:
                assert isinstance(error, FramingError), error
            return
        # Open: everything complete has been handed over, and no
        # reject has been reached.
        complete = [key for _, end, key in expected if end <= self.fed]
        assert delivered == complete
        assert reject is None or reject[1] > self.fed
        assert not self.eof

    @invariant()
    def eof_closes_cleanly_only_at_a_boundary(self):
        if not self.eof or not self.errors:
            return
        error = self.errors[0]
        boundaries = {0} | {item[1] for item in self.items}
        if error is None:
            assert self.fed in boundaries


HostileBytesMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
TestHostileBytes = HostileBytesMachine.TestCase


class TestHostileBytesTyped:
    """The machine checks that rejections are typed; these pin which
    type, on both handlers."""

    @pytest.mark.parametrize("kind", ["control", "data"])
    def test_corrupted_data_frame_is_a_crc_mismatch(self, kind):
        from tests.test_net_framing import _packet

        body = bytearray(encode_packet(_packet()))
        body[-1] ^= 0x01
        connection, delivered, errors = _connection(kind)
        connection.data_received(encode_frame(KIND_DATA, bytes(body)))
        assert delivered() == []
        assert isinstance(errors[0], CrcMismatchError)

    @pytest.mark.parametrize("kind", ["control", "data"])
    def test_eof_inside_a_frame_is_a_truncation(self, kind):
        connection, delivered, errors = _connection(kind)
        frame = encode_frame(KIND_CONTROL, encode_control(
            GenerationsComplete(1)))
        connection.data_received(frame + frame[:3])
        connection.eof_received()
        assert delivered() == [("control", GenerationsComplete(1))]
        with pytest.raises(FramingError, match="truncated"):
            raise errors[0]


class TestUpstreamSessionCheck:
    """A parent's packet for a generation or a geometry the session
    does not have closes that one upstream connection with a
    ``FramingError`` before the engine sees it: nothing is reported as
    a failed loop callback, the thread holds the link it redialed, and
    no other connection notices."""

    @pytest.mark.parametrize("foreign", ["generation", "coefficients",
                                         "payload"])
    def test_foreign_packet_closes_only_its_connection(self, foreign):
        config = ChaosConfig(peers=4, k=4, d=2, seed=0)
        g, n = config.generation_size, config.payload_size
        generation, rows, width = {
            "generation": (config.generations, g, n),
            "coefficients": (0, g + 1, n),
            "payload": (0, g, n - 1),
        }[foreign]
        frame = encode_data_frame(CodedPacket(
            generation, np.ones(rows, np.uint8), np.zeros(width, np.uint8)))

        async def scenario():
            failures = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: failures.append(context))
            harness = ChaosHarness(config, record_trace=False)
            try:
                await harness.start()
                peer, column = next(
                    (peer, column) for peer in harness.peers
                    for column, parent in peer.parents.items()
                    if parent == SERVER)
                before = {(peer.node_id, column): writer
                          for peer in harness.peers
                          for column, writer in peer.pumps._parents.items()}
                link = before[peer.node_id, column]
                handler = link.protocol.handler
                errors = []
                closed = handler.closed
                handler.closed = lambda error: (
                    errors.append(error), closed(error))
                harness.server.pumps.get(column).enqueue_frame(frame)
                redialed = await harness.run_until(
                    lambda: peer.pumps._parents.get(column)
                    not in (None, link), timeout=5.0)
                after = {(peer.node_id, column): writer
                         for peer in harness.peers
                         for column, writer in peer.pumps._parents.items()}
                others = [after.get(key) is writer and not writer.closed
                          for key, writer in before.items()
                          if writer is not link]
                alive = (peer._threads[column][0]
                         is peer.pumps._parents[column].protocol)
                return errors, failures, redialed, alive, others
            finally:
                await harness.teardown()

        errors, failures, redialed, alive, others = asyncio.run(scenario())
        assert len(errors) == 1 and type(errors[0]) is FramingError
        assert failures == []
        assert redialed and alive
        assert len(others) == 7 and all(others)


class TestTickBatches:
    """The pumps' flushes and the virtual pipes' deliveries each run as
    one loop callback per tick; these pin the orders the batches keep."""

    FRAME = encode_frame(KIND_CONTROL, encode_control(GenerationsComplete(1)))

    def test_accepted_side_hears_connected_before_any_message(self):
        """The dialler's first write lands in a tick whose delivery pass
        is already pending (another connection's write landed first):
        the accepting handler still hears ``connected`` first."""

        async def scenario():
            net = VirtualNetwork()
            log, accepted = [], []
            listener = listen(
                net, "hub", 7, accepted=accepted,
                on_connect=lambda inbox: log.append((inbox, "connected")),
                on_message=lambda inbox, _: log.append((inbox, "message")))
            first = await dial(net, "a", *listener.address)
            await net.clock.advance(0.0)
            first.write(self.FRAME)
            await dial(net, "b", *listener.address, Inbox(
                on_connect=lambda inbox: inbox.write(self.FRAME)))
            await net.clock.advance(0.0)
            return log, accepted

        log, accepted = asyncio.run(scenario())
        assert len(accepted) == 2
        for inbox in accepted:
            assert [event for who, event in log if who is inbox] == [
                "connected", "message"]

    def test_pump_closed_or_paused_before_its_batch_runs_writes_nothing(self):
        """Three pumps on one clock join one batch; the one closed and
        the one paused before it runs write nothing, the third writes
        its frame, and the paused one flushes once it resumes."""

        async def scenario():
            clock = AsyncioClock()
            writers = [CollectingWriter() for _ in range(3)]
            pumps = [
                PacketSender(writer, column=0, sender_id=1,
                             idle_packet=lambda: None, clock=clock)
                for writer in writers]
            for pump in pumps:
                pump.enqueue_frame(self.FRAME)
            pumps[0].close()
            pumps[1].pause_writing()
            await asyncio.sleep(0)
            held = [list(writer.batches) for writer in writers]
            pumps[1].resume_writing()
            await asyncio.sleep(0)
            return held, [writer.batches for writer in writers]

        held, after = asyncio.run(scenario())
        assert held == [[], [], [[self.FRAME]]]
        assert after == [[], [[self.FRAME]], [[self.FRAME]]]

    def test_a_loop_closed_with_batches_pending_strands_nothing(self):
        """A loop closes with a flush batch and a delivery pass pending
        on one network's clock; pumps and pipes on the next loop still
        flush and deliver."""
        net = VirtualNetwork()
        loop = asyncio.new_event_loop()
        try:
            async def connect():
                listener = listen(net, "hub", 7)
                inbox = await dial(net, "a", *listener.address)
                await asyncio.sleep(0)
                return listener, inbox

            listener, inbox = loop.run_until_complete(connect())
            stranded = PacketSender(
                CollectingWriter(), column=0, sender_id=1,
                idle_packet=lambda: None, clock=net.clock)

            def strand():
                stranded.enqueue_frame(self.FRAME)
                inbox.write(self.FRAME)
                loop.stop()

            loop.call_soon(strand)
            loop.run_forever()
            assert stranded._flush_due and net._landed
        finally:
            loop.close()

        async def second():
            accepted = []
            listener = listen(net, "hub", 8, accepted=accepted)
            dialled = await dial(net, "b", *listener.address)
            writer = CollectingWriter()
            pump = PacketSender(writer, column=0, sender_id=1,
                                idle_packet=lambda: None, clock=net.clock)
            pump.enqueue_frame(self.FRAME)
            dialled.write(self.FRAME)
            await net.clock.advance(0.0)
            return writer.batches, accepted[0].messages

        flushed, delivered = asyncio.run(second())
        assert flushed == [[self.FRAME]]
        assert delivered == [GenerationsComplete(1)]


class TestTaskCount:
    def test_converged_harness_holds_no_task(self):
        """After convergence the event loop holds the test's own task
        and nothing else: no task per held thread, per accepted
        connection, per pump, per report listener, in the virtual
        network or for the source's rounds.  Each held thread is its
        connected upstream link, its dial done."""
        config = ChaosConfig(peers=8, k=8, d=2, seed=0, generations=4)

        async def scenario():
            harness = ChaosHarness(config, record_trace=False)
            try:
                await harness.start()
                assert await harness.run_until(harness.converged)
                own = asyncio.current_task()
                names = Counter(
                    task.get_coro().__qualname__
                    for task in asyncio.all_tasks() if task is not own)
                assert names == {}
                threads = [
                    link is not None and dial.done()
                    and link.transport is not None and not link.closed
                    for peer in harness.peers
                    for link, dial in peer._threads.values()]
                return threads
            finally:
                await harness.teardown()

        threads = asyncio.run(scenario())
        assert len(threads) == config.peers * config.d and all(threads)


class _LoggedSender(PacketSender):
    """A pump that logs its flow-control calls and its flushes."""

    def __init__(self, log, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = log

    def pause_writing(self):
        self.log.append("pause")
        super().pause_writing()

    def resume_writing(self):
        self.log.append("resume")
        super().resume_writing()

    def _flush(self, now):
        if self._queue and not self.paused and not self.closed:
            self.log.append(("flush", len(self._queue)))
        super()._flush(now)


def _pump_over(connection, log, limit):
    pump = _LoggedSender(
        log, connection.transport, column=0, sender_id=1,
        idle_packet=lambda: None, limit=limit)
    connection.sender = pump
    pump.connection = connection
    return pump


class TestDrainEdge:
    def test_virtual_window_pauses_the_pump_and_resume_flushes_once(self):
        """Two 100-byte frames over a 1 kB/s link with a 150-byte window:
        the flush pauses the pump; ten more frames queue, the oldest
        evicted, and nothing is written; once the link has carried
        enough the pump resumes and flushes the four newest at once."""
        frames = [bytes([i]) * 100 for i in range(12)]

        async def scenario():
            net = VirtualNetwork()
            accepted = []
            listener = listen(net, "child", 7, accepted=accepted)
            net.set_link("parent", "child", symmetric=False,
                         bandwidth=1000.0, buffer_bytes=150)
            log = []
            connection = Connection(Handler())
            await net.open_connection(
                "parent", *listener.address, lambda: connection)
            pump = _pump_over(connection, log, limit=4)
            for frame in frames[:2]:
                pump.enqueue_frame(frame)
            await asyncio.sleep(0)
            paused = pump.paused
            for frame in frames[2:]:
                pump.enqueue_frame(frame)
                await asyncio.sleep(0)
            held = (list(log), pump.queue_depth, pump.stats.dropped,
                    list(pump._queue))
            await net.clock.advance(1.0)
            return paused, held, log, pump.stats

        paused, held, log, stats = asyncio.run(scenario())
        assert paused
        assert held == ([("flush", 2), "pause"], 4, 6, frames[8:])
        assert log[:4] == [("flush", 2), "pause", "resume", ("flush", 4)]
        assert ("flush", 4) not in log[4:]
        assert (stats.sent, stats.flushes) == (6, 2)

    @pytest.mark.slow
    def test_loopback_pause_holds_the_queue_and_resume_flushes_once(self):
        """The same edge on a real socket: the reader stops reading
        (``pause_reading``) and both socket buffers are small, so the
        writer's transport crosses its high-water mark
        (``set_write_buffer_limits``) and pauses the pump; frames queued
        meanwhile are bounded and unwritten, and when the reader
        resumes, the pump's first write is one flush of what it held."""
        frame = bytes(8192)

        async def scenario():
            loop = asyncio.get_running_loop()
            readers = []

            class Sink(asyncio.Protocol):
                def connection_made(self, transport):
                    transport.get_extra_info("socket").setsockopt(
                        socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                    transport.pause_reading()
                    readers.append(transport)

            server = await loop.create_server(Sink, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            log = []
            connection = Connection(Handler())
            await loop.create_connection(
                lambda: connection, "127.0.0.1", port)
            connection.transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            connection.transport.set_write_buffer_limits(
                high=16384, low=4096)
            pump = _pump_over(connection, log, limit=4)
            for _ in range(400):
                pump.enqueue_frame(frame)
                await asyncio.sleep(0)
                if pump.paused:
                    break
            assert pump.paused
            mark = len(log)
            for _ in range(10):
                pump.enqueue_frame(frame)
                await asyncio.sleep(0)
            held = list(log[mark:]), pump.queue_depth
            readers[0].resume_reading()
            for _ in range(500):
                if "resume" in log[mark:]:
                    break
                await asyncio.sleep(0.01)
            await asyncio.sleep(0)
            after = log[mark:]
            connection.close()
            server.close()
            await server.wait_closed()
            return held, after

        held, after = asyncio.run(scenario())
        assert held == ([], 4)
        assert after[:2] == ["resume", ("flush", 4)]
