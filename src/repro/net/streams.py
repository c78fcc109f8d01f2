"""A node's data connections, both ends: the :class:`PumpSet` that
serves the children that dial it, one bounded outbound pump each, and
consumes the connections it dials to its own parents.

Backpressure policy (the per-neighbour-queues design of
arXiv:1301.5107): every downstream connection owns a bounded FIFO of
coded packets.  When the consumer is slower than the producer the queue
fills and the *oldest* packet is dropped.  With RLNC this is safe by
construction — every enqueued packet is a fresh random mixture of the
sender's buffer, so any later packet carries at least as much
information as the one evicted; nothing is retransmitted and nothing is
tracked.

The queue holds *pre-encoded* immutable frame bytes rather than packet
objects: every mixture is serialised exactly once, before it is queued
(a relay's fan-out is one ``bytes`` join per frame behind headers
packed once per group, see
:func:`repro.net.framing.encode_mixture_frames`).  At each wakeup the
pump hands everything queued to the writer in a single ``writelines``
flush — one syscall on a real socket; the virtual transport keeps its
fault injection aligned to the individual frames of the list.

The pump also emits a :class:`~repro.protocol.messages.KeepAlive`
control frame when the data flow pauses, so an idle-but-healthy thread
is distinguishable from a dead parent (the paper's silence-based
failure detection, run over real sockets).

The connection's other direction carries one thing: the child's
:class:`~repro.net.control.GenerationsComplete` records, which
:class:`ChildReports` checks and :meth:`PumpSet.serve` hands to the
node's data-plane engine, so the queue is not filled with generations
the child has finished.  ``serve`` is a child connection's whole life
against that engine — attach, burst, reports, idle fills, detach — for
the source and every relay alike; :meth:`PumpSet.consume` is the same
for a connection a relay dials to its parent — hello, arrivals,
reports, silence.

The reports are one contract with two halves, both counted in the
session's ``generation_size``:

* the child (``consume``) sends its completed set with its hello, in
  the same write; once after each drain that completed a generation,
  to every parent it has open; and once more to a parent that has sent
  it ``generation_size`` packets of generations it already held since
  its last report there (that parent evidently missed one);
* so the parent (``serve``) allows a child ``1 + G + enqueued //
  generation_size`` reports on one connection — the hello's, one per
  generation of the content's ``G``, one per ``generation_size``
  packets it has queued toward the child — and closes one that sends
  more.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, Hashable, Optional

from ..coding.packet import CodedPacket
from ..core.matrix import SERVER
from ..dataplane.effects import EmitToChildren, GenerationComplete, MarkComplete
from ..dataplane.events import (
    ChildAttached,
    ChildCompleted,
    ChildDetached,
    IdlePoll,
    PacketArrived,
)
from ..obs import Registry, bind_sender_totals
from ..protocol.messages import KeepAlive
from .control import DataHello, GenerationsComplete, encode_control
from .framing import (
    KIND_CONTROL,
    CrcMismatchError,
    FramingError,
    MessageStream,
    encode_data_frame,
    encode_frame,
    encode_mixture_frames,
)
from .transport import (
    AsyncioClock,
    ByteStreamReader,
    ByteStreamWriter,
    Clock,
    TimerHandle,
)

__all__ = ["ChildReports", "PacketSender", "PumpSet", "SenderStats"]

_new = tuple.__new__


@dataclass
class SenderStats:
    """Delivery accounting for one outbound pump.

    ``bytes_sent`` counts every byte written (data frames and
    keep-alives; in a node's retired-pump total also the completed-set
    records it wrote to its own parents); ``flushes`` counts drain
    cycles, so ``sent / flushes`` is the observed frames-per-flush
    coalescing ratio.
    """

    enqueued: int = 0
    dropped: int = 0
    sent: int = 0
    keepalives: int = 0
    bytes_sent: int = 0
    flushes: int = 0


class PacketSender:
    """Bounded drop-oldest pump feeding one downstream connection.

    Args:
        writer: The connection to the downstream node.
        column: Thread column this pump serves (stamped on keep-alives).
        sender_id: Our node id (stamped on keep-alives; -1 = server).
        idle_packet: Asked for a fresh coded packet whenever the idle
            timer fires (:class:`PumpSet` asks its engine for one, so a
            child a relay's parents have stopped feeding still heals);
            an answer of None sends a bare keep-alive frame instead.
        limit: Queue bound; the oldest packet is evicted on overflow.
        keepalive_interval: Idle period after which the idle packet or
            a keep-alive frame is sent (None disables both).  It runs
            from the pump's last park, on one timer per pump.
        clock: Timeline the idle timer runs on (real time by default;
            the chaos harness injects a virtual clock).
        logger: Destination for backpressure decisions (evictions are
            logged at DEBUG); None keeps the pump silent.
    """

    def __init__(
        self,
        writer: ByteStreamWriter,
        *,
        column: int,
        sender_id: int,
        idle_packet: Callable[[], Optional[CodedPacket]],
        limit: int = 32,
        keepalive_interval: Optional[float] = None,
        clock: Optional[Clock] = None,
        logger: Optional[logging.Logger] = None,
    ) -> None:
        if limit < 1:
            raise ValueError("queue limit must be >= 1")
        self.column = column
        self.sender_id = sender_id
        self.stats = SenderStats()
        self._writer = writer
        self._limit = limit
        self._keepalive_interval = keepalive_interval
        self._idle_packet = idle_packet
        self._clock = clock if clock is not None else AsyncioClock()
        self._logger = logger
        # Cached once: the eviction path runs per enqueued frame, and
        # even a disabled logger.debug() call costs more than the
        # enqueue itself.  --log-level debug is set before pumps exist.
        self._log_drops = (
            logger is not None and logger.isEnabledFor(logging.DEBUG)
        )
        #: Frames not yet flushed, oldest first (at most ``limit``).  A
        #: flush takes the whole list and leaves an empty one behind.
        self._queue: list[bytes] = []
        #: The bare future the run loop last parked on (done once it is
        #: woken).  Its result says why it woke: True for the keep-alive
        #: timer, False for work or a close.
        self._parked: Optional[asyncio.Future] = None
        #: When the run loop last parked: the keep-alive is due one
        #: interval later.
        self._parked_at = 0.0
        #: The pump's one keep-alive timer, armed at its first park.
        self._keepalive: Optional[TimerHandle] = None
        #: Set by :meth:`close` (or the run loop's exit); read-only
        #: outside this class.
        self.closed = False

    @property
    def queue_depth(self) -> int:
        """Frames queued and not yet flushed (the per-neighbour-queue
        observable; exporters bind gauges to this)."""
        return len(self._queue)

    def enqueue(self, packet: CodedPacket) -> bool:
        """Serialise and queue a packet; evict the oldest when full.

        Returns True if the packet was queued without an eviction.
        """
        if self.closed:
            return False
        return self.enqueue_frame(encode_data_frame(packet))

    def enqueue_frame(self, frame: bytes) -> bool:
        """Queue an already-encoded data frame; evict the oldest when full.

        The encode-once fan-out entry point: callers serialise a packet
        a single time and hand the same immutable bytes to every child's
        pump.  Returns True if the frame was queued without an eviction.
        """
        if self.closed:
            return False
        self.stats.enqueued += 1
        clean = True
        if len(self._queue) >= self._limit:
            del self._queue[0]
            self.stats.dropped += 1
            clean = False
            if self._log_drops:
                self._logger.debug(
                    "column %d: queue full (%d), dropped oldest frame "
                    "(%d dropped total)",
                    self.column, self._limit, self.stats.dropped,
                )
        self._queue.append(frame)
        parked = self._parked  # wake the pump (the park's work signal)
        if parked is not None and not parked.done():
            parked.set_result(False)
        return clean

    def close(self) -> None:
        """Stop the pump; the run loop exits at its next wakeup."""
        self.closed = True
        parked = self._parked
        if parked is not None and not parked.done():
            parked.set_result(False)

    def _keepalive_due(self) -> None:
        """The keep-alive timer fired: wake a pump that has sat parked
        a whole interval (its next park arms the timer afresh), else
        re-arm for one interval after its last park — so the timer
        fires at or before every deadline, never after."""
        clock = self._clock
        now = clock.time()
        parked = self._parked
        if parked is None or parked.done():
            # Awake: its next park is no earlier than now.
            deadline = now + self._keepalive_interval
        else:
            deadline = self._parked_at + self._keepalive_interval
            if now >= deadline:
                self._keepalive = None
                parked.set_result(True)
                return
        self._keepalive = clock.call_at(deadline, self._keepalive_due)

    async def run(self) -> None:
        """Drain the queue onto the wire until closed or disconnected.

        A flushed list is dropped before the pump awaits anything, so a
        pump blocked in ``drain`` or parked holds none of the frames it
        has handed to the writer."""
        clock, interval = self._clock, self._keepalive_interval
        try:
            while not self.closed:
                if not self._queue:
                    # Park (inline: one frame less per wake-up) until
                    # work or a close (False) or the keep-alive timer.
                    self._parked = asyncio.get_running_loop().create_future()
                    self._parked_at = clock.time()
                    if self._keepalive is None and interval is not None:
                        self._keepalive = clock.call_at(
                            self._parked_at + interval, self._keepalive_due)
                    if await self._parked and not self._queue:
                        await self._send_idle()
                        continue
                if self.closed:
                    break
                frames, self._queue = self._queue, []
                self._writer.writelines(frames)
                self.stats.sent += len(frames)
                self.stats.bytes_sent += sum(map(len, frames))
                self.stats.flushes += 1
                del frames
                await self._writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            self.closed = True
            if self._keepalive is not None:
                self._keepalive.cancel()
            self._writer.close()

    async def _send_idle(self) -> None:
        """The link sat idle an interval: the engine's fill for it, or
        a bare keep-alive frame."""
        packet = self._idle_packet()
        if packet is not None:
            frame = encode_data_frame(packet)
            self.stats.sent += 1
        else:
            frame = encode_frame(
                KIND_CONTROL,
                encode_control(
                    KeepAlive(column=self.column, sender=self.sender_id)
                ),
            )
            self.stats.keepalives += 1
        self._writer.write(frame)
        self.stats.bytes_sent += len(frame)
        self.stats.flushes += 1
        del frame, packet
        await self._writer.drain()


class ChildReports:
    """What a child may say on its data connection after the hello:
    its completed-generation set, and nothing else.

    Every record is checked against the session before an engine sees
    it: a generation the content does not have, or anything that is
    not a report, is a :class:`FramingError`, and the caller closes
    that child's connection and nobody else's.  (How *often* a child
    may report is :meth:`PumpSet.serve`'s to judge: it knows what the
    child was sent.)
    """

    def __init__(self, stream: MessageStream, generation_count: int) -> None:
        self.generation_count = generation_count
        self._stream = stream

    def _checked(self, message: object) -> tuple:
        if not isinstance(message, GenerationsComplete):
            raise FramingError(
                f"child sent {type(message).__name__} on a data connection")
        highest = message.extras[-1] if message.extras else message.base - 1
        if highest >= self.generation_count:
            raise FramingError(
                f"report names generation {highest} of "
                f"{self.generation_count}")
        return message.base, message.extras

    def buffered(self) -> tuple:
        """The ``(base, extras)`` of a report already received — the
        one a child sends in its hello's segment — else the empty set
        ``(0, ())``: a child that has not said what it holds is served
        as one that holds nothing."""
        message = self._stream.next_message()
        return (0, ()) if message is None else self._checked(message)

    async def next(self) -> Optional[tuple]:
        """The next report's ``(base, extras)``; None once the child
        has closed its side."""
        message = await self._stream.next()
        return None if message is None else self._checked(message)


class PumpSet:
    """A node's data connections, both ends.

    The source and every relay have the same job downstream — accept
    the child that dials a column, keep one bounded queue for it, put
    each fresh mixture on it — so ``ServerNode`` and ``PeerNode`` each
    hold one ``PumpSet``, hand it each child's data connection once its
    hello is read, and keep no pump of their own.  It owns the keyed
    :class:`PacketSender` objects (a key is the node's data-plane
    engine's name for the child: a column at the server, ``(child id,
    column)`` at a peer), the rule that a key redialing replaces its
    old pump, each child's attach → burst → reports → idle fills →
    detach conversation with the engine, and the node's
    ``sender_stats``.  Upstream, a peer hands it each connection it
    dials to a parent (:meth:`consume`), so the engine's arrivals, the
    fan-out they trigger and the reports the node owes its parents
    meet in one place.

    Args:
        registry: Where ``net.children``, the summed ``net.sender.*``
            totals and one ``net.queue_depth.c<column>`` gauge per
            served column (the per-neighbour-queue observable) are bound.
        limit, keepalive_interval, clock, logger: Handed to every pump.

    ``engine`` (the node's :class:`~repro.dataplane.SourceEngine` or
    :class:`~repro.dataplane.RelayEngine`), ``k`` (the session's column
    count), ``origin`` (whom keep-alives, mixtures and hellos are
    stamped from: the server until told otherwise), ``generation_size``
    (the geometry mixture rows are framed with, and the reports' unit)
    and ``logger`` are plain attributes:
    the server sets them as it is built, a peer at its join grant, when
    this set already is behind its listener.
    """

    def __init__(
        self,
        registry: Registry,
        *,
        limit: int,
        keepalive_interval: Optional[float],
        clock: Clock,
        logger: Optional[logging.Logger] = None,
    ) -> None:
        self.engine = None
        self.k = 0
        self.origin = SERVER
        self.generation_size: Optional[int] = None
        self.logger = logger
        #: Retired-pump totals first, then one entry per running pump —
        #: bounded however many connections came and went.  Mutated in
        #: place, never rebound.
        self.stats: list[SenderStats] = [SenderStats()]
        self._pumps: dict[Hashable, PacketSender] = {}
        #: column -> the open connection to that thread's parent: where
        #: this node's reports go
        self._parents: dict[int, ByteStreamWriter] = {}
        #: a generation completed since the last report went out
        self._report_due = False
        self._registry = registry
        self._limit = limit
        self._keepalive_interval = keepalive_interval
        self._clock = clock
        bind_sender_totals(registry, lambda: self.stats)
        registry.gauge(
            "net.children", "attached child pumps",
            fn=lambda: len(self._pumps),
        )

    def get(self, key: Hashable) -> Optional[PacketSender]:
        """The pump now serving ``key``, if any."""
        return self._pumps.get(key)

    def attached(self) -> tuple:
        """Keys with an open pump, in attach order."""
        return tuple([
            key for key, pump in self._pumps.items() if not pump.closed])

    async def serve(
        self,
        key: Hashable,
        stream: MessageStream,
        writer: ByteStreamWriter,
        column: int,
    ) -> None:
        """Serve one child's data connection, its hello already read
        off ``stream``, for as long as it lasts.

        A column the session does not have (``0 <= column < k``), a
        child that dials before the engine exists, or a report behind
        the hello that the session rejects is closed unattached.
        Otherwise the engine hears ``ChildAttached`` with the set the
        child dialed in with, a pump already serving ``key`` is closed
        and replaced (the child redialed: its old connection is dead or
        about to be), and the engine's answer goes on the new pump
        first.  Each report the child sends becomes ``ChildCompleted``;
        each keep-alive interval the pump sits idle becomes
        ``IdlePoll``.  A child that closes its side, sends anything
        :class:`ChildReports` rejects, or reports more often than an
        honest child can, ends the pump — and if it was still the one
        serving ``key``, the engine hears ``ChildDetached``.
        """
        engine = self.engine
        if engine is None or not 0 <= column < self.k:
            writer.close()
            return
        reports = ChildReports(stream, engine.generation_count)
        try:
            completed = reports.buffered()
        except FramingError:
            writer.close()
            return
        # The engine first: it owns the fan-out order the new pump
        # joins, and its answer is the burst the pump starts with.
        burst = engine.handle(ChildAttached(key, completed))
        old = self._pumps.get(key)
        if old is not None:
            old.close()
        pump = PacketSender(
            writer, column=column, sender_id=self.origin,
            idle_packet=partial(self._idle_packet, key), limit=self._limit,
            keepalive_interval=self._keepalive_interval, clock=self._clock,
            logger=self.logger,
        )
        self._pumps[key] = pump
        self.stats.append(pump.stats)
        gauge = f"net.queue_depth.c{column}"
        if gauge not in self._registry:
            self._registry.gauge(
                gauge, "frames queued toward this column's children",
                fn=lambda: sum(
                    p.queue_depth for p in self._pumps.values()
                    if p.column == column
                ),
            )
        for effect in burst:
            self.emit(effect)
        listening = asyncio.ensure_future(self._listen(key, reports, pump))
        try:
            await pump.run()
        finally:
            listening.cancel()
            # Fold the finished pump's counters into the retired total
            # and drop its own entry: every sum over ``stats`` is
            # unchanged.  By identity — SenderStats compares by value,
            # and an idle pump equals another, or a fresh total.
            self.stats[:] = [s for s in self.stats if s is not pump.stats]
            total = self.stats[0]
            for field in fields(SenderStats):
                setattr(total, field.name, getattr(total, field.name)
                        + getattr(pump.stats, field.name))
            if self._pumps.get(key) is pump:
                del self._pumps[key]
                engine.handle(ChildDetached(key))

    def _idle_packet(self, key: Hashable) -> Optional[CodedPacket]:
        """The engine's fill for ``key``'s idle link, if it has one."""
        effects = self.engine.handle(IdlePoll(key))
        return effects[0].packets[0] if effects else None

    async def _listen(
        self, key: Hashable, reports: ChildReports, pump: PacketSender,
    ) -> None:
        """Feed one child's reports to the engine until either side is
        done with the connection; more than the allowance in the module
        docstring is a flood."""
        count = 0
        try:
            while True:
                report = await reports.next()
                if report is None:
                    break
                count += 1
                allowed = (
                    1 + reports.generation_count
                    + pump.stats.enqueued // self.generation_size
                )
                if count > allowed:
                    raise FramingError(
                        f"{count} completed-set reports where an honest "
                        f"child sends at most {allowed}")
                self.engine.handle(ChildCompleted(key, *report))
        except FramingError as error:
            if self.logger is not None:
                self.logger.info(
                    "column %d: dropping child connection: %s",
                    pump.column, error)
        except (ConnectionError, OSError):
            pass
        finally:
            pump.close()

    def emit(self, effect: EmitToChildren) -> None:
        """Put an engine's fresh mixtures on their children's pumps.

        Each mixture is serialised exactly once, whichever payload form
        carries it — rows go straight from the recode gemm output to
        wire frames, no packet objects in between —
        and a child whose pump is gone is skipped.
        """
        pumps = self._pumps
        if effect.rows is None:
            for key, packet in zip(effect.children, effect.packets):
                pump = pumps.get(key)
                if pump is not None:
                    pump.enqueue(packet)
            return
        frames = encode_mixture_frames(
            effect.rows, self.generation_size, origin=self.origin)
        for key, frame in zip(effect.children, frames):
            pump = pumps.get(key)
            if pump is not None:
                pump.enqueue_frame(frame)

    def close(self) -> None:
        """Stop every pump; each leaves the set (and reports its
        detach) at its next wakeup."""
        for pump in self._pumps.values():
            pump.close()

    async def consume(
        self,
        column: int,
        reader: ByteStreamReader,
        writer: ByteStreamWriter,
        silence_timeout: float,
        stats,
        on_complete: Optional[Callable[[], None]] = None,
    ) -> bool:
        """Consume the connection this node dialed to ``column``'s
        parent for as long as it lasts, and close it; True if a packet
        or a keep-alive arrived (a healthy session).

        Every packet is the engine's ``PacketArrived``: its
        ``EmitToChildren`` goes to :meth:`emit`, its ``MarkComplete``
        calls ``on_complete``, and the reports follow the child's half
        of the module docstring's contract.  Silence runs between
        complete messages, not bytes: one timer per connection, due
        ``silence_timeout`` after the last complete message, closes the
        connection under the read when it fires past that deadline (the
        read then ends like a hang-up), else re-arms for the deadline
        as it now stands (read once per fill, at its first complete
        message).  ``stats`` (the node's ``PeerStats``) counts the
        reads parked on, keep-alives heard and CRC failures.
        """
        engine, clock = self.engine, self._clock
        silence: Optional[TimerHandle] = None
        saw_traffic = False

        def check_silence() -> None:
            nonlocal silence
            deadline = heard + silence_timeout
            if clock.time() >= deadline:
                writer.close()
            else:
                silence = clock.call_at(deadline, check_silence)

        try:
            # One write: the parent that parses the hello holds the set,
            # so a re-clipped thread is never re-sent what it decoded.
            report = self._report()
            writer.write(encode_frame(KIND_CONTROL, encode_control(
                DataHello(node_id=self.origin, column=column))) + report)
            self.stats[0].bytes_sent += len(report)
            await writer.drain()
            self._parents[column] = writer
            stream = MessageStream(reader)
            heard = clock.time()
            silence = clock.call_at(heard + silence_timeout, check_silence)
            #: packets of generations already held, since the last
            #: report this connection sent
            stale = 0
            #: a fill came in and no complete message has been popped
            filled = False
            while True:
                message = stream.next_message()
                if message is None:
                    # Everything buffered is drained: report, then park
                    # on the read.
                    if self._report_due:
                        self._report_due = False
                        report = self._report()
                        for parent in self._parents.values():
                            self._report_to(parent, report)
                        stale = 0
                    elif stale >= self.generation_size:
                        self._report_to(writer, self._report())
                        stale = 0
                    stats.upstream_fills += 1
                    if not await stream.fill():
                        break  # the parent closed, or fell silent
                    filled = True
                    continue
                if filled:
                    heard = clock.time()
                    filled = False
                if isinstance(message, CodedPacket):
                    saw_traffic = True
                    effects = engine.handle(_new(PacketArrived, (message, 0.0)))
                    for effect in effects:
                        if isinstance(effect, EmitToChildren):
                            self.emit(effect)
                        elif isinstance(effect, GenerationComplete):
                            self._report_due = True
                        elif isinstance(effect, MarkComplete) and on_complete:
                            on_complete()
                    if not effects[0].innovative and engine.finished(
                            message.generation):
                        stale += 1
                elif isinstance(message, KeepAlive):
                    saw_traffic = True
                    stats.keepalives_seen += 1
        except CrcMismatchError:
            stats.crc_failures += 1
            if self.logger is not None:
                self.logger.info(
                    "column %d: corrupted frame from the parent (CRC "
                    "mismatch), dropping connection", column)
        except (ConnectionError, OSError, FramingError):
            pass
        finally:
            if silence is not None:
                silence.cancel()
            if self._parents.get(column) is writer:
                del self._parents[column]
            writer.close()
        return saw_traffic

    def _report(self) -> bytes:
        """This node's completed-generation set as a framed record."""
        return encode_frame(KIND_CONTROL, encode_control(GenerationsComplete(
            *self.engine.completed_generations)))

    def _report_to(self, writer: ByteStreamWriter, frame: bytes) -> None:
        try:
            writer.write(frame)
        except (ConnectionError, OSError):
            return
        self.stats[0].bytes_sent += len(frame)
