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
:func:`repro.net.framing.encode_mixture_frames`).  The first enqueue of
a loop tick puts the pump on its clock's
:class:`~repro.net.transport.FlushBatch`, and the first pump to join
in a tick schedules the batch's one loop callback: it reads the clock
once and flushes every joined pump in join order, each handing
everything it queued by then to its transport in a single
``writelines`` — one syscall on a real socket; the virtual transport
keeps its fault injection aligned to the individual frames of the
list.  Nothing awaits a drain: while the transport says
``pause_writing`` (its unsent bytes are over its high-water mark) no
flush runs and the queue takes the backlog, drop-oldest;
``resume_writing`` joins the next batch.

The pump's one timer emits a :class:`~repro.protocol.messages.KeepAlive`
control frame (or the engine's idle fill) when the data flow pauses, so
an idle-but-healthy thread is distinguishable from a dead parent (the
paper's silence-based failure detection, run over real sockets).

Every connection is a :class:`~repro.net.framing.Connection` fed by
``data_received``, and this module holds the two data-connection
handlers.  A child connection's handler takes the child's
:class:`~repro.net.control.GenerationsComplete` records — checked
against the session, then handed to the node's data-plane engine, so
the queue is not filled with generations the child has finished —
and retires the pump when the connection ends: :meth:`PumpSet.serve`
is a child connection's whole life against that engine — attach,
burst, reports, idle fills, detach — for the source and every relay
alike.  :meth:`PumpSet.upstream` is the same for a connection a relay
dials to its parent — hello, arrivals, reports, silence.

The reports are one contract with two halves, both counted in the
session's ``generation_size``:

* the child (``upstream``) sends its completed set with its hello, in
  the same write; once after each segment that completed a generation,
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
from ..obs import Registry
from ..protocol.messages import KeepAlive
from .control import DataHello, GenerationsComplete, encode_control
from .framing import (
    KIND_CONTROL,
    Connection,
    CrcMismatchError,
    FramingError,
    Handler,
    encode_data_frame,
    encode_frame,
    encode_mixture_frames,
)
from .transport import (
    AsyncioClock,
    ByteStreamWriter,
    Clock,
    FlushBatch,
    TimerHandle,
)

__all__ = ["PacketSender", "PumpSet", "SenderStats"]

_new = tuple.__new__


@dataclass
class SenderStats:
    """Delivery accounting for one outbound pump.

    ``bytes_sent`` counts every byte written (data frames and
    keep-alives; in a node's retired-pump total also the completed-set
    records it wrote to its own parents); ``flushes`` counts the writes
    to the transport, so ``sent / flushes`` is the observed
    frames-per-flush coalescing ratio.
    """

    enqueued: int = 0
    dropped: int = 0
    sent: int = 0
    keepalives: int = 0
    bytes_sent: int = 0
    flushes: int = 0


def _flush_batch(batch: FlushBatch, clock: Clock) -> None:
    """A tick's one flush callback: every pump that joined ``batch``
    writes what it queued, in join order, at one reading of ``clock``.
    A flush that raises is reported the way the loop reports a failed
    callback, and the pumps behind it still flush."""
    batch.loop = None
    pumps, batch.pumps = batch.pumps, []
    now = clock.time()
    for pump in pumps:
        try:
            pump._flush(now)
        except Exception as error:
            asyncio.get_running_loop().call_exception_handler({
                "message": f"Exception in callback {pump._flush!r}",
                "exception": error,
            })


class PacketSender:
    """Bounded drop-oldest pump feeding one downstream connection.

    Args:
        writer: The connection's transport.
        column: Thread column this pump serves (stamped on keep-alives).
        sender_id: Our node id (stamped on keep-alives; -1 = server).
        idle_packet: Asked for a fresh coded packet whenever the idle
            timer fires (:class:`PumpSet` asks its engine for one, so a
            child a relay's parents have stopped feeding still heals);
            an answer of None sends a bare keep-alive frame instead.
        limit: Queue bound; the oldest packet is evicted on overflow.
        keepalive_interval: Idle period after which the idle packet or
            a keep-alive frame is sent (None disables both).  It runs
            from the pump's last write, on one timer per pump.
        clock: Timeline the idle timer runs on, and whose flush batch
            the pump joins (real time by default; the chaos harness
            injects a virtual clock).
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
        #: The pump is on its clock's flush batch.
        self._flush_due = False
        #: Set by ``pause_writing``, cleared by ``resume_writing``: no
        #: flush runs while it is set.
        self.paused = False
        #: When the pump last wrote: the idle send is due one interval
        #: later.
        self._written_at = 0.0
        #: The pump's one idle timer.
        self._idle: Optional[TimerHandle] = None
        if keepalive_interval is not None:
            self._written_at = self._clock.time()
            self._idle = self._clock.call_at(
                self._written_at + keepalive_interval, self._idle_due)
        #: The connection this pump feeds, closed with it (set by
        #: :meth:`PumpSet.serve`).
        self.connection: Optional[Connection] = None
        #: Set by :meth:`close`; read-only outside this class.
        self.closed = False

    @property
    def queue_depth(self) -> int:
        """Frames queued and not yet flushed (the per-neighbour-queue
        observable; the ``net.queue_depth.c<column>`` gauges sum it)."""
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
        pump.  The first frame of a loop tick joins the flush batch
        that writes all of them; nothing is written here.  Returns True
        if the frame was queued without an eviction.
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
        if not self._flush_due and not self.paused:
            self._join_flush()
        return clean

    def _join_flush(self) -> None:
        """Join the clock's flush batch; the tick's first pump to join
        schedules its callback."""
        self._flush_due = True
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return  # no loop to flush on: the queue only fills
        batch = self._clock.flushes
        if batch.loop is loop:
            batch.pumps.append(self)
        else:
            # The tick's first join — or a batch left pending by a loop
            # that closed before it ran, whose pumps went with it.
            batch.loop = loop
            batch.pumps = [self]
            loop.call_soon(_flush_batch, batch, self._clock)

    def _flush(self, now: float) -> None:
        """Hand everything queued to the transport in one write (its
        batch read the clock: ``now``)."""
        self._flush_due = False
        if self.closed or self.paused or not self._queue:
            return
        frames, self._queue = self._queue, []
        self._writer.writelines(frames)
        stats = self.stats
        stats.sent += len(frames)
        stats.bytes_sent += sum(map(len, frames))
        stats.flushes += 1
        self._written_at = now

    def pause_writing(self) -> None:
        """The transport is over its high-water mark: hold the queue."""
        self.paused = True

    def resume_writing(self) -> None:
        """The transport drained: flush what queued meanwhile, in the
        next batch."""
        self.paused = False
        if self._queue and not self._flush_due and not self.closed:
            self._join_flush()

    def close(self) -> None:
        """Stop the pump (idempotent): nothing more is queued or
        written, and its connection closes."""
        if self.closed:
            return
        self.closed = True
        self._queue = []
        if self._idle is not None:
            self._idle.cancel()
        if self.connection is not None:
            self.connection.close()

    def _idle_due(self) -> None:
        """The idle timer fired.  A pump that has written nothing for a
        whole interval sends the engine's fill for its link, or a bare
        keep-alive frame; a busy one (a flush due, or the transport
        paused) re-arms one interval on, else re-arm for one interval
        after the last write — so the timer fires at or before every
        deadline, never after."""
        clock, interval = self._clock, self._keepalive_interval
        now = clock.time()
        deadline = self._written_at + interval
        if self._queue or self.paused:
            deadline = now + interval
        elif now >= deadline:
            packet = self._idle_packet()
            if packet is not None:
                frame = encode_data_frame(packet)
                self.stats.sent += 1
            else:
                frame = encode_frame(KIND_CONTROL, encode_control(
                    KeepAlive(column=self.column, sender=self.sender_id)))
                self.stats.keepalives += 1
            self._writer.write(frame)
            self.stats.bytes_sent += len(frame)
            self.stats.flushes += 1
            self._written_at = now
            deadline = now + interval
        self._idle = clock.call_at(deadline, self._idle_due)


class _Child(Handler):
    """A child's data connection at its parent, after the hello: the
    reports it may send, and the pump that feeds it.

    Every record is checked against the session before the engine sees
    it — a generation the content does not have, anything that is not
    a report, or more reports than the module docstring's allowance is
    a :class:`FramingError`, which closes this child's connection and
    nobody else's.
    """

    __slots__ = ("pumps", "key", "pump", "reports")

    def __init__(self, pumps: "PumpSet", key: Hashable,
                 pump: PacketSender) -> None:
        self.pumps = pumps
        self.key = key
        self.pump = pump
        self.reports = 0

    def message(self, message) -> None:
        pumps = self.pumps
        report = pumps._checked(message)
        self.reports += 1
        allowed = (1 + pumps.engine.generation_count
                   + self.pump.stats.enqueued // pumps.generation_size)
        if self.reports > allowed:
            raise FramingError(
                f"{self.reports} completed-set reports where an honest "
                f"child sends at most {allowed}")
        pumps.engine.handle(_new(ChildCompleted, (self.key, *report)))

    def closed(self, error: Optional[BaseException]) -> None:
        pumps = self.pumps
        if isinstance(error, FramingError) and pumps.logger is not None:
            pumps.logger.info(
                "column %d: dropping child connection: %s",
                self.pump.column, error)
        pumps._retire(self.key, self.pump)


class _Upstream(Handler):
    """The connection a node dialed to ``column``'s parent.

    Its hello and the node's completed set go out in one write as it
    connects.  A packet of a generation or a geometry the session does
    not have is a :class:`FramingError`, which closes this connection
    and nobody else's; every other packet is the engine's
    ``PacketArrived``: its
    ``EmitToChildren`` goes to :meth:`PumpSet.emit`, its
    ``MarkComplete`` calls ``on_complete``, and after each segment the
    reports follow the child's half of the module docstring's contract.
    Silence runs between complete messages, not bytes: one timer per
    connection, due ``silence_timeout`` after the segment that last
    completed one, closes the connection when it fires past that
    deadline, else re-arms for the deadline as it now stands.  When
    the connection ends, ``on_end`` hears whether a packet or a
    keep-alive arrived (a healthy session).
    """

    def __init__(self, pumps: "PumpSet", column: int, silence_timeout: float,
                 stats, on_complete: Optional[Callable[[], None]],
                 on_end: Callable[[bool], None]) -> None:
        self.pumps = pumps
        self.engine = engine = pumps.engine
        #: What every packet is checked against: the generation count,
        #: then the coefficient and payload lengths.
        self.generations = engine.generation_count
        params = engine.recoder.params
        self.shape = (params.generation_size, params.payload_size)
        self.column = column
        self.silence_timeout = silence_timeout
        #: The node's ``PeerStats``: segments, keep-alives heard and
        #: CRC failures.
        self.stats = stats
        self.on_complete = on_complete
        self.on_end = on_end
        self.saw_traffic = False
        #: packets of generations already held, since the last report
        #: this connection sent
        self.stale = 0
        self.heard = 0.0
        self._connection: Optional[Connection] = None
        self._silence: Optional[TimerHandle] = None

    def connected(self, connection: Connection) -> None:
        pumps = self.pumps
        self._connection = connection
        writer = connection.transport
        # One write: the parent that parses the hello holds the set,
        # so a re-clipped thread is never re-sent what it decoded.
        report = pumps._report()
        writer.write(encode_frame(KIND_CONTROL, encode_control(
            _new(DataHello, (pumps.origin, self.column)))) + report)
        pumps.stats[0].bytes_sent += len(report)
        pumps._parents[self.column] = writer
        clock = pumps._clock
        self.heard = clock.time()
        self._silence = clock.call_at(
            self.heard + self.silence_timeout, self._check_silence)

    def _check_silence(self) -> None:
        clock = self.pumps._clock
        deadline = self.heard + self.silence_timeout
        if clock.time() >= deadline:
            self._silence = None
            self._connection.close()
        else:
            self._silence = clock.call_at(deadline, self._check_silence)

    def message(self, message) -> None:
        if isinstance(message, CodedPacket):
            if (not 0 <= message.generation < self.generations
                    or (len(message.coefficients), len(message.payload))
                    != self.shape):
                raise FramingError(
                    f"packet of generation {message.generation} with "
                    f"{len(message.coefficients)} coefficients and "
                    f"{len(message.payload)} payload bytes: not this "
                    f"session's")
            self.saw_traffic = True
            engine = self.engine
            effects = engine.handle(_new(PacketArrived, (message, 0.0)))
            for effect in effects:
                if isinstance(effect, EmitToChildren):
                    self.pumps.emit(effect)
                elif isinstance(effect, GenerationComplete):
                    self.pumps._report_due = True
                elif isinstance(effect, MarkComplete) and self.on_complete:
                    self.on_complete()
            if not effects[0].innovative and engine.finished(
                    message.generation):
                self.stale += 1
        elif isinstance(message, KeepAlive):
            self.saw_traffic = True
            self.stats.keepalives_seen += 1

    def drained(self) -> None:
        pumps = self.pumps
        self.heard = pumps._clock.time()
        self.stats.upstream_fills += 1
        if pumps._report_due:
            pumps._report_due = False
            report = pumps._report()
            for parent in pumps._parents.values():
                pumps._report_to(parent, report)
            self.stale = 0
        elif self.stale >= pumps.generation_size:
            pumps._report_to(self._connection.transport, pumps._report())
            self.stale = 0

    def closed(self, error: Optional[BaseException]) -> None:
        if self._silence is not None:
            self._silence.cancel()
        pumps, column = self.pumps, self.column
        connection = self._connection
        if (connection is not None
                and pumps._parents.get(column) is connection.transport):
            del pumps._parents[column]
        if isinstance(error, CrcMismatchError):
            self.stats.crc_failures += 1
            if pumps.logger is not None:
                pumps.logger.info(
                    "column %d: corrupted frame from the parent (CRC "
                    "mismatch), dropping connection", column)
        elif isinstance(error, FramingError) and pumps.logger is not None:
            pumps.logger.info(
                "column %d: dropping parent connection: %s", column, error)
        self.on_end(self.saw_traffic)


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
    dials to a parent (:meth:`upstream`), so the engine's arrivals, the
    fan-out they trigger and the reports the node owes its parents
    meet in one place.

    Args:
        registry: The node's registry; this set is the owner of
            ``net.children``, the ``net.sender.*`` totals (each
            :class:`SenderStats` field summed over :attr:`stats`) and
            one ``net.queue_depth.c<column>`` gauge per column it has
            served (the per-neighbour-queue observable).
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
        #: every column a pump has served: one queue-depth gauge each
        self._columns: set[int] = set()
        self._limit = limit
        self._keepalive_interval = keepalive_interval
        self._clock = clock
        registry.owners.append(self)

    def snapshot_into(self, counters: dict, gauges: dict,
                      histograms: dict) -> None:
        gauges["net.children"] = len(self._pumps)
        for field in fields(SenderStats):
            name = field.name
            gauges[f"net.sender.{name}"] = sum(
                getattr(s, name) for s in self.stats)
        for column in self._columns:
            gauges[f"net.queue_depth.c{column}"] = sum(
                p.queue_depth for p in self._pumps.values()
                if p.column == column)

    def get(self, key: Hashable) -> Optional[PacketSender]:
        """The pump now serving ``key``, if any."""
        return self._pumps.get(key)

    def attached(self) -> tuple:
        """Keys with an open pump, in attach order."""
        return tuple([
            key for key, pump in self._pumps.items() if not pump.closed])

    def _checked(self, message: object) -> tuple:
        """A child's report as ``(base, extras)``; a
        :class:`FramingError` for anything else, or a generation the
        content does not have."""
        if not isinstance(message, GenerationsComplete):
            raise FramingError(
                f"child sent {type(message).__name__} on a data connection")
        count = self.engine.generation_count
        highest = message.extras[-1] if message.extras else message.base - 1
        if highest >= count:
            raise FramingError(
                f"report names generation {highest} of {count}")
        return message.base, message.extras

    def serve(self, key: Hashable, connection: Connection,
              column: int) -> None:
        """Take over one child's data connection, its hello just read.

        A column the session does not have (``0 <= column < k``), a
        child that dials before the engine exists, or a report behind
        the hello that the session rejects is closed unattached.  The
        report buffered behind the hello — the one a child sends in its
        hello's segment — is the set it dialed in with, else the empty
        set ``(0, ())``: a child that has not said what it holds is
        served as one that holds nothing.  The engine hears
        ``ChildAttached`` with that set, a pump already serving ``key``
        is closed and replaced (the child redialed: its old connection
        is dead or about to be), and the engine's answer goes on the
        new pump first.  From then on each report is ``ChildCompleted``
        and each keep-alive interval the pump sits idle ``IdlePoll``;
        when the connection ends, the pump does — and if it was still
        the one serving ``key``, the engine hears ``ChildDetached``.
        """
        engine = self.engine
        if engine is None or not 0 <= column < self.k:
            connection.close()
            return
        try:
            message = connection.next_message()
            completed = (0, ()) if message is None else self._checked(message)
        except FramingError:
            connection.close()
            return
        # The engine first: it owns the fan-out order the new pump
        # joins, and its answer is the burst the pump starts with.
        burst = engine.handle(_new(ChildAttached, (key, completed)))
        pump = PacketSender(
            connection.transport, column=column, sender_id=self.origin,
            idle_packet=partial(self._idle_packet, key), limit=self._limit,
            keepalive_interval=self._keepalive_interval, clock=self._clock,
            logger=self.logger,
        )
        pump.connection = connection
        connection.sender = pump
        old = self._pumps.get(key)
        self._pumps[key] = pump
        if old is not None:
            old.close()
        self.stats.append(pump.stats)
        self._columns.add(column)
        connection.handler = _Child(self, key, pump)
        for effect in burst:
            self.emit(effect)

    def _retire(self, key: Hashable, pump: PacketSender) -> None:
        """A child connection ended: stop its pump, fold its counters
        into the retired total and drop its own entry — every sum over
        ``stats`` is unchanged — and, if it still served ``key``,
        detach the key."""
        pump.close()
        # By identity — SenderStats compares by value, and an idle
        # pump equals another, or a fresh total.
        self.stats[:] = [s for s in self.stats if s is not pump.stats]
        total = self.stats[0]
        for field in fields(SenderStats):
            setattr(total, field.name, getattr(total, field.name)
                    + getattr(pump.stats, field.name))
        if self._pumps.get(key) is pump:
            del self._pumps[key]
            self.engine.handle(ChildDetached(key))

    def _idle_packet(self, key: Hashable) -> Optional[CodedPacket]:
        """The engine's fill for ``key``'s idle link, if it has one."""
        effects = self.engine.handle(IdlePoll(key))
        return effects[0].packets[0] if effects else None

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
        """Stop every pump: each closes its connection, leaves the set
        and reports its detach."""
        for pump in list(self._pumps.values()):
            pump.close()

    def upstream(
        self,
        column: int,
        silence_timeout: float,
        stats,
        on_complete: Optional[Callable[[], None]],
        on_end: Callable[[bool], None],
    ) -> Connection:
        """The connection to dial to ``column``'s parent (see
        :class:`_Upstream`); ``on_end`` hears when it ended and whether
        it was a healthy session."""
        return Connection(_Upstream(
            self, column, silence_timeout, stats, on_complete, on_end))

    def _report(self) -> bytes:
        """This node's completed-generation set as a framed record."""
        return encode_frame(KIND_CONTROL, encode_control(_new(
            GenerationsComplete, self.engine.completed_generations)))

    def _report_to(self, writer: ByteStreamWriter, frame: bytes) -> None:
        writer.write(frame)
        self.stats[0].bytes_sent += len(frame)
