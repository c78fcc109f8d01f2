"""Per-connection outbound pumps with bounded queues.

Backpressure policy (the per-neighbour-queues design of
arXiv:1301.5107): every downstream connection owns a bounded FIFO of
coded packets.  When the consumer is slower than the producer the queue
fills and the *oldest* packet is dropped.  With RLNC this is safe by
construction — every enqueued packet is a fresh random mixture of the
sender's buffer, so any later packet carries at least as much
information as the one evicted; nothing is retransmitted and nothing is
tracked.

The queue holds *pre-encoded* immutable frame bytes rather than packet
objects: a packet fanned out to several children is serialised once
(see :func:`repro.net.framing.encode_data_frames`) and the same bytes
object sits in every child's queue.  At each wakeup the pump hands
everything queued to the writer in a single ``writelines`` flush — one
syscall on a real socket; the virtual transport keeps its fault
injection aligned to the individual frames of the list.

The pump also emits a :class:`~repro.protocol.messages.KeepAlive`
control frame when the data flow pauses, so an idle-but-healthy thread
is distinguishable from a dead parent (the paper's silence-based
failure detection, run over real sockets).
"""

from __future__ import annotations

import asyncio
import logging
from collections import deque
from dataclasses import dataclass, fields
from typing import Callable, Deque, Optional

from ..coding.packet import CodedPacket
from ..protocol.messages import KeepAlive
from .control import encode_control
from .framing import KIND_CONTROL, encode_data_frame, encode_frame
from .transport import AsyncioClock, ByteStreamWriter, Clock

__all__ = ["PacketSender", "SenderStats", "retire_sender"]


@dataclass
class SenderStats:
    """Delivery accounting for one outbound pump.

    ``bytes_sent`` counts every byte written (data frames and
    keep-alives); ``flushes`` counts drain cycles, so ``sent /
    flushes`` is the observed frames-per-flush coalescing ratio.
    """

    enqueued: int = 0
    dropped: int = 0
    sent: int = 0
    keepalives: int = 0
    bytes_sent: int = 0
    flushes: int = 0


def retire_sender(live: list[SenderStats], stats: SenderStats) -> None:
    """Fold a finished pump's counters into ``live[0]``, the node's
    retired-total entry, and drop its own: the list stays as long as
    the pumps now running however many connections came and went, and
    every sum over it is unchanged."""
    total = live[0]
    # By identity: SenderStats compares by value, and two idle pumps
    # (or an idle pump and a fresh total) are equal.
    live[:] = [entry for entry in live if entry is not stats]
    for field in fields(SenderStats):
        setattr(total, field.name,
                getattr(total, field.name) + getattr(stats, field.name))


class PacketSender:
    """Bounded drop-oldest pump feeding one downstream connection.

    Args:
        writer: The connection to the downstream node.
        column: Thread column this pump serves (stamped on keep-alives).
        sender_id: Our node id (stamped on keep-alives; -1 = server).
        limit: Queue bound; the oldest packet is evicted on overflow.
        keepalive_interval: Idle period after which a keep-alive frame
            is sent (None disables keep-alives).
        clock: Timeline the idle timer runs on (real time by default;
            the chaos harness injects a virtual clock).
        idle_packet: Optional source of a fresh coded packet to send in
            place of a bare keep-alive when the idle timer fires (the
            swarm harness's innovation-gated mode uses this so a child
            stuck one degree short of full rank still heals).  Returning
            None falls back to the normal keep-alive frame.
        logger: Destination for backpressure decisions (evictions are
            logged at DEBUG); None keeps the pump silent.
    """

    def __init__(
        self,
        writer: ByteStreamWriter,
        *,
        column: int,
        sender_id: int,
        limit: int = 32,
        keepalive_interval: Optional[float] = None,
        clock: Optional[Clock] = None,
        idle_packet: Optional[Callable[[], Optional[CodedPacket]]] = None,
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
        self._queue: Deque[bytes] = deque()
        self._wakeup = asyncio.Event()
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def queue_depth(self) -> int:
        """Frames queued and not yet flushed (the per-neighbour-queue
        observable; exporters bind gauges to this)."""
        return len(self._queue)

    def enqueue(self, packet: CodedPacket) -> bool:
        """Serialise and queue a packet; evict the oldest when full.

        Returns True if the packet was queued without an eviction.
        """
        if self._closed:
            return False
        return self.enqueue_frame(encode_data_frame(packet))

    def enqueue_frame(self, frame: bytes) -> bool:
        """Queue an already-encoded data frame; evict the oldest when full.

        The encode-once fan-out entry point: callers serialise a packet
        a single time and hand the same immutable bytes to every child's
        pump.  Returns True if the frame was queued without an eviction.
        """
        if self._closed:
            return False
        self.stats.enqueued += 1
        clean = True
        if len(self._queue) >= self._limit:
            self._queue.popleft()
            self.stats.dropped += 1
            clean = False
            if self._log_drops:
                self._logger.debug(
                    "column %d: queue full (%d), dropped oldest frame "
                    "(%d dropped total)",
                    self.column, self._limit, self.stats.dropped,
                )
        self._queue.append(frame)
        self._wakeup.set()
        return clean

    def close(self) -> None:
        """Stop the pump; the run loop exits at its next wakeup."""
        self._closed = True
        self._wakeup.set()

    async def run(self) -> None:
        """Drain the queue onto the wire until closed or disconnected."""
        try:
            while not self._closed:
                if not self._queue:
                    if not await self._wait_for_work():
                        continue  # idle timeout: keep-alive sent
                if self._closed:
                    break
                frames = list(self._queue)
                self._queue.clear()
                self._writer.writelines(frames)
                self.stats.sent += len(frames)
                self.stats.bytes_sent += sum(len(f) for f in frames)
                self.stats.flushes += 1
                await self._writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            self._closed = True
            self._writer.close()

    async def _wait_for_work(self) -> bool:
        """Block until work arrives; False after an idle keep-alive."""
        self._wakeup.clear()
        if self._queue or self._closed:
            return True
        try:
            await self._clock.wait_for(
                self._wakeup.wait(), timeout=self._keepalive_interval
            )
            return True
        except asyncio.TimeoutError:
            packet = self._idle_packet() if self._idle_packet is not None else None
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
            await self._writer.drain()
            return False
