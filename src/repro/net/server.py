"""The coordination + source server over real sockets.

:class:`ServerNode` is the live-transport driver of the sans-IO
:class:`~repro.protocol.server_engine.ServerEngine`: every protocol
decision — hello grants, Lemma 1 splices, the complaint→probe→repair
slow path — happens inside the engine, and this module only owns what
a real deployment adds around it:

* the listen socket and one control connection per admitted peer
  (first frame: ``JoinRequest``), each pumping received frames into the
  engine and performing the effects it returns;
* address book upkeep — a ``PeerLocator`` precedes every ``SetParent``
  so the child can dial its new parent;
* probe deadlines as asyncio sleeps feeding
  :class:`~repro.protocol.events.TimerFired` back into the engine;
* the data plane's root: a
  :class:`~repro.coding.encoder.SourceEncoder` pumping coded packets
  down each column's chain (top nodes dial a *data* connection, first
  frame ``DataHello``).

Failure handling is two-layered, both decided by the engine: the
**fast path** treats a control connection dropping without a
``LeaveRequest`` as a crash (:class:`~repro.protocol.events.ConnectionLost`),
the **slow path** probes complained-about suspects and splices them on
probe timeout, exactly as in §3.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..coding.buffers import DEFAULT_POOL
from ..coding.encoder import SourceEncoder
from ..coding.generation import GenerationParams
from ..core.matrix import SERVER
from ..core.server import CoordinationServer
from ..dataplane import EmitRound, EmitToChildren, SourceEngine
from ..obs import (
    DataplaneInstruments,
    FlightRecorder,
    Registry,
    ServerEngineInstruments,
    bind_fields,
    bind_pool,
    bind_sender_totals,
    snapshot_obj,
)
from ..protocol import (
    Admitted,
    CloseConnection,
    ConnectionLost,
    JoinRequest,
    MessageReceived,
    PeerDeparted,
    Probe,
    Send,
    ServerEngine,
    SetParent,
    StartTimer,
    TimerFired,
)
from .control import DataHello, PeerLocator, SessionInfo
from .framing import (
    FramingError,
    MessageStream,
    encode_data_frames,
    write_control_nowait,
)
from .streams import PacketSender, SenderStats, retire_sender
from .transport import AsyncioTransport, ByteStreamWriter, Listener, Transport

__all__ = ["ServerNode", "ServerStats"]


class ServerStats:
    """Server-side counters the harnesses and the CLI report.

    ``rounds`` and ``packets_sent`` are read-through views over the
    server's :class:`~repro.dataplane.SourceEngine` — the engine's
    bookkeeping is the one authoritative copy since the dataplane
    unification.  The membership counters stay plain driver-owned
    fields.
    """

    def __init__(self, dataplane: SourceEngine) -> None:
        self._dataplane = dataplane
        self.repairs = 0
        self.probes = 0
        self.joins = 0
        self.leaves = 0
        self.crashes = 0

    @property
    def rounds(self) -> int:
        return self._dataplane.rounds

    @property
    def packets_sent(self) -> int:
        return self._dataplane.packets_sent

    def __repr__(self) -> str:  # noqa: D105
        return (
            f"ServerStats(rounds={self.rounds}, "
            f"packets_sent={self.packets_sent}, repairs={self.repairs}, "
            f"probes={self.probes}, joins={self.joins}, "
            f"leaves={self.leaves}, crashes={self.crashes})"
        )


@dataclass
class _PeerHandle:
    """Server-side connection state for one admitted peer."""

    node_id: int
    host: str
    port: int
    writer: ByteStreamWriter
    tasks: list = field(default_factory=list)


class ServerNode:
    """Asyncio server owning the thread matrix and the source stream.

    Args:
        content: Bytes to broadcast.
        params: Coding geometry shared with every peer.
        k: Server threads (matrix columns).
        d: Default per-peer thread count.
        host, port: Listen address (port 0 = ephemeral).
        seed: All membership and coding randomness flows from here.
        insert_mode: ``"append"`` (§3) or ``"uniform"`` (§5 hardening).
        send_interval: Seconds between emission rounds (one coded packet
            per attached column per round).
        queue_limit: Bound of each column's outbound queue.
        keepalive_interval: Idle keep-alive period on data connections.
        probe_timeout: Grace period for a suspect to answer a probe.
        transport: Network + clock seam (real asyncio TCP by default;
            the chaos harness injects a virtual network).
    """

    def __init__(
        self,
        content: bytes,
        params: GenerationParams,
        *,
        k: int,
        d: int,
        host: str = "127.0.0.1",
        port: int = 0,
        seed: int = 0,
        insert_mode: str = "append",
        send_interval: float = 0.005,
        queue_limit: int = 32,
        keepalive_interval: float = 0.25,
        probe_timeout: float = 0.5,
        transport: Optional[Transport] = None,
    ) -> None:
        self.transport: Transport = (
            transport if transport is not None else AsyncioTransport()
        )
        self.clock = self.transport.clock
        rng = np.random.default_rng(seed)
        self.engine = ServerEngine(
            CoordinationServer(k, d, rng, insert_mode),
            probe_timeout=probe_timeout,
        )
        self.encoder = SourceEncoder(content, params, rng)
        #: The sans-IO data-plane core (generation scheduling + per-round
        #: emission; the stream loop just pumps its effects).
        self.dataplane = SourceEngine(self.encoder)
        self.params = params
        self.content_length = len(content)
        self.host = host
        self.port = port
        self.send_interval = send_interval
        self.queue_limit = queue_limit
        self.keepalive_interval = keepalive_interval
        self.probe_timeout = probe_timeout
        self.stats = ServerStats(self.dataplane)
        self._peers: dict[int, _PeerHandle] = {}
        self._column_senders: dict[int, PacketSender] = {}
        #: Retired-pump totals first, then one entry per live column pump.
        self.sender_stats: list[SenderStats] = [SenderStats()]
        self._server: Optional[Listener] = None
        self._stream_task: Optional[asyncio.Task] = None
        self._timer_tasks: set[asyncio.Task] = set()
        self._running = False
        self.log = logging.getLogger("repro.net.server")
        #: Per-node telemetry: engine counters, folded stats dataclasses,
        #: per-column queue depths — everything snapshot-on-read, so the
        #: hot paths keep bumping plain dataclass fields.
        self.registry = Registry("server")
        ServerEngineInstruments(self.registry).attach(self.engine, self.registry)
        DataplaneInstruments(self.registry).attach(
            self.dataplane, self.registry
        )
        self.engine.flight = FlightRecorder()
        bind_fields(
            self.registry, self.stats,
            ("rounds", "packets_sent", "repairs", "probes",
             "joins", "leaves", "crashes"),
            "net", "live ServerStats counter",
        )
        bind_sender_totals(self.registry, lambda: self.sender_stats)
        bind_pool(self.registry, DEFAULT_POOL)
        for column in range(k):
            self.registry.gauge(
                f"net.queue_depth.c{column}",
                "frames queued on this column's outbound pump",
                fn=lambda c=column: (
                    sender.queue_depth
                    if (sender := self._column_senders.get(c)) is not None
                    else 0
                ),
            )

    def snapshot(self) -> dict:
        """This node's registries as a versioned snapshot object."""
        return snapshot_obj(self.registry)

    @property
    def core(self) -> CoordinationServer:
        """The matrix authority (owned by the engine)."""
        return self.engine.core

    # ------------------------------------------------------------------
    # Lifecycle

    async def start(self) -> None:
        """Bind the listen socket and start the emission loop."""
        self._server = await self.transport.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.address[1]
        self.log = logging.getLogger(f"repro.net.server.{self.port}")
        self.registry.name = f"server:{self.port}"
        self._running = True
        self._stream_task = asyncio.ensure_future(self._stream_loop())
        self.log.info(
            "listening on %s:%d (k=%d, d=%d)",
            self.host, self.port, self.core.k, self.core.d,
        )

    async def stop(self) -> None:
        """Close every connection and stop serving."""
        self._running = False
        pending = [t for t in [self._stream_task, *self._timer_tasks]
                   if t is not None]
        for task in pending:
            task.cancel()
        for sender in list(self._column_senders.values()):
            sender.close()
        self._column_senders.clear()
        for handle in list(self._peers.values()):
            handle.writer.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    @property
    def population(self) -> int:
        """Rows currently in the matrix."""
        return self.core.population

    # ------------------------------------------------------------------
    # Data plane

    async def _stream_loop(self) -> None:
        """One emission round per interval: a packet per attached column.

        The :class:`~repro.dataplane.SourceEngine` owns the schedule —
        round-robin generations so every generation keeps flowing
        regardless of which columns are attached, one mixing gemm per
        round — and this loop only translates its effects onto the column
        pumps (one pooled serialisation pass, frames shared by reference).
        """
        try:
            while self._running:
                await self.clock.sleep(self.send_interval)
                attached = [
                    (column, s)
                    for column, s in list(self._column_senders.items())
                    if not s.closed
                ]
                for effect in self.dataplane.handle(EmitRound(
                    targets=tuple(column for column, _ in attached)
                )):
                    if not isinstance(effect, EmitToChildren):
                        continue
                    frames = encode_data_frames(effect.packets)
                    for (_, sender), frame in zip(attached, frames):
                        sender.enqueue_frame(frame)
        except asyncio.CancelledError:
            pass

    # ------------------------------------------------------------------
    # Connection handling

    async def _handle_connection(
        self, reader, writer: ByteStreamWriter
    ) -> None:
        # One stream per connection: frames that arrived with the first
        # one stay buffered for the control loop.
        stream = MessageStream(reader)
        try:
            first = await stream.next()
        except FramingError:
            writer.close()
            return
        if isinstance(first, JoinRequest):
            await self._serve_control(first, stream, writer)
        elif isinstance(first, DataHello):
            await self._serve_data(first, writer)
        else:
            writer.close()

    async def _serve_data(
        self, hello: DataHello, writer: ByteStreamWriter
    ) -> None:
        """Stream one column to the child that dialed us."""
        column = hello.column
        if not 0 <= column < self.core.k:
            writer.close()
            return
        old = self._column_senders.get(column)
        if old is not None:
            old.close()
        sender = PacketSender(
            writer, column=column, sender_id=SERVER,
            limit=self.queue_limit, keepalive_interval=self.keepalive_interval,
            clock=self.clock, logger=self.log,
        )
        self.sender_stats.append(sender.stats)
        self._column_senders[column] = sender
        try:
            await sender.run()
        finally:
            retire_sender(self.sender_stats, sender.stats)
            if self._column_senders.get(column) is sender:
                del self._column_senders[column]

    # ------------------------------------------------------------------
    # Control plane: pump the engine

    async def _serve_control(
        self, request: JoinRequest, stream: MessageStream,
        writer: ByteStreamWriter,
    ) -> None:
        handle = self._admit(request, writer)
        try:
            while self._running:
                message = await stream.next()
                if message is None:
                    break
                self._pump(self.engine.handle(
                    MessageReceived(message, sender=handle.node_id)
                ))
                if handle.node_id in self.engine.departed:
                    break
        except (FramingError, ConnectionError, OSError):
            pass
        finally:
            self._disconnect(handle)

    def _admit(
        self, request: JoinRequest, writer: ByteStreamWriter
    ) -> _PeerHandle:
        """Run the hello protocol for a fresh control connection."""
        peername = writer.get_extra_info("peername")
        host = peername[0] if peername else "127.0.0.1"
        handle: Optional[_PeerHandle] = None
        for effect in self.engine.handle(MessageReceived(request)):
            if isinstance(effect, Admitted):
                handle = _PeerHandle(
                    node_id=effect.node_id, host=host,
                    port=request.reply_to, writer=writer,
                )
                self._peers[effect.node_id] = handle
                self.stats.joins += 1
                self.log.info(
                    "admitted peer %d from %s:%d with %d threads",
                    effect.node_id, host, request.reply_to,
                    len(effect.assignments),
                )
                # Geometry first, then parent locators, then the grant
                # (delivered by the Send effect that follows): by the
                # time the joiner sees its assignments it can dial them.
                write_control_nowait(writer, SessionInfo(
                    generation_size=self.params.generation_size,
                    payload_size=self.params.payload_size,
                    generation_count=self.encoder.generation_count,
                    content_length=self.content_length,
                    k=self.core.k,
                    d=self.core.d,
                ))
                for _column, parent in effect.assignments:
                    self._send_locator(handle, parent)
            else:
                self._perform(effect)
        return handle

    def _pump(self, effects) -> None:
        for effect in effects:
            self._perform(effect)

    def _perform(self, effect) -> None:
        """Carry out one engine effect on the live transport."""
        if isinstance(effect, Send):
            if isinstance(effect.message, Probe):
                self.stats.probes += 1
                self.log.info("probing suspect %d", effect.to)
            self._notify(effect.to, effect.message)
        elif isinstance(effect, StartTimer):
            task = asyncio.ensure_future(self._timer(effect.key, effect.delay))
            self._timer_tasks.add(task)
            task.add_done_callback(self._timer_tasks.discard)
        elif isinstance(effect, CloseConnection):
            handle = self._peers.get(effect.node_id)
            if handle is not None:
                handle.writer.close()
        elif isinstance(effect, PeerDeparted):
            self.log.info(
                "peer %d departed (%s)", effect.node_id, effect.reason
            )
            if effect.reason == "leave":
                self.stats.leaves += 1
            else:
                self.stats.repairs += 1
                self._peers.pop(effect.node_id, None)
        # Admitted is handled by _admit; ComplaintNoted is bookkeeping
        # for drivers that track repair latency.

    async def _timer(self, key: tuple, delay: float) -> None:
        await self.clock.sleep(delay)
        self._pump(self.engine.handle(TimerFired(key)))

    def _disconnect(self, handle: _PeerHandle) -> None:
        """Control connection gone: a crash unless it said good-bye."""
        if self._running and handle.node_id not in self.engine.departed:
            self.stats.crashes += 1
            self._pump(self.engine.handle(ConnectionLost(handle.node_id)))
        self._peers.pop(handle.node_id, None)
        handle.writer.close()

    # ------------------------------------------------------------------
    # Helpers

    def _send_locator(self, to: _PeerHandle, node_id: int) -> None:
        """Tell ``to`` where ``node_id`` listens (no-op for the server)."""
        if node_id == SERVER:
            return
        peer = self._peers.get(node_id)
        if peer is not None:
            write_control_nowait(to.writer, PeerLocator(
                node_id=node_id, host=peer.host, port=peer.port))

    def _notify(self, node_id: int, message: object) -> None:
        """Fire-and-forget a control message to a connected peer.  A
        ``SetParent`` is preceded by the new parent's locator so the
        child can dial it."""
        if node_id == SERVER:
            return
        handle = self._peers.get(node_id)
        if handle is None:
            return
        try:
            if isinstance(message, SetParent):
                self._send_locator(handle, message.parent)
            write_control_nowait(handle.writer, message)
        except (ConnectionError, OSError):
            pass

    async def serve_forever(self) -> None:
        """Block until cancelled (used by the ``repro serve`` command)."""
        if self._server is None:
            raise RuntimeError("server not started")
        await self._server.serve_forever()
