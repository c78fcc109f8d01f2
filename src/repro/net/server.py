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
* probe deadlines as clock timers feeding
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
from dataclasses import dataclass
from typing import Optional

from numpy.random import default_rng

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
    first_message,
    write_control_nowait,
)
from .streams import PumpSet
from .transport import (
    AsyncioTransport,
    ByteStreamWriter,
    Listener,
    TimerHandle,
    Transport,
)

__all__ = ["ServerNode", "ServerStats"]


class ServerStats:
    """The driver's own count: ``crashes``, the control connections
    that dropped without a good-bye (the EOF fast path), plus
    ``rounds``, a read-through view of the
    :class:`~repro.dataplane.SourceEngine`'s.  Every engine fact —
    joins, leaves, repairs, probes, packets — is counted once, by the
    instruments: ``node.engine.obs`` and ``node.dataplane.obs``.
    """

    def __init__(self, dataplane: SourceEngine) -> None:
        self._dataplane = dataplane
        self.crashes = 0

    @property
    def rounds(self) -> int:
        return self._dataplane.rounds

    def __repr__(self) -> str:  # noqa: D105
        return f"ServerStats(rounds={self.rounds}, crashes={self.crashes})"


@dataclass
class _PeerHandle:
    """Server-side state of one control connection; ``node_id`` is
    filled in when the engine admits the peer behind it."""

    host: str
    port: int
    writer: ByteStreamWriter
    node_id: Optional[int] = None


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
        rng = default_rng(seed)
        self.engine = ServerEngine(
            CoordinationServer(k, d, rng, insert_mode),
            probe_timeout=probe_timeout,
        )
        #: The sans-IO data-plane core (generation scheduling + per-round
        #: emission; the stream loop just pumps its effects).
        self.dataplane = SourceEngine(SourceEncoder(content, params, rng))
        self.host = host
        self.port = port
        self.send_interval = send_interval
        self.stats = ServerStats(self.dataplane)
        self._peers: dict[int, _PeerHandle] = {}
        self._server: Optional[Listener] = None
        self._stream_task: Optional[asyncio.Task] = None
        #: The engine's armed timers (probe deadlines), until they fire.
        self._timers: set[TimerHandle] = set()
        self._running = False
        self.log = logging.getLogger("repro.net.server")
        #: Per-node telemetry: engine counters, folded stats dataclasses,
        #: per-column queue depths — everything snapshot-on-read, so the
        #: hot paths keep bumping plain dataclass fields.
        self.registry = Registry("server")
        #: The data connections: one pump per column, toward its top node.
        self.pumps = PumpSet(
            self.registry, limit=queue_limit,
            keepalive_interval=keepalive_interval, clock=self.clock,
            logger=self.log,
        )
        self.pumps.engine = self.dataplane
        self.pumps.k = k
        self.pumps.generation_size = params.generation_size
        #: Retired-pump totals first, then one entry per live column pump.
        self.sender_stats = self.pumps.stats
        ServerEngineInstruments(self.registry).attach(self.engine, self.registry)
        DataplaneInstruments(self.registry).attach(
            self.dataplane, self.registry
        )
        self.engine.flight = FlightRecorder()
        bind_fields(
            self.registry, self.stats, ("crashes",),
            "net", "control connections lost without a good-bye",
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
        self.log = self.pumps.logger = logging.getLogger(
            f"repro.net.server.{self.port}")
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
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        if self._stream_task is not None:
            self._stream_task.cancel()
        self.pumps.close()
        for handle in list(self._peers.values()):
            handle.writer.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._stream_task is not None:
            await asyncio.gather(self._stream_task, return_exceptions=True)

    # ------------------------------------------------------------------
    # Data plane

    async def _stream_loop(self) -> None:
        """One emission round per interval: a packet per attached column.

        The :class:`~repro.dataplane.SourceEngine` owns the schedule —
        each column's top node is sent the lowest generation it has not
        reported complete, one mixing gemm per generation chosen — and
        this loop only hands its effects to the column pumps.
        """
        try:
            while self._running:
                await self.clock.sleep(self.send_interval)
                for effect in self.dataplane.handle(
                    EmitRound(targets=self.pumps.attached())
                ):
                    if isinstance(effect, EmitToChildren):
                        self.pumps.emit(effect)
        except asyncio.CancelledError:
            pass

    # ------------------------------------------------------------------
    # Connection handling

    async def _handle_connection(
        self, reader, writer: ByteStreamWriter
    ) -> None:
        # One stream per connection: frames that arrived with the first
        # one stay buffered for the loop that follows.  A dialler gets
        # one probe window to finish its first frame.
        stream = MessageStream(reader)
        first = await first_message(
            stream, writer, self.clock, self.engine.probe_timeout)
        if isinstance(first, JoinRequest):
            await self._serve_control(first, stream, writer)
        elif isinstance(first, DataHello) and self._at_top(first):
            await self.pumps.serve(first.column, stream, writer, first.column)
        else:
            writer.close()

    def _at_top(self, hello: DataHello) -> bool:
        """Whether the matrix has the dialer at the top of the column it
        names: a server column is served to that node and nobody else,
        so a stranger cannot close the top's pump by redialing its key.
        (The hello is unauthenticated: a forged ``node_id`` passes.)"""
        matrix = self.core.matrix
        return (hello.node_id in matrix
                and hello.column in matrix.row(hello.node_id).columns
                and matrix.parent_in_column(
                    hello.node_id, hello.column) == SERVER)

    # ------------------------------------------------------------------
    # Control plane: pump the engine

    async def _serve_control(
        self, request: JoinRequest, stream: MessageStream,
        writer: ByteStreamWriter,
    ) -> None:
        peername = writer.get_extra_info("peername")
        handle = _PeerHandle(
            host=peername[0] if peername else "127.0.0.1",
            port=request.reply_to, writer=writer,
        )
        self._perform(self.engine.handle(MessageReceived(request)), handle)
        try:
            while self._running:
                message = await stream.next()
                if message is None:
                    break
                self._perform(self.engine.handle(
                    MessageReceived(message, sender=handle.node_id)
                ))
                if handle.node_id in self.engine.departed:
                    break
        except (FramingError, ConnectionError, OSError):
            pass
        finally:
            self._disconnect(handle)

    def _welcome(self, effect: Admitted, handle: _PeerHandle) -> None:
        """Open the books on a freshly admitted control connection."""
        handle.node_id = effect.node_id
        self._peers[effect.node_id] = handle
        self.log.info(
            "admitted peer %d from %s:%d with %d threads", effect.node_id,
            handle.host, handle.port, len(effect.assignments),
        )
        # Geometry first, then parent locators, then the grant
        # (delivered by the Send effect that follows): by the
        # time the joiner sees its assignments it can dial them.
        encoder = self.dataplane.encoder
        write_control_nowait(handle.writer, SessionInfo(
            generation_size=encoder.params.generation_size,
            payload_size=encoder.params.payload_size,
            generation_count=encoder.generation_count,
            content_length=encoder.content_length,
            k=self.core.k,
            d=self.core.d,
        ))
        for _column, parent in effect.assignments:
            self._send_locator(handle, parent)

    def _perform(
        self, effects, joining: Optional[_PeerHandle] = None
    ) -> None:
        """Carry out the control engine's effects on the live transport.

        ``joining`` is the connection whose ``JoinRequest`` produced
        them, for the ``Admitted`` among them to claim.
        ``ComplaintNoted`` is bookkeeping for drivers that track repair
        latency.
        """
        for effect in effects:
            if isinstance(effect, Send):
                if isinstance(effect.message, Probe):
                    self.log.info("probing suspect %d", effect.to)
                self._notify(effect.to, effect.message)
            elif isinstance(effect, Admitted):
                self._welcome(effect, joining)
            elif isinstance(effect, StartTimer):
                self._start_timer(effect.key, effect.delay)
            elif isinstance(effect, CloseConnection):
                handle = self._peers.get(effect.node_id)
                if handle is not None:
                    handle.writer.close()
            elif isinstance(effect, PeerDeparted):
                self.log.info(
                    "peer %d departed (%s)", effect.node_id, effect.reason
                )
                if effect.reason != "leave":
                    self._peers.pop(effect.node_id, None)

    def _start_timer(self, key: tuple, delay: float) -> None:
        """Arm the engine's timer: ``TimerFired(key)`` after ``delay``."""

        def fire() -> None:
            self._timers.discard(timer)
            self._perform(self.engine.handle(TimerFired(key)))

        timer = self.clock.call_at(self.clock.time() + delay, fire)
        self._timers.add(timer)

    def _disconnect(self, handle: _PeerHandle) -> None:
        """Control connection gone: a crash unless it said good-bye."""
        if self._running and handle.node_id not in self.engine.departed:
            self.stats.crashes += 1
            self._perform(self.engine.handle(ConnectionLost(handle.node_id)))
        self._peers.pop(handle.node_id, None)
        handle.writer.close()

    # ------------------------------------------------------------------
    # Helpers

    def _send_locator(self, to: _PeerHandle, node_id: int) -> None:
        """Tell ``to`` where ``node_id`` listens (a no-op for ``SERVER``,
        which every peer can already dial and ``_peers`` never holds)."""
        peer = self._peers.get(node_id)
        if peer is not None:
            write_control_nowait(to.writer, PeerLocator(
                node_id=node_id, host=peer.host, port=peer.port))

    def _notify(self, node_id: int, message: object) -> None:
        """Fire-and-forget a control message to a connected peer.  A
        ``SetParent`` is preceded by the new parent's locator so the
        child can dial it."""
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
