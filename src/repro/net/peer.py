"""A live peer: clip, recode, forward — over real sockets.

:class:`PeerNode` is the live-transport driver of the sans-IO
:class:`~repro.protocol.peer_engine.PeerEngine`.  The engine owns every
peer-side protocol decision — which parent feeds which column, when to
complain, how long to back off — and this module owns the I/O around
it: it joins through the server's hello protocol, keeps the control
connection, and dials one upstream *data* connection per assigned
thread.  Both ends of every data connection — what it is sent by its
parents, the reports it owes them, the mixtures it fans out to the
children that dial it — are its :class:`~repro.net.streams.PumpSet`'s,
run against the node's :class:`~repro.dataplane.RelayEngine`.

Robustness model, mirroring §3/§5 on a real event loop:

* an upstream connection that drops or falls silent for
  ``silence_timeout`` raises an
  :class:`~repro.protocol.events.UpstreamDown` event; the engine
  decides whether that deserves a ``ComplaintMsg`` (once per silence
  episode) and how long the redial should back off;
* a ``SetParent`` push from the server (repair, uniform-insert splice,
  or graceful leave upstream) re-clips the thread through the engine's
  ``Clip`` effect: the old upstream task is cancelled and a new one
  dials the new parent — the live Lemma 1 repair;
* losing the *server* stops membership repair but not the data plane:
  established peer connections keep streaming (the §6 observation that
  swarms outlive the server).
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from numpy.random import default_rng

from ..coding.generation import GenerationParams
from ..coding.recoder import Recoder
from ..core.matrix import SERVER
from ..dataplane import RelayEngine
from ..obs import (
    DataplaneInstruments,
    FlightRecorder,
    PeerEngineInstruments,
    Registry,
    bind_fields,
    snapshot_obj,
)
from ..protocol import (
    Backoff,
    Clip,
    ComplaintMsg,
    JoinGrant,
    JoinRequest,
    LeaveRequest,
    MessageReceived,
    PeerEngine,
    Send,
    ServerLost,
    StopThread,
    UpstreamDown,
)
from .control import DataHello, PeerLocator, SessionInfo
from .framing import (
    FramingError,
    MessageStream,
    first_message,
    send_control,
    write_control_nowait,
)
from .streams import PumpSet
from .transport import AsyncioTransport, ByteStreamWriter, Listener, Transport

__all__ = ["PeerNode", "PeerStats"]

#: ``forward_policy`` spellings -> whether an arrival that raised no rank
#: is fanned out too (``RelayEngine(forward_dependent=...)``).
FORWARD_POLICIES = {"eager": True, "innovative": False}


@dataclass
class PeerStats:
    """Per-peer transport counters the harnesses and the CLI report.
    Every engine fact is counted once, by the instruments:
    ``node.engine.obs`` and ``node.dataplane.obs``.  ``upstream_fills``
    counts the reads the upstream connections parked on, so
    ``(packets_in + keepalives_seen) / upstream_fills`` is frames per
    received segment."""

    reconnects: int = 0
    keepalives_seen: int = 0
    crc_failures: int = 0
    upstream_fills: int = 0


class PeerNode:
    """One live peer of the curtain-rod overlay.

    Args:
        server_host, server_port: The coordination server.
        host: Address to listen on for child data connections.
        seed: Seeds this peer's coding randomness.
        queue_limit: Bound of each child's outbound queue.
        keepalive_interval: Idle keep-alive period toward children.
        silence_timeout: Upstream silence treated as a dead thread.
        reconnect_base, reconnect_max: Exponential backoff bounds for
            upstream redials.
        on_complete: Callback invoked once, when every generation
            decodes.
        transport: Network + clock seam (real asyncio TCP by default;
            the chaos harness injects a virtual network).
        forward_policy: ``"eager"`` (default) recodes toward every
            child on *every* upstream arrival.  ``"innovative"`` fans
            out only when the arrival raised our rank, bounding total
            forwards per node at ``rank x children`` — what the swarm
            harness runs.  Either way each child is sent only what it
            lacks, so neither floods: each is the faster one on some
            workload (DESIGN.md §5).
        seed_burst: Packets recoded toward a child immediately when it
            attaches: at least one (the default).  Swarm runs set it to
            the generation size so a repaired child recovers from the
            burst instead of waiting on upstream innovation.
    """

    def __init__(
        self,
        server_host: str,
        server_port: int,
        *,
        host: str = "127.0.0.1",
        seed: int = 0,
        queue_limit: int = 32,
        keepalive_interval: float = 0.25,
        silence_timeout: float = 1.0,
        reconnect_base: float = 0.05,
        reconnect_max: float = 2.0,
        on_complete: Optional[Callable[["PeerNode"], None]] = None,
        transport: Optional[Transport] = None,
        forward_policy: str = "eager",
        seed_burst: int = 1,
    ) -> None:
        if seed_burst < 1:
            raise ValueError("seed_burst must be >= 1")
        if forward_policy not in FORWARD_POLICIES:
            raise ValueError(
                f"unknown forward_policy {forward_policy!r} (expected one "
                f"of {', '.join(FORWARD_POLICIES)})")
        #: The data-plane engine short of its recoder, which waits for
        #: the grant's geometry.
        self._relay = partial(
            RelayEngine, forward_dependent=FORWARD_POLICIES[forward_policy],
            seed_burst=seed_burst,
        )
        self.transport: Transport = (
            transport if transport is not None else AsyncioTransport()
        )
        self.clock = self.transport.clock
        self.server_host = server_host
        self.server_port = server_port
        self.host = host
        self.port = 0
        self.engine = PeerEngine(
            None,
            reconnect_base=reconnect_base,
            reconnect_max=reconnect_max,
        )
        self.silence_timeout = silence_timeout
        self.on_complete = on_complete
        self.stats = PeerStats()
        #: The sans-IO data-plane core (created with its recoder once
        #: the join grant fixes the coding geometry).
        self.dataplane: Optional[RelayEngine] = None
        self.session: Optional[SessionInfo] = None
        self._rng = default_rng(seed)
        #: node id -> (host, port): the server, then whatever
        #: PeerLocator pushes teach us
        self._addresses: dict[int, tuple[str, int]] = {
            SERVER: (server_host, server_port)}
        self._thread_tasks: dict[int, asyncio.Task] = {}
        self._listener: Optional[Listener] = None
        self._control_writer: Optional[ByteStreamWriter] = None
        self._control_task: Optional[asyncio.Task] = None
        self._running = False
        self.log = logging.getLogger("repro.net.peer")
        #: Per-node telemetry; renamed to ``peer:<node_id>`` once the
        #: grant assigns us an id.  Everything is snapshot-on-read.
        self.registry = Registry("peer")
        #: Both ends of every data connection: one pump per (child id,
        #: column) dialed in, and each thread's dial to its parent.
        self.pumps = PumpSet(
            self.registry, limit=queue_limit,
            keepalive_interval=keepalive_interval, clock=self.clock,
            logger=self.log,
        )
        #: Retired-pump totals first, then one entry per live child pump.
        self.sender_stats = self.pumps.stats
        PeerEngineInstruments(self.registry).attach(self.engine, self.registry)
        self.engine.flight = FlightRecorder()
        bind_fields(
            self.registry, self.stats,
            ("reconnects", "keepalives_seen", "crc_failures",
             "upstream_fills"),
            "net", "live PeerStats counter",
        )
        self.registry.gauge(
            "net.needed", "degrees of freedom for a full decode",
            fn=lambda: self.needed,
        )

    def snapshot(self) -> dict:
        """This node's registries as a versioned snapshot object."""
        return snapshot_obj(self.registry)

    @property
    def node_id(self) -> Optional[int]:
        """Server-assigned id (known once the grant arrives)."""
        return self.engine.node_id

    @property
    def parents(self) -> dict[int, int]:
        """column -> upstream node id (SERVER for the chain top)."""
        return self.engine.parents

    @property
    def server_lost(self) -> bool:
        """The control connection died: no more membership repair."""
        return self.engine.server_lost

    # ------------------------------------------------------------------
    # Lifecycle

    async def start(self) -> None:
        """Listen, join through the server, and clip every thread."""
        self._listener = await self.transport.start_server(
            self._handle_child, self.host, 0
        )
        self.port = self._listener.address[1]
        self._running = True
        try:
            reader, writer = await self.transport.connect(
                self.server_host, self.server_port
            )
            self._control_writer = writer
            await send_control(writer, JoinRequest(reply_to=self.port))
            # One stream for admission and the control loop after it:
            # whatever arrived in the grant's segment stays buffered.
            stream = MessageStream(reader)
            grant = await self._await_grant(stream)
        except BaseException:
            # Never admitted: release the listener and the control
            # connection rather than leave them bound behind a peer
            # that is not running.
            self.kill()
            raise
        self.engine.node_id = grant.node_id
        self.log = self.pumps.logger = logging.getLogger(
            f"repro.net.peer.{grant.node_id}")
        self.pumps.origin = grant.node_id
        self.pumps.k = self.session.k
        self.pumps.generation_size = self.session.generation_size
        self.registry.name = f"peer:{grant.node_id}"
        self.log.info(
            "joined as node %d with threads %s",
            grant.node_id, [column for column, _ in grant.assignments],
        )
        self.dataplane = self._relay(Recoder(
            GenerationParams(self.session.generation_size,
                             self.session.payload_size),
            self.session.generation_count,
            self._rng,
            node_id=grant.node_id,
        ))
        self.pumps.engine = self.dataplane
        DataplaneInstruments(self.registry).attach(
            self.dataplane, self.registry
        )
        self._control_task = asyncio.ensure_future(self._control_loop(stream))
        self._dispatch_control(grant)

    async def _await_grant(self, stream: MessageStream) -> JoinGrant:
        """Consume the admission sequence: SessionInfo, locators, grant."""
        while True:
            message = await stream.next()
            if message is None:
                raise ConnectionError("server closed during admission")
            if isinstance(message, SessionInfo):
                self.session = message
            elif isinstance(message, PeerLocator):
                self._addresses[message.node_id] = (message.host, message.port)
            elif isinstance(message, JoinGrant):
                if self.session is None:
                    raise FramingError("grant arrived before session info")
                return message

    async def leave(self) -> None:
        """Graceful good-bye, then tear everything down."""
        if self._control_writer is not None and not self.server_lost:
            try:
                await send_control(
                    self._control_writer,
                    LeaveRequest(node_id=self.node_id),
                )
            except (ConnectionError, OSError):
                pass
        await self.close()

    async def close(self) -> None:
        """Stop all tasks and close all transports (no good-bye), then
        wait for them to finish."""
        pending = list(self._thread_tasks.values())
        if self._control_task is not None:
            pending.append(self._control_task)
        self.kill()
        if self._listener is not None:
            await self._listener.wait_closed()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    def kill(self) -> None:
        """Abrupt, silent death — the failure the repair protocol exists
        for.  Closes every transport without a good-bye or any awaiting."""
        self._running = False
        for task in list(self._thread_tasks.values()):
            task.cancel()
        self._thread_tasks.clear()
        if self._control_task is not None:
            self._control_task.cancel()
        self.pumps.close()
        if self._control_writer is not None:
            self._control_writer.close()
        if self._listener is not None:
            self._listener.close()

    # ------------------------------------------------------------------
    # Introspection

    @property
    def rank(self) -> int:
        """Degrees of freedom collected so far."""
        return self.dataplane.rank if self.dataplane else 0

    @property
    def needed(self) -> int:
        """Degrees of freedom required for a full decode."""
        return self.dataplane.needed if self.dataplane else 0

    @property
    def completed(self) -> bool:
        """Every generation decoded."""
        return self.dataplane is not None and self.dataplane.completed

    def recovered_content(self) -> bytes:
        """The decoded bytes; requires completeness."""
        if not self.completed:
            raise RuntimeError("content not fully decoded yet")
        return self.dataplane.recoder.decoder.recover(
            self.session.content_length)

    # ------------------------------------------------------------------
    # Control plane: pump the engine

    async def _control_loop(self, stream: MessageStream) -> None:
        try:
            while self._running:
                message = await stream.next()
                if message is None:
                    break
                self._dispatch_control(message)
        except (FramingError, ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            return
        # The server is gone.  Keep the data plane alive (§6): existing
        # upstream connections and children continue, but there is no
        # more membership repair.
        self.log.info("server lost; data plane continues without repair")
        self.engine.handle(ServerLost())

    def _dispatch_control(self, message: object) -> None:
        if isinstance(message, PeerLocator):
            self._addresses[message.node_id] = (message.host, message.port)
            return
        self._perform(self.engine.handle(MessageReceived(message)))

    def _perform(self, effects) -> Optional[float]:
        """Carry out the control engine's effects.  A ``Backoff`` is the
        one it cannot perform here: its delay is returned to the thread
        loop, the only caller that sleeps on it."""
        delay: Optional[float] = None
        for effect in effects:
            if isinstance(effect, Send):
                self._write_control(effect.message)
            elif isinstance(effect, (Clip, StopThread)):
                # A stopped thread has no parent left to restart toward.
                self._restart_thread(effect.column)
            elif isinstance(effect, Backoff):
                delay = effect.delay
        return delay

    def _write_control(self, message: object) -> None:
        if self._control_writer is None:
            return
        if isinstance(message, ComplaintMsg):
            self.log.info(
                "complaining about node %d on column %d",
                message.suspect, message.column,
            )
        try:
            write_control_nowait(self._control_writer, message)
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------
    # Data connections: dial each thread's parent, accept children

    def _restart_thread(self, column: int) -> None:
        """(Re)start the upstream pump for one thread."""
        old = self._thread_tasks.pop(column, None)
        if old is not None:
            old.cancel()
        if not self._running or column not in self.parents:
            return
        self.log.debug(
            "column %d: clipping to parent %d", column, self.parents[column],
        )
        self._thread_tasks[column] = asyncio.ensure_future(
            self._thread_loop(column)
        )

    async def _thread_loop(self, column: int) -> None:
        """Dial the current parent of ``column`` and hand the connection
        to ``pumps.consume``, reconnecting with exponential backoff for
        as long as we hold the thread.  The engine judges every session
        end: a healthy one redials immediately, a silent one complains
        (at most once per episode) and backs off."""
        notify = None if self.on_complete is None else partial(
            self.on_complete, self)
        while self._running and column in self.parents:
            parent = self.parents[column]
            address = self._addresses.get(parent)
            saw_traffic = False
            if address is not None:
                try:
                    reader, writer = await self.transport.connect(*address)
                except (ConnectionError, OSError):
                    pass
                else:
                    saw_traffic = await self.pumps.consume(
                        column, reader, writer, self.silence_timeout,
                        self.stats, notify)
            delay = self._perform(self.engine.handle(UpstreamDown(
                column=column, parent=parent, saw_traffic=saw_traffic,
            )))
            if delay is None:
                continue  # healthy session: redial immediately
            self.log.debug(
                "column %d: redialing parent %d after %.3fs backoff",
                column, self.parents.get(column, parent), delay,
            )
            try:
                await self.clock.sleep(delay)
            except asyncio.CancelledError:
                return
            self.stats.reconnects += 1

    async def _handle_child(
        self, reader, writer: ByteStreamWriter
    ) -> None:
        # One stream for the hello and the reports behind it: whatever
        # arrived in the hello's segment stays buffered.  A dialler
        # gets one silence window to finish its first frame.
        stream = MessageStream(reader)
        hello = await first_message(
            stream, writer, self.clock, self.silence_timeout)
        if not isinstance(hello, DataHello) or not self._running:
            writer.close()
            return
        await self.pumps.serve(
            (hello.node_id, hello.column), stream, writer, hello.column)
