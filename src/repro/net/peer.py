"""A live peer: clip, recode, forward — over real sockets.

:class:`PeerNode` is the live-transport driver of the sans-IO
:class:`~repro.protocol.peer_engine.PeerEngine`.  The engine owns every
peer-side protocol decision — which parent feeds which column, when to
complain, how long to back off — and this module owns the I/O around
it: it joins through the server's hello protocol, keeps the control
connection, and dials one upstream *data* connection per assigned
thread.  Every connection is a :class:`~repro.net.framing.Connection`
fed by its transport's ``data_received``: the control connection's
handler is this node's, an accepted one's first frame picks its own,
and no node holds a task: a held thread is its upstream connection,
whose end is a callback, or the one redial timer its backoff armed.
Both ends of every data connection — what it is sent by its
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
  ``Clip`` effect: the old thread's timer or pending dial is cancelled
  and its connection closed, and a new one dials the new parent — the
  live Lemma 1 repair;
* losing the *server* stops membership repair but not the data plane:
  established peer connections keep streaming (the §6 observation that
  swarms outlive the server).
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass, fields
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
    Callbacks,
    Connection,
    FirstFrame,
    FramingError,
    write_control_nowait,
)
from .streams import PumpSet
from .transport import AsyncioTransport, Listener, Transport

__all__ = ["PeerNode", "PeerStats"]

#: ``forward_policy`` spellings -> whether an arrival that raised no rank
#: is fanned out too (``RelayEngine(forward_dependent=...)``).
FORWARD_POLICIES = {"eager": True, "innovative": False}


@dataclass
class PeerStats:
    """Per-peer transport counters the harnesses and the CLI report.
    Every engine fact is counted once, by the instruments:
    ``node.engine.obs`` and ``node.dataplane.obs``.  ``upstream_fills``
    counts the segments the upstream connections delivered a complete
    message in, so ``(packets_in + keepalives_seen) / upstream_fills``
    is frames per received segment."""

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
            seed_burst=seed_burst)
        self.transport: Transport = transport or AsyncioTransport()
        self.clock = self.transport.clock
        self.host = host
        self.port = 0
        self.engine = PeerEngine(
            reconnect_base=reconnect_base, reconnect_max=reconnect_max)
        self.silence_timeout = silence_timeout
        #: Told (with this node) once every generation decodes.
        self._on_complete = (
            None if on_complete is None else partial(on_complete, self))
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
        #: column -> the held thread: its upstream link and the task
        #: dialing it (done once connected), or (None, the redial timer
        #: its backoff armed)
        self._threads: dict[int, tuple] = {}
        self._listener: Optional[Listener] = None
        #: The control connection to the server, and the grant it
        #: resolves (or fails) during admission.
        self._control: Optional[Connection] = None
        self._granted: Optional[asyncio.Future] = None
        self._running = False
        self.log = logging.getLogger("repro.net.peer")
        #: Per-node telemetry; renamed to ``peer:<node_id>`` once the
        #: grant assigns us an id.  Everything is snapshot-on-read.
        self.registry = Registry("peer")
        self.registry.owners.append(self)
        #: Both ends of every data connection: one pump per (child id,
        #: column) dialed in, and each thread's dial to its parent.
        self.pumps = PumpSet(
            self.registry, limit=queue_limit, logger=self.log,
            keepalive_interval=keepalive_interval, clock=self.clock)
        #: Retired-pump totals first, then one entry per live child pump.
        self.sender_stats = self.pumps.stats
        PeerEngineInstruments(self.engine, self.registry)
        self.engine.flight = FlightRecorder()

    def snapshot(self) -> dict:
        """This node's registries as a versioned snapshot object."""
        return snapshot_obj(self.registry)

    def snapshot_into(self, counters: dict, gauges: dict,
                      histograms: dict) -> None:
        """The registry's read of this node: each :class:`PeerStats`
        count as ``net.<field>``, and ``net.needed``."""
        for field in fields(PeerStats):
            gauges[f"net.{field.name}"] = getattr(self.stats, field.name)
        gauges["net.needed"] = self.needed

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
            lambda: Connection(FirstFrame(
                self._child, self.clock, self.silence_timeout)),
            self.host, 0)
        self.port = self._listener.address[1]
        self._running = True
        self._granted = asyncio.get_running_loop().create_future()
        control = self._control = Connection(Callbacks(
            self._control_message, self._control_closed))
        try:
            await self.transport.connect(
                lambda: control, *self._addresses[SERVER])
            write_control_nowait(
                control.transport, JoinRequest(reply_to=self.port))
            await self._granted
        except BaseException:
            # Never admitted: release the listener and the control
            # connection rather than leave them bound behind a peer
            # that is not running.
            self._granted.cancel()
            self.kill()
            raise

    def _admit(self, grant: JoinGrant) -> None:
        """The grant is in: become its node, and clip its threads —
        before any message behind it in the same segment is read."""
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
        DataplaneInstruments(self.dataplane, self.registry)
        self._perform(self.engine.handle(MessageReceived(grant)))
        self._granted.set_result(grant)

    async def leave(self) -> None:
        """Graceful good-bye, then tear everything down."""
        if self._control is not None and not self.server_lost:
            self._write_control(LeaveRequest(node_id=self.node_id))
        await self.close()

    async def close(self) -> None:
        """Close every connection and cancel every timer (no good-bye),
        then wait for the listener to close."""
        self.kill()
        if self._listener is not None:
            await self._listener.wait_closed()

    def kill(self) -> None:
        """Abrupt, silent death — the failure the repair protocol exists
        for.  Closes every transport without a good-bye or any awaiting."""
        self._running = False
        for column in list(self._threads):
            self._restart_thread(column)
        self.pumps.close()
        if self._control is not None:
            self._control.close()
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

    def _control_message(self, message: object) -> None:
        """A message from the server: a locator goes in the address
        book; anything else is admission (session, grant) until the
        grant, the engine's after it."""
        if isinstance(message, PeerLocator):
            self._addresses[message.node_id] = (message.host, message.port)
        elif self.engine.node_id is not None:
            self._perform(self.engine.handle(MessageReceived(message)))
        elif isinstance(message, SessionInfo):
            self.session = message
        elif isinstance(message, JoinGrant):
            if self.session is None:
                raise FramingError("grant arrived before session info")
            self._admit(message)

    def _control_closed(self, error: Optional[BaseException]) -> None:
        granted = self._granted
        if granted is not None and not granted.done():
            granted.set_exception(error or ConnectionError(
                "server closed during admission"))
            return
        if not self._running:
            return
        # The server is gone.  Keep the data plane alive (§6): existing
        # upstream connections and children continue, but there is no
        # more membership repair.
        self.log.info("server lost; data plane continues without repair")
        self.engine.handle(ServerLost())

    def _perform(self, effects) -> None:
        """Carry out the control engine's effects; a ``Backoff`` arms
        its thread's redial timer."""
        for effect in effects:
            if isinstance(effect, Send):
                self._write_control(effect.message)
            elif isinstance(effect, (Clip, StopThread)):
                # A stopped thread has no parent left to restart toward.
                self._restart_thread(effect.column)
            elif isinstance(effect, Backoff):
                self.log.debug("column %d: redialing after %.3fs backoff",
                               effect.column, effect.delay)
                self._threads[effect.column] = (None, self.clock.call_at(
                    self.clock.time() + effect.delay,
                    partial(self._redial, effect.column)))

    def _write_control(self, message: object) -> None:
        if self._control is None or self._control.closed:
            return
        if isinstance(message, ComplaintMsg):
            self.log.info(
                "complaining about node %d on column %d",
                message.suspect, message.column,
            )
        write_control_nowait(self._control.transport, message)

    # ------------------------------------------------------------------
    # Data connections: dial each thread's parent, accept children

    def _restart_thread(self, column: int) -> None:
        """(Re)start one thread.  Its entry goes first — so closing its
        link reports nothing — then its timer or pending dial is
        cancelled and its link closed, and a running node that still
        holds the column dials its parent."""
        link, pending = self._threads.pop(column, (None, None))
        if pending is not None:
            pending.cancel()
        if link is not None:
            link.close()
        self._dial(column)

    def _dial(self, column: int) -> None:
        """Dial the current parent of ``column`` on a connection from
        ``pumps.upstream``, for as long as we hold the thread; its end
        is :meth:`_thread_down`."""
        if not self._running or column not in self.parents:
            return
        parent = self.parents[column]
        self.log.debug("column %d: clipping to parent %d", column, parent)
        link = self.pumps.upstream(
            column, self.silence_timeout, self.stats, self._on_complete,
            partial(self._thread_down, column, parent))
        self._threads[column] = (link, asyncio.ensure_future(
            self._connect(link, parent)))

    async def _connect(self, link: Connection, parent: int) -> None:
        """A thread's pending dial: refused, or toward a parent whose
        address never came, it ends like a dropped connection."""
        try:
            if parent not in self._addresses:
                raise ConnectionError(f"no address for node {parent}")
            await self.transport.connect(
                lambda: link, *self._addresses[parent])
        except (ConnectionError, OSError) as error:
            link.close(error)

    def _thread_down(self, column: int, parent: int,
                     saw_traffic: bool) -> None:
        """``column``'s link ended.  Unless the thread was stopped
        first, the engine judges the session: a healthy one redials at
        once, a silent one complains (at most once per episode) and
        backs off."""
        if self._threads.pop(column, None) is None:
            return
        self._perform(self.engine.handle(UpstreamDown(
            column=column, parent=parent, saw_traffic=saw_traffic)))
        if column not in self._threads:
            self._dial(column)

    def _redial(self, column: int) -> None:
        """The backoff's timer fired: dial again."""
        self.stats.reconnects += 1
        self._restart_thread(column)

    def _child(self, connection: Connection, hello: object) -> None:
        """An accepted connection's first message: a child's hello is
        served, anything else is closed."""
        if isinstance(hello, DataHello) and self._running:
            self.pumps.serve(
                (hello.node_id, hello.column), connection, hello.column)
