"""The live drivers' inbound path: one ``MessageStream`` per connection.

Peer- and server-level behaviour that rides on it — silence measured
between complete messages, a whole flush drained per wake-up, the
reports a child owes its parents and the allowance they grant it, no byte
lost between an admission sequence (or a data hello) and the loop
after it, a bounded wait for a dialler's first frame — plus the
bounded per-connection state of the outbound pumps under churn, and
what a child can and cannot do with the completed-set reports it
writes on its data connection.
"""

import asyncio
import logging

import numpy as np
import pytest

from repro.coding import CodedPacket
from repro.coding.generation import GenerationParams
from repro.coding.recoder import Recoder
from repro.core.matrix import SERVER
from repro.dataplane import (
    ChildAttached,
    ChildCompleted,
    ChildDetached,
    EmitToChildren,
    PacketArrived,
    RelayEngine,
)
from repro.net import MessageStream, PeerNode, ServerNode
from repro.net.control import (
    MAX_COMPLETE_WINDOW,
    DataHello,
    GenerationsComplete,
    PeerLocator,
    SessionInfo,
    encode_control,
)
from repro.net.framing import (
    KIND_CONTROL,
    READ_CHUNK_BYTES,
    FramingError,
    encode_data_frame,
    encode_frame,
)
from repro.net.peer import PeerStats
from repro.net.streams import ChildReports, SenderStats
from repro.net.testing import (
    ChaosConfig,
    ChaosHarness,
    VirtualNetwork,
    run_scenario_sync,
)
from repro.protocol import (
    ComplaintMsg,
    JoinGrant,
    JoinRequest,
    KeepAlive,
    LeaveRequest,
    SetParent,
    UpstreamDown,
)
from repro.protocol.trace import EngineLog

from tests.test_net_framing import _CollectingWriter
from tests.test_net_pumps import RecordingEngine, _pump_set, _Reader, _serving

PARAMS = GenerationParams(3, 10)
PORT = 4000


def _packet(generation=0):
    return CodedPacket(
        generation=generation,
        coefficients=np.array([1, 2, 3], dtype=np.uint8),
        payload=np.arange(10, dtype=np.uint8),
        origin=5,
    )


def _control(*messages) -> bytes:
    return b"".join(
        encode_frame(KIND_CONTROL, encode_control(m)) for m in messages
    )


class _ControlSink:
    """Stands in for the control connection: collects what is written."""

    def __init__(self):
        self.written = bytearray()

    def write(self, data):
        self.written += data

    def close(self):
        pass


def _basis(generation):
    """Three packets that complete ``generation`` at g = 3."""
    return [
        CodedPacket(
            generation=generation,
            coefficients=np.eye(3, dtype=np.uint8)[row],
            payload=np.arange(10, dtype=np.uint8),
            origin=5,
        )
        for row in range(3)
    ]


def _as_granted(peer: PeerNode, session: SessionInfo) -> RelayEngine:
    """Leave on ``peer`` what its grant would, as node 9: the session,
    and the relay engine its pumps run both ends against."""
    peer.session = session
    peer.dataplane = peer.pumps.engine = peer._relay(Recoder(
        PARAMS, session.generation_count, np.random.default_rng(0),
        node_id=9))
    peer.pumps.origin = 9
    peer.pumps.k = session.k
    peer.pumps.generation_size = session.generation_size
    return peer.dataplane


def _child_of(net, *listeners, generations=1, **kwargs) -> PeerNode:
    """A peer already holding column ``c`` under parent ``5 + c`` at
    ``listeners[c]`` — the state a grant would leave, without a
    server."""
    peer = PeerNode("server", 1, transport=net.transport("peer"), **kwargs)
    peer.engine.node_id = 9
    k = len(listeners)
    _as_granted(peer, SessionInfo(
        3, 10, generations, 30 * generations, k=k, d=k))
    for column, listener in enumerate(listeners):
        peer.parents[column] = 5 + column
        peer._addresses[5 + column] = listener.address
    peer._running = True
    return peer


async def _admitted(net, server: ServerNode, address):
    """Join ``server`` at ``address`` on a hand-dialed control
    connection; return the id the matrix has at the top of column 0
    (a server column is served to that node only) and the connection,
    which must stay open: closing it is a crash."""
    _, control = await net.open_connection("child", *address)
    control.write(_control(JoinRequest(reply_to=9)))
    await net.clock.advance(0.05)
    return server.core.matrix.column_chain(0)[0], control


def at(when):
    """A virtual time, up to float rounding of the sums that reach it."""
    return pytest.approx(when, abs=1e-9)


def _timed(clock, handle, log):
    """``handle``, logging each event with the time it arrived."""

    def timed(event):
        log.append((clock.time(), event))
        return handle(event)

    return timed


class TestSilenceBetweenMessages:
    """Silence runs from the last complete message: the thread is down
    exactly ``silence_timeout`` after it."""

    silence = 1.0

    def _run(self, script, until):
        """A child below a parent that reads the hello, then plays
        ``script(clock, writer)`` on its first connection only and
        holds it open; what the engine heard, when, and the control
        bytes the child wrote."""

        async def scenario():
            net = VirtualNetwork()
            dials = []

            async def parent(reader, writer):
                await MessageStream(reader).next()  # the child's DataHello
                dials.append(writer)
                if len(dials) == 1:
                    await script(net.clock, writer)

            listener = net.bind("parent", 0, parent)
            peer = _child_of(net, listener, silence_timeout=self.silence)
            sink = peer._control_writer = _ControlSink()
            heard = []
            peer.engine.handle = _timed(net.clock, peer.engine.handle, heard)
            task = asyncio.ensure_future(peer._thread_loop(0))
            await net.clock.advance(until)
            task.cancel()
            await net.shutdown()
            return (heard, peer.engine.obs.complaints_sent.value,
                    bytes(sink.written))

        return asyncio.run(scenario())

    def test_parent_trickling_an_unfinished_frame_is_still_silent(self):
        """Bytes are not traffic: half a frame, then one byte every
        ``silence_timeout / 2``, never completes a message — the session
        ends ``silence_timeout`` after it began, with a complaint."""
        frame = encode_data_frame(_packet())

        async def script(clock, writer):
            half = len(frame) // 2
            writer.write(frame[:half])
            for byte in frame[half:-1]:
                await clock.sleep(self.silence / 2)
                writer.write(bytes([byte]))

        heard, complaints, written = self._run(script, self.silence + 0.01)
        assert heard == [(at(self.silence), UpstreamDown(
            column=0, parent=5, saw_traffic=False))]
        assert complaints == 1
        assert written == _control(
            ComplaintMsg(reporter=9, column=0, suspect=5))

    def test_parent_gone_silent_is_down_at_its_last_message_plus_the_timeout(
            self):
        async def script(clock, writer):
            for gap in (0.1, 0.25):
                await clock.sleep(gap)
                writer.write(_control(KeepAlive(column=0, sender=5)))

        heard, complaints, _ = self._run(script, 0.35 + self.silence + 0.01)
        assert heard == [(at(0.35 + self.silence), UpstreamDown(
            column=0, parent=5, saw_traffic=True))]
        assert complaints == 0  # a session that heard traffic redials


class TestBatchedDrain:
    def test_one_flush_is_drained_in_one_wakeup(self, monkeypatch):
        """Five frames flushed in one ``writelines`` arrive at the
        engine ``PumpSet.consume`` runs against as five
        ``PacketArrived`` in order from a single ``fill()``; the reader
        parks once, on the ``fill()`` after it."""
        fills = []
        fill = MessageStream.fill

        async def counted(self):
            fills.append(None)
            return await fill(self)

        monkeypatch.setattr(MessageStream, "fill", counted)

        async def scenario():
            net = VirtualNetwork()

            async def parent(reader, writer):
                # (No read of the child's hello: every fill() counted
                # below is the peer's.)
                writer.writelines(
                    [encode_data_frame(_packet(g)) for g in range(5)])

            listener = net.bind("parent", 0, parent)
            engine = RelayEngine(Recoder(
                PARAMS, 5, np.random.default_rng(0), node_id=9))
            log = engine.log = EngineLog()
            pumps = _pump_set(engine, clock=net.clock)
            reader, writer = await net.open_connection(
                "peer", *listener.address)
            task = asyncio.ensure_future(
                pumps.consume(0, reader, writer, 1.0, PeerStats()))
            await net.clock.advance(0.1)
            parked = not task.done()
            task.cancel()
            await net.shutdown()
            return log.events, parked

        events, parked = asyncio.run(scenario())
        assert all(isinstance(e, PacketArrived) for e in events)
        assert [e.packet.generation for e in events] == [0, 1, 2, 3, 4]
        assert parked
        assert len(fills) == 2


class TestChildReportRules:
    """The child's half of the completion-report contract, as its
    parents read it: a report with the hello, one per drain that
    completed a generation (to every open parent), and one to a parent
    that has sent a generation's worth of packets the child held."""

    def _run(self, script, *, parents=1, generations=2, held=()):
        """Clip a child holding ``held`` below ``parents`` parents:
        parent ``c`` (host ``parent<c>``) records what it reads, with
        the time, while it plays ``script(c, clock, writer)``.  Returns
        the inboxes, the peer and the network's trace."""

        async def scenario():
            net = VirtualNetwork()
            inboxes = [[] for _ in range(parents)]

            async def read(stream, inbox):
                while (message := await stream.next()) is not None:
                    inbox.append((net.clock.time(), message))

            def parent(column):
                async def handler(reader, writer):
                    reading = asyncio.ensure_future(
                        read(MessageStream(reader), inboxes[column]))
                    try:
                        await script(column, net.clock, writer)
                        await reading
                    finally:
                        reading.cancel()

                return net.bind(f"parent{column}", 0, handler)

            peer = _child_of(
                net, *(parent(c) for c in range(parents)),
                generations=generations)
            for generation in held:
                for packet in _basis(generation):
                    peer.dataplane.handle(PacketArrived(packet))
            tasks = [asyncio.ensure_future(peer._thread_loop(c))
                     for c in range(parents)]
            await net.clock.advance(0.2)
            for task in tasks:
                task.cancel()
            await net.shutdown()
            return inboxes, peer, net.trace

        return asyncio.run(scenario())

    @staticmethod
    async def _quiet(column, clock, writer):
        pass

    @staticmethod
    def _reports(inbox) -> list:
        return [(when, m) for when, m in inbox
                if isinstance(m, GenerationsComplete)]

    def test_hello_and_completed_set_are_one_write_charged_to_the_node(
            self):
        inboxes, peer, trace = self._run(self._quiet, held=(0,))
        hello = _control(DataHello(node_id=9, column=0))
        report = _control(GenerationsComplete(1))
        assert [m for _, m in inboxes[0]] == [
            DataHello(node_id=9, column=0), GenerationsComplete(1)]
        assert [entry[4] for entry in trace if entry[1:4] == (
            "deliver", "peer", "parent0")] == [len(hello) + len(report)]
        assert peer.sender_stats[0].bytes_sent == len(report)

    def test_drain_that_completes_generations_reports_once_to_every_parent(
            self):
        """Two generations completed by one flush on column 0: after
        that drain, one report — the new set — to each open parent."""

        async def script(column, clock, writer):
            if column == 0:
                await clock.sleep(0.05)
                writer.writelines([
                    encode_data_frame(p) for p in _basis(0) + _basis(1)])

        inboxes, peer, _ = self._run(script, parents=2, generations=3)
        for inbox in inboxes:
            assert self._reports(inbox) == [
                (0.0, GenerationsComplete(0)),
                (at(0.05), GenerationsComplete(2))]
        report = len(_control(GenerationsComplete(0)))
        assert peer.sender_stats[0].bytes_sent == 4 * report

    def test_a_generation_of_stale_packets_re_reports_to_that_parent_only(
            self):
        """Packets of a generation the child holds are counted per
        connection; the ``generation_size``-th sends the report again
        to the parent that sent them, and to no one else."""

        async def script(column, clock, writer):
            if column == 0:
                stale = [encode_data_frame(p) for p in _basis(0)]
                await clock.sleep(0.05)
                writer.writelines(stale[:2])
                await clock.sleep(0.05)
                writer.write(stale[2])

        inboxes, _, _ = self._run(script, parents=2, held=(0,))
        assert self._reports(inboxes[0]) == [
            (0.0, GenerationsComplete(1)), (at(0.1), GenerationsComplete(1))]
        assert self._reports(inboxes[1]) == [(0.0, GenerationsComplete(1))]

    def test_no_honest_child_exceeds_its_parents_flood_allowance(
            self, caplog):
        """The parent's half: under loss and a crash, every report an
        honest child sends fits the allowance its parent grants."""
        caplog.set_level(logging.INFO, logger="repro.net")
        for seed in range(10):
            assert run_scenario_sync("lossy_crash_multigen", seed=seed).ok
        assert not [r for r in caplog.records
                    if "an honest child sends at most" in r.getMessage()]


class TestOneStreamPerConnection:
    def test_peer_dispatches_what_arrived_with_the_grant(self):
        """The admission frames, the grant and the first ``SetParent``
        in one segment: the control loop must see the ``SetParent`` that
        ``_await_grant`` left buffered."""
        admission = _control(
            SessionInfo(generation_size=3, payload_size=10,
                        generation_count=1, content_length=30, k=2, d=1),
            JoinGrant(node_id=7, assignments=((0, SERVER),)),
            PeerLocator(node_id=3, host="elsewhere", port=9),
            SetParent(column=0, parent=3),
        )

        async def scenario():
            net = VirtualNetwork()

            async def server(reader, writer):
                first = await MessageStream(reader).next()
                if isinstance(first, JoinRequest):
                    writer.write(admission)
                else:
                    writer.close()  # the data dial toward SERVER

            net.bind("server", PORT, server)
            peer = PeerNode("server", PORT, transport=net.transport("peer"))
            await peer.start()
            await net.clock.advance(0.01)
            state = peer.node_id, dict(peer.parents), dict(peer._addresses)
            peer.kill()
            await net.shutdown()
            return state

        node_id, parents, addresses = asyncio.run(scenario())
        assert node_id == 7
        assert parents == {0: 3}
        assert addresses == {SERVER: ("server", PORT), 3: ("elsewhere", 9)}

    def test_server_dispatches_what_arrived_with_the_join(self):
        """A ``JoinRequest`` and the ``LeaveRequest`` behind it in one
        segment is a join then a good-bye, not a join then a crash."""

        async def scenario():
            net = VirtualNetwork()
            server = ServerNode(
                bytes(30), PARAMS, k=2, d=1, port=PORT,
                transport=net.transport("server"),
            )
            await server.start()
            _, writer = await net.open_connection("peer", "server", PORT)
            writer.write(_control(
                JoinRequest(reply_to=9), LeaveRequest(node_id=0)))
            await net.clock.advance(0.01)
            writer.close()
            await net.clock.advance(0.01)
            counts = server.engine.obs
            await server.stop()
            await net.shutdown()
            return (counts.joins.value, counts.leaves.value,
                    server.stats.crashes)

        assert asyncio.run(scenario()) == (1, 1, 0)


class TestBoundedPumpState:
    def test_retiring_folds_by_identity_not_by_value(self):
        """An idle pump's stats equal a fresh total's: retiring it must
        not remove the total (or another idle pump) in its place, and
        no sum over ``stats`` moves when a pump's counters fold into
        ``stats[0]``."""

        async def scenario():
            pumps = _pump_set()
            total = pumps.stats[0]
            _, idle_task = await _serving(pumps, "idle")
            _, busy_task = await _serving(pumps, "busy")
            idle, busy = pumps.get("idle").stats, pumps.get("busy").stats
            pumps.emit(EmitToChildren(
                ("busy",) * 3, packets=(_packet(),) * 3))
            await asyncio.sleep(0)
            assert idle == total == SenderStats() and busy.sent == 3
            before = (busy.sent, busy.bytes_sent, busy.flushes)

            def sums():
                return tuple(
                    sum(getattr(s, f) for s in pumps.stats)
                    for f in ("sent", "bytes_sent", "flushes")
                )

            pumps.get("idle").close()
            await idle_task
            assert [id(s) for s in pumps.stats] == [id(total), id(busy)]
            assert sums() == before
            pumps.get("busy").close()
            await busy_task
            assert pumps.stats == [SenderStats(
                enqueued=3, sent=3, bytes_sent=before[1], flushes=before[2])]
            assert pumps.stats[0] is total and sums() == before

        asyncio.run(scenario())

    def test_child_churn_leaves_sender_stats_and_registry_flat(self):
        """Soak in miniature: a column's child reconnecting over and
        over (under fresh ids) must not grow ``sender_stats`` or the
        registry on the peer or the server, while the sums over
        ``sender_stats`` keep counting what every pump ever sent."""

        async def scenario():
            net = VirtualNetwork()
            # More content than the run can deliver: a peer that had
            # finished would be sent nothing, and ``sent`` would stall.
            # The peer hangs below a server of its own: the churned one's
            # column 0 is re-taken by each fresh top node in turn.
            servers = [
                ServerNode(
                    bytes(30_000), PARAMS, k=1, d=1, port=PORT,
                    transport=net.transport(host),
                )
                for host in ("server", "upstream")
            ]
            for node in servers:
                await node.start()
            server = servers[0]
            peer = PeerNode("upstream", PORT, transport=net.transport("peer"))
            await peer.start()
            nodes = {
                "server": (server, ("server", PORT)),
                "peer": (peer, ("peer", peer.port)),
            }
            samples = {name: [] for name in nodes}
            for child in range(100, 112):
                for name, (node, address) in nodes.items():
                    node_id = child
                    if name == "server":
                        node_id, control = await _admitted(
                            net, server, address)
                    _, writer = await net.open_connection("child", *address)
                    writer.write(_control(
                        DataHello(node_id=node_id, column=0)))
                    await net.clock.advance(0.1)
                    writer.close()
                    if name == "server":
                        control.write(_control(
                            LeaveRequest(node_id=node_id)))
                    await net.clock.advance(0.1)
                    samples[name].append((
                        len(node.sender_stats),
                        len(node.registry),
                        sum(s.sent for s in node.sender_stats),
                        sum(s.bytes_sent for s in node.sender_stats),
                        node.snapshot()["registries"][node.registry.name]
                        ["gauges"]["net.sender.sent"],
                    ))
            await peer.close()
            for node in servers:
                await node.stop()
            await net.shutdown()
            return samples

        for name, rows in asyncio.run(scenario()).items():
            lengths, instruments, sent, sent_bytes, gauge = zip(*rows)
            assert len(set(lengths)) == 1, (name, lengths)
            assert len(set(instruments)) == 1, (name, instruments)
            assert list(sent) == sorted(set(sent)), (name, sent)
            assert list(sent_bytes) == sorted(set(sent_bytes)), name
            assert gauge == sent, name


# ----------------------------------------------------------------------
# The child's half of a data connection


def _collect(reader) -> tuple[list, asyncio.Task]:
    """Parse everything a hand-dialed connection is sent, as it comes."""
    inbox: list = []

    async def pump():
        stream = MessageStream(reader)
        while True:
            message = await stream.next()
            if message is None:
                inbox.append(None)  # the node closed the connection
                return
            inbox.append(message)

    return inbox, asyncio.ensure_future(pump())


def _generations(inbox) -> list[int]:
    return [m.generation for m in inbox if isinstance(m, CodedPacket)]


class TestFirstFrame:
    def test_report_in_the_hellos_segment_is_not_lost(self):
        """The hello and the completed set behind it arrive as one
        segment; the stream that parsed the hello must be the one the
        report is read from, or a redialing child is re-sent everything
        it holds (here: the attach burst names generation 0)."""

        async def scenario():
            net = VirtualNetwork()
            peer = PeerNode("server", 1, transport=net.transport("peer"),
                            seed_burst=4)
            relay = _as_granted(peer, SessionInfo(3, 10, 2, 60, k=1, d=1))
            for generation in (0, 1):
                relay.handle(PacketArrived(_packet(generation)))
            peer._running = True
            listener = net.bind("peer", 0, peer._handle_child)
            reader, writer = await net.open_connection(
                "child", *listener.address)
            inbox, task = _collect(reader)
            writer.write(_control(
                DataHello(node_id=4, column=0),
                GenerationsComplete(base=1)))
            await net.clock.advance(0.01)
            task.cancel()
            await net.shutdown()
            return _generations(inbox)

        assert asyncio.run(scenario()) == [1, 1, 1, 1]

    @pytest.mark.parametrize("node", ["peer", "server"])
    def test_unreported_child_is_served_in_order_until_it_reports(
            self, node):
        """A hello with no report behind it is a child that holds
        nothing: it is sent generation 0, and nothing else, until its
        report says it has that one — then it is sent generation 1."""

        async def scenario():
            net = VirtualNetwork()
            if node == "peer":
                peer = PeerNode("server", 1, transport=net.transport("node"),
                                keepalive_interval=0.05)
                relay = _as_granted(
                    peer, SessionInfo(3, 10, 2, 60, k=1, d=1))
                for generation in (0, 1):
                    relay.handle(PacketArrived(_packet(generation)))
                peer._running = True
                address = net.bind("node", 0, peer._handle_child).address
            else:
                server = ServerNode(
                    bytes(60), PARAMS, k=1, d=1, port=PORT,
                    send_interval=0.05, transport=net.transport("node"))
                await server.start()
                address = ("node", PORT)
            node_id = 4
            if node == "server":
                node_id, _ = await _admitted(net, server, address)
            reader, writer = await net.open_connection("child", *address)
            inbox, task = _collect(reader)
            writer.write(_control(DataHello(node_id=node_id, column=0)))
            await net.clock.advance(0.3)
            before = _generations(inbox)
            writer.write(_control(GenerationsComplete(base=1)))
            await net.clock.advance(0.3)
            after = _generations(inbox)[len(before):]
            task.cancel()
            if node == "server":
                await server.stop()
            await net.shutdown()
            return before, after

        before, after = asyncio.run(scenario())
        assert len(before) >= 3 and set(before) == {0}
        assert len(after) >= 3 and set(after) == {1}

    def test_child_dialing_before_the_grant_is_closed(self):
        """A peer with no grant yet has nothing to serve and no session
        to check the hello against: the dialler is closed at once, and
        its own thread loop redials."""

        async def scenario():
            net = VirtualNetwork()
            peer = PeerNode("server", 1, transport=net.transport("node"))
            peer._running = True
            address = net.bind("node", 0, peer._handle_child).address
            reader, writer = await net.open_connection("child", *address)
            inbox, task = _collect(reader)
            writer.write(_control(
                DataHello(node_id=4, column=0), GenerationsComplete(0)))
            await net.clock.advance(0.01)
            task.cancel()
            await net.shutdown()
            return inbox, len(peer.registry)

        inbox, instruments = asyncio.run(scenario())
        assert inbox == [None]
        assert instruments == len(PeerNode("server", 1).registry)

    @pytest.mark.parametrize("node", ["peer", "server"])
    def test_half_a_hello_is_closed_after_one_timeout(self, node):
        """A dialler that never finishes its first frame holds a task
        and a socket for one timeout (``silence_timeout`` at a peer,
        ``probe_timeout`` at the server) from its dial — at 0.3 here —
        not forever."""
        timeout = 0.5
        hello = _control(DataHello(node_id=4, column=0))

        async def scenario():
            net = VirtualNetwork()
            if node == "peer":
                peer = PeerNode(
                    "server", 1, transport=net.transport("node"),
                    silence_timeout=timeout)
                peer._running = True
                address = net.bind("node", 0, peer._handle_child).address
            else:
                server = ServerNode(
                    bytes(30), PARAMS, k=1, d=1, port=PORT,
                    probe_timeout=timeout, transport=net.transport("node"))
                await server.start()
                address = ("node", PORT)
            await net.clock.advance(0.3)
            reader, writer = await net.open_connection("child", *address)
            writer.write(hello[:len(hello) // 2])
            closed = []

            async def watch():
                assert await MessageStream(reader).next() is None
                closed.append(net.clock.time())

            task = asyncio.ensure_future(watch())
            await net.clock.advance(1.0)
            await task
            if node == "server":
                await server.stop()
            await net.shutdown()
            return closed

        assert asyncio.run(scenario()) == [at(0.3 + timeout)]


def _reports(*chunks: bytes, generation_count: int = 8):
    """A ``ChildReports`` over a connection that was sent ``chunks``."""

    class Reader:
        def __init__(self):
            self.pending = list(chunks)

        async def read(self, n):
            if not self.pending:
                return b""
            head, self.pending[0] = self.pending[0][:n], self.pending[0][n:]
            if not self.pending[0]:
                self.pending.pop(0)
            return head

    stream = MessageStream(Reader())
    return ChildReports(stream, generation_count), stream


class TestHostileReports:
    """Whatever a child writes after its hello is a report the session
    allows, or a typed error that costs the child its connection."""

    def run(self, *chunks, **kwargs):
        reports, stream = _reports(*chunks, **kwargs)

        async def drain():
            seen = []
            while True:
                report = await reports.next()
                if report is None:
                    return seen
                seen.append(report)

        return asyncio.run(drain()), stream

    def test_honest_reports_pass_through(self):
        seen, _ = self.run(_control(
            GenerationsComplete(0), GenerationsComplete(2, (4, 7)),
            GenerationsComplete(8)))
        assert seen == [(0, ()), (2, (4, 7)), (8, ())]

    @pytest.mark.parametrize("record", [
        GenerationsComplete(9),        # a base past the content
        GenerationsComplete(0, (8,)),  # an extra past the content
    ])
    def test_generation_the_content_lacks_is_a_framing_error(self, record):
        with pytest.raises(FramingError, match="names generation"):
            self.run(_control(record))

    def test_oversize_set_is_a_framing_error(self):
        body = (encode_control(GenerationsComplete(0))
                + bytes(MAX_COMPLETE_WINDOW // 8) + b"\x01")
        with pytest.raises(FramingError, match="window"):
            self.run(encode_frame(KIND_CONTROL, body))

    def test_truncated_body_is_a_framing_error(self):
        body = encode_control(GenerationsComplete(3))[:-1]
        with pytest.raises(FramingError, match="bad frame body"):
            self.run(encode_frame(KIND_CONTROL, body))

    def test_anything_but_a_report_is_a_framing_error(self):
        for intruder in (_control(KeepAlive(column=0, sender=4)),
                         encode_data_frame(_packet())):
            with pytest.raises(FramingError, match="on a data connection"):
                self.run(_control(GenerationsComplete(1)) + intruder)

    def test_flood_is_cut_off_with_bounded_buffering(self):
        """A report per dial, one per generation, and one more per
        generation's worth of packets the parent itself queued is all
        an honest child can send; a megabyte of them is refused at the
        first one too many — the pump closes, the key detaches — with
        at most one read chunk ever buffered."""
        record = _control(GenerationsComplete(1))
        flood = record * (1_000_000 // len(record))
        stream = MessageStream(_Reader(flood, eof=True))

        class Engine(RecordingEngine):
            def handle(self, event):
                assert stream._frames.pending() <= READ_CHUNK_BYTES
                return super().handle(event)

        async def scenario():
            engine = Engine()
            pumps = _pump_set(engine)
            writer = _CollectingWriter()
            task = asyncio.ensure_future(
                pumps.serve("child", stream, writer, 0))
            await asyncio.sleep(0)
            # Three packets queued: one more report allowed, 10 in all.
            pumps.emit(EmitToChildren(
                ("child",) * 3, packets=(_packet(),) * 3))
            await task
            return engine.heard, writer.closed, pumps.attached()

        heard, closed, attached = asyncio.run(scenario())
        assert heard == [ChildAttached("child", (0, ()))] + [
            ChildCompleted("child", 1, ())] * 10 + [ChildDetached("child")]
        assert closed and attached == ()
        assert stream._frames.pending() <= READ_CHUNK_BYTES


class TestWhatAChildCanDo:
    """A multi-generation deployment with three strangers dialed into
    one relay: one lies that it has everything, one reports a
    generation the content does not have, one never reports at all —
    and, apart, strangers naming columns the session does not have."""

    def test_liar_starves_itself_alone_and_silence_is_served(self):
        config = ChaosConfig(
            peers=4, k=2, d=2, generations=4, seed=2, send_interval=0.02,
            keepalive_interval=0.1)

        async def scenario():
            harness = ChaosHarness(config, record_trace=False)
            try:
                await harness.start()
                relay = harness.peers[0]
                count = relay.session.generation_count
                dials = {
                    "liar": GenerationsComplete(count),
                    "wild": GenerationsComplete(0, (count,)),
                    "mute": None,
                }
                inboxes, tasks = {}, []
                for index, (name, record) in enumerate(dials.items()):
                    reader, writer = await harness.net.open_connection(
                        name, harness.host(0), relay.port)
                    inboxes[name], task = _collect(reader)
                    tasks.append(task)
                    hello = [DataHello(node_id=900 + index, column=0)]
                    writer.write(_control(
                        *hello, *([record] if record else [])))
                assert await harness.run_until(harness.converged)
                await harness.settle(1.0)
                harness.check_invariants()
                for task in tasks:
                    task.cancel()
                return (inboxes, harness.violations,
                        relay.dataplane.children)
            finally:
                await harness.teardown()

        inboxes, violations, children = asyncio.run(scenario())
        # Everyone else decoded bit-identically (check_invariants).
        assert violations == []
        # The liar got keep-alives and not one packet; it is still
        # attached, costing its parent nothing but that.
        assert _generations(inboxes["liar"]) == []
        assert any(isinstance(m, KeepAlive) for m in inboxes["liar"])
        assert inboxes["liar"][-1] is not None
        # The out-of-range report cost its sender the connection before
        # it was ever attached.
        assert inboxes["wild"] == [None]
        # The mute child is served as one that holds nothing: the
        # lowest generation, over and over — it starves only itself.
        assert _generations(inboxes["mute"])
        assert set(_generations(inboxes["mute"])) == {0}
        # Still attached when it ended: the two that kept to the rules.
        assert {key[0] for key in children} >= {900, 902}
        assert 901 not in {key[0] for key in children}

    @pytest.mark.parametrize("node", ["peer", "server"])
    def test_column_outside_the_session_is_refused(self, node):
        """The source and a relay serve the columns the session has
        (``0 <= column < k``).  Strangers dialling columns 100, 200 and
        300 are closed before they are attached, and leave no
        per-column queue-depth gauge behind — up to 65 536 of them per
        node otherwise, one per distinct uint16."""
        config = ChaosConfig(peers=2, k=4, d=2, seed=1, generations=2)

        async def scenario():
            harness = ChaosHarness(config, record_trace=False)
            try:
                await harness.start()
                if node == "peer":
                    target = harness.peers[0]
                    host = harness.host(0)
                else:
                    target, host = harness.server, harness.server_host
                before = len(target.registry)
                inboxes = []
                for index, column in enumerate((100, 200, 300)):
                    reader, writer = await harness.net.open_connection(
                        f"stranger{index}", host, target.port)
                    inbox, task = _collect(reader)
                    inboxes.append(inbox)
                    writer.write(_control(
                        DataHello(node_id=900 + index, column=column),
                        GenerationsComplete(0)))
                    await harness.settle(0.1)
                    writer.close()
                    task.cancel()
                await harness.settle(0.1)
                strays = [name for name in (
                    "net.queue_depth.c100", "net.queue_depth.c200",
                    "net.queue_depth.c300") if name in target.registry]
                return inboxes, before, len(target.registry), strays
            finally:
                await harness.teardown()

        inboxes, before, after, strays = asyncio.run(scenario())
        assert strays == []
        assert after == before
        assert all(inbox == [None] for inbox in inboxes)

    def test_server_column_is_served_only_to_its_top_node(self):
        """A server column belongs to the node the matrix has at its
        top.  A stranger, and a node lower down the same column, dialing
        it are closed; the top's pump — and every other column — is
        untouched."""
        config = ChaosConfig(peers=6, k=2, d=2, seed=0, generations=8)

        async def scenario():
            harness = ChaosHarness(config, record_trace=False)
            try:
                await harness.start()
                server = harness.server
                before = {c: server.pumps.get(c) for c in range(config.k)}
                lower = server.core.matrix.column_chain(0)[1]
                inboxes = []
                for index, node_id in enumerate((999, lower)):
                    reader, writer = await harness.net.open_connection(
                        f"stranger{index}", harness.server_host,
                        server.port)
                    inbox, task = _collect(reader)
                    inboxes.append(inbox)
                    writer.write(_control(
                        DataHello(node_id=node_id, column=0)))
                    await harness.settle(0.1)
                    task.cancel()
                after = {c: server.pumps.get(c) for c in range(config.k)}
                closed = [pump.closed for pump in after.values()]
                return before, after, closed, inboxes
            finally:
                await harness.teardown()

        before, after, closed, inboxes = asyncio.run(scenario())
        assert all(pump is not None for pump in before.values())
        assert after == before and not any(closed)
        assert inboxes == [[None], [None]]
