"""The live drivers' inbound path: one ``Connection`` per connection.

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
from repro.net import PeerNode, ServerNode
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
    Connection,
    FirstFrame,
    FramingError,
    Handler,
    encode_data_frame,
    encode_frame,
)
from repro.net.peer import PeerStats
from repro.net.streams import SenderStats
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

from tests.netkit import CollectingWriter, Inbox, dial, listen, snapshot_names
from tests.test_net_pumps import RecordingEngine, _pump_set, _serving

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


def _control_sink(peer: PeerNode) -> CollectingWriter:
    """Stand in for ``peer``'s control connection; what it writes
    there is collected."""
    sink = CollectingWriter()
    peer._control = Connection(Handler())
    peer._control.connection_made(sink)
    return sink


def _accepting(net, peer: PeerNode, host: str = "node"):
    """Bind ``peer``'s child listener on ``host`` as ``start`` would."""
    return net.bind(host, 0, lambda: Connection(FirstFrame(
        peer._child, net.clock, peer.silence_timeout)))


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
    control = await dial(net, "child", *address)
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

            def parent(inbox, message):
                if len(inbox.messages) == 1:  # the child's DataHello
                    dials.append(inbox)
                    if len(dials) == 1:
                        asyncio.ensure_future(
                            script(net.clock, inbox.transport))

            listener = listen(net, "parent", 0, parent)
            peer = _child_of(net, listener, silence_timeout=self.silence)
            sink = _control_sink(peer)
            heard = []
            peer.engine.handle = _timed(net.clock, peer.engine.handle, heard)
            peer._restart_thread(0)
            await net.clock.advance(until)
            peer.kill()
            return (heard, peer.engine.obs.complaints_sent,
                    b"".join(sink.chunks))

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
    def test_one_flush_is_drained_in_one_wakeup(self):
        """Five frames flushed in one ``writelines`` arrive at the
        engine the connection ``PumpSet.upstream`` dials runs against
        as five ``PacketArrived`` in order from a single
        ``data_received``, which drains once; the connection then sits
        open, holding no task."""
        segments = []

        async def scenario():
            net = VirtualNetwork()
            listener = listen(net, "parent", 0, on_connect=lambda inbox: (
                inbox.writelines(
                    [encode_data_frame(_packet(g)) for g in range(5)])))
            engine = RelayEngine(Recoder(
                PARAMS, 5, np.random.default_rng(0), node_id=9))
            log = engine.log = EngineLog()
            pumps = _pump_set(engine, clock=net.clock)
            stats = PeerStats()
            ended = []
            link = pumps.upstream(0, 1.0, stats, None, ended.append)
            received = link.data_received
            link.data_received = lambda data: (
                segments.append(len(data)), received(data))
            await net.open_connection(
                "peer", *listener.address, lambda: link)
            await net.clock.advance(0.1)
            open_ = not ended
            tasks = len(asyncio.all_tasks())
            link.close()
            return log.events, open_, stats.upstream_fills, tasks

        events, open_, drains, tasks = asyncio.run(scenario())
        assert all(isinstance(e, PacketArrived) for e in events)
        assert [e.packet.generation for e in events] == [0, 1, 2, 3, 4]
        assert open_ and tasks == 1
        assert len(segments) == 1 and drains == 1


class TestChildReportRules:
    """The child's half of the completion-report contract, as its
    parents read it: a report with the hello, one per drained segment
    that completed a generation (to every open parent), and one to a parent
    that has sent a generation's worth of packets the child held."""

    def _run(self, script, *, parents=1, generations=2, held=()):
        """Clip a child holding ``held`` below ``parents`` parents:
        parent ``c`` (host ``parent<c>``) records what it reads, with
        the time, while it plays ``script(c, clock, writer)``.  Returns
        the inboxes, the peer and the network's trace."""

        async def scenario():
            net = VirtualNetwork()
            inboxes = [[] for _ in range(parents)]

            def parent(column):
                return listen(
                    net, f"parent{column}", 0,
                    on_message=lambda inbox, message: inboxes[column].append(
                        (net.clock.time(), message)),
                    on_connect=lambda inbox: asyncio.ensure_future(
                        script(column, net.clock, inbox.transport)))

            peer = _child_of(
                net, *(parent(c) for c in range(parents)),
                generations=generations)
            for generation in held:
                for packet in _basis(generation):
                    peer.dataplane.handle(PacketArrived(packet))
            for column in range(parents):
                peer._restart_thread(column)
            await net.clock.advance(0.2)
            peer.kill()
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
        in one segment: the grant is taken and the ``SetParent`` behind
        it dispatched within the one ``data_received``."""
        admission = _control(
            SessionInfo(generation_size=3, payload_size=10,
                        generation_count=1, content_length=30, k=2, d=1),
            JoinGrant(node_id=7, assignments=((0, SERVER),)),
            PeerLocator(node_id=3, host="elsewhere", port=9),
            SetParent(column=0, parent=3),
        )

        async def scenario():
            net = VirtualNetwork()

            def server(inbox, first):
                if isinstance(first, JoinRequest):
                    inbox.write(admission)
                else:
                    inbox.close()  # the data dial toward SERVER

            listen(net, "server", PORT, server)
            peer = PeerNode("server", PORT, transport=net.transport("peer"))
            await peer.start()
            await net.clock.advance(0.01)
            state = peer.node_id, dict(peer.parents), dict(peer._addresses)
            peer.kill()
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
            client = await dial(net, "peer", "server", PORT)
            client.write(_control(
                JoinRequest(reply_to=9), LeaveRequest(node_id=0)))
            await net.clock.advance(0.01)
            client.close()
            await net.clock.advance(0.01)
            counts = server.engine.obs
            await server.stop()
            return (counts.joins, counts.leaves,
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
            _serving(pumps, "idle")
            _serving(pumps, "busy")
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
            assert [id(s) for s in pumps.stats] == [id(total), id(busy)]
            assert sums() == before
            pumps.get("busy").close()
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
                    link = await dial(net, "child", *address)
                    link.write(_control(
                        DataHello(node_id=node_id, column=0)))
                    await net.clock.advance(0.1)
                    link.close()
                    if name == "server":
                        control.write(_control(
                            LeaveRequest(node_id=node_id)))
                    await net.clock.advance(0.1)
                    samples[name].append((
                        len(node.sender_stats),
                        len(snapshot_names(node.registry)),
                        sum(s.sent for s in node.sender_stats),
                        sum(s.bytes_sent for s in node.sender_stats),
                        node.snapshot()["registries"][node.registry.name]
                        ["gauges"]["net.sender.sent"],
                    ))
            await peer.close()
            for node in servers:
                await node.stop()
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


def _generations(inbox) -> list[int]:
    return [m.generation for m in inbox if isinstance(m, CodedPacket)]


class TestFirstFrame:
    def test_report_in_the_hellos_segment_is_not_lost(self):
        """The hello and the completed set behind it arrive as one
        segment; the connection that parsed the hello must be the one
        the report is read from, or a redialing child is re-sent everything
        it holds (here: the attach burst names generation 0)."""

        async def scenario():
            net = VirtualNetwork()
            peer = PeerNode("server", 1, transport=net.transport("peer"),
                            seed_burst=4)
            relay = _as_granted(peer, SessionInfo(3, 10, 2, 60, k=1, d=1))
            for generation in (0, 1):
                relay.handle(PacketArrived(_packet(generation)))
            peer._running = True
            listener = _accepting(net, peer, "peer")
            child = await dial(net, "child", *listener.address)
            child.write(_control(
                DataHello(node_id=4, column=0),
                GenerationsComplete(base=1)))
            await net.clock.advance(0.01)
            return _generations(child.messages)

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
                address = _accepting(net, peer).address
            else:
                server = ServerNode(
                    bytes(60), PARAMS, k=1, d=1, port=PORT,
                    send_interval=0.05, transport=net.transport("node"))
                await server.start()
                address = ("node", PORT)
            node_id = 4
            if node == "server":
                node_id, _ = await _admitted(net, server, address)
            child = await dial(net, "child", *address)
            child.write(_control(DataHello(node_id=node_id, column=0)))
            await net.clock.advance(0.3)
            before = _generations(child.messages)
            child.write(_control(GenerationsComplete(base=1)))
            await net.clock.advance(0.3)
            after = _generations(child.messages)[len(before):]
            if node == "server":
                await server.stop()
            return before, after

        before, after = asyncio.run(scenario())
        assert len(before) >= 3 and set(before) == {0}
        assert len(after) >= 3 and set(after) == {1}

    def test_child_dialing_before_the_grant_is_closed(self):
        """A peer with no grant yet has nothing to serve and no session
        to check the hello against: the dialler is closed at once, and
        its own thread redials."""

        async def scenario():
            net = VirtualNetwork()
            peer = PeerNode("server", 1, transport=net.transport("node"))
            peer._running = True
            address = _accepting(net, peer).address
            child = await dial(net, "child", *address)
            child.write(_control(
                DataHello(node_id=4, column=0), GenerationsComplete(0)))
            await net.clock.advance(0.01)
            return child.messages, snapshot_names(peer.registry)

        inbox, instruments = asyncio.run(scenario())
        assert inbox == [None]
        assert instruments == snapshot_names(PeerNode("server", 1).registry)

    @pytest.mark.parametrize("node", ["peer", "server"])
    def test_half_a_hello_is_closed_after_one_timeout(self, node):
        """A dialler that never finishes its first frame holds a
        connection for one timeout (``silence_timeout`` at a peer,
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
                address = _accepting(net, peer).address
            else:
                server = ServerNode(
                    bytes(30), PARAMS, k=1, d=1, port=PORT,
                    probe_timeout=timeout, transport=net.transport("node"))
                await server.start()
                address = ("node", PORT)
            await net.clock.advance(0.3)
            closed = []

            class Watch(Inbox):
                def closed(self, error):
                    super().closed(error)
                    closed.append(net.clock.time())

            child = await dial(net, "child", *address, inbox=Watch())
            child.write(hello[:len(hello) // 2])
            await net.clock.advance(1.0)
            assert child.messages == [None]
            if node == "server":
                await server.stop()
            return closed

        assert asyncio.run(scenario()) == [at(0.3 + timeout)]


def _reports(*chunks: bytes, generation_count: int = 8):
    """A child's data connection, past its hello, sent ``chunks`` and
    then EOF: the reports the engine heard, and the error the
    connection closed with."""
    engine = RecordingEngine()
    engine.generation_count = generation_count
    _, link = _serving(_pump_set(engine), "child")
    errors = []
    close = link.close
    link.close = lambda error=None: (errors.append(error), close(error))
    for chunk in chunks:
        link.data_received(chunk)
    link.eof_received()
    return ([(e.base, e.extras) for e in engine.heard_of(ChildCompleted)],
            errors[0])


class TestHostileReports:
    """Whatever a child writes after its hello is a report the session
    allows, or a typed error that costs the child its connection."""

    def run(self, *chunks, **kwargs):
        """The reports delivered, or the error that closed the
        connection, raised."""

        async def scenario():
            return _reports(*chunks, **kwargs)

        seen, error = asyncio.run(scenario())
        if error is not None:
            raise error
        return seen, None

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
        at most one segment ever buffered."""
        record = _control(GenerationsComplete(1))
        flood = record * (1_000_000 // len(record))
        segment = 1 << 16
        links = []

        class Engine(RecordingEngine):
            def handle(self, event):
                assert not links or links[0].pending() <= segment
                return super().handle(event)

        async def scenario():
            engine = Engine()
            pumps = _pump_set(engine)
            writer, link = _serving(pumps, "child")
            links.append(link)
            # Three packets queued: one more report allowed, 10 in all.
            pumps.emit(EmitToChildren(
                ("child",) * 3, packets=(_packet(),) * 3))
            for start in range(0, len(flood), segment):
                link.data_received(flood[start:start + segment])
            link.eof_received()
            return engine.heard, writer.closed, pumps.attached(), link

        heard, closed, attached, link = asyncio.run(scenario())
        assert heard == [ChildAttached("child", (0, ()))] + [
            ChildCompleted("child", 1, ())] * 10 + [ChildDetached("child")]
        assert closed and attached == ()
        assert link.pending() == 0  # a closed connection keeps nothing


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
                inboxes = {}
                for index, (name, record) in enumerate(dials.items()):
                    child = await dial(
                        harness.net, name, harness.host(0), relay.port)
                    inboxes[name] = child.messages
                    hello = [DataHello(node_id=900 + index, column=0)]
                    child.write(_control(
                        *hello, *([record] if record else [])))
                assert await harness.run_until(harness.converged)
                await harness.settle(1.0)
                harness.check_invariants()
                return ({name: list(messages)
                         for name, messages in inboxes.items()},
                        harness.violations, relay.dataplane.children)
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
                before = snapshot_names(target.registry)
                inboxes = []
                for index, column in enumerate((100, 200, 300)):
                    child = await dial(
                        harness.net, f"stranger{index}", host, target.port)
                    inboxes.append(child.messages)
                    child.write(_control(
                        DataHello(node_id=900 + index, column=column),
                        GenerationsComplete(0)))
                    await harness.settle(0.1)
                    child.close()
                await harness.settle(0.1)
                after = snapshot_names(target.registry)
                strays = [name for name in (
                    "net.queue_depth.c100", "net.queue_depth.c200",
                    "net.queue_depth.c300") if name in after]
                return inboxes, before, after, strays
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
                    child = await dial(
                        harness.net, f"stranger{index}", harness.server_host,
                        server.port)
                    inboxes.append(child.messages)
                    child.write(_control(
                        DataHello(node_id=node_id, column=0)))
                    await harness.settle(0.1)
                after = {c: server.pumps.get(c) for c in range(config.k)}
                closed = [pump.closed for pump in after.values()]
                return before, after, closed, [list(m) for m in inboxes]
            finally:
                await harness.teardown()

        before, after, closed, inboxes = asyncio.run(scenario())
        assert all(pump is not None for pump in before.values())
        assert after == before and not any(closed)
        assert inboxes == [[None], [None]]
