"""The live drivers' inbound path: one ``MessageStream`` per connection.

Peer- and server-level behaviour that rides on it — silence measured
between complete messages, a whole flush drained per wake-up, no byte
lost between an admission sequence and the loop after it — plus the
bounded per-connection state of the outbound pumps under churn.
"""

import asyncio

import numpy as np

from repro.coding import CodedPacket
from repro.coding.generation import GenerationParams
from repro.coding.recoder import Recoder
from repro.core.matrix import SERVER
from repro.dataplane import EmitToChildren, PacketArrived, RelayEngine
from repro.net import MessageStream, PeerNode, ServerNode
from repro.net.control import (
    DataHello,
    PeerLocator,
    SessionInfo,
    encode_control,
)
from repro.net.framing import KIND_CONTROL, encode_data_frame, encode_frame
from repro.net.streams import SenderStats
from repro.net.testing import VirtualNetwork
from repro.protocol import (
    ComplaintMsg,
    JoinGrant,
    JoinRequest,
    LeaveRequest,
    SetParent,
    UpstreamDown,
)
from repro.protocol.trace import EngineLog

from tests.test_net_pumps import _pump_set, _serving

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


def _child_of(net, listener, **kwargs) -> PeerNode:
    """A peer already holding column 0 under parent 5 at ``listener`` —
    the state a grant would leave, without a server."""
    peer = PeerNode("server", 1, transport=net.transport("peer"), **kwargs)
    peer.engine.node_id = 9
    peer.parents[0] = 5
    peer._addresses[5] = listener.address
    peer._running = True
    return peer


class TestSilenceBetweenMessages:
    def test_parent_trickling_an_unfinished_frame_is_still_silent(self):
        """Bytes are not traffic: half a frame, then one byte every
        ``silence_timeout / 2``, never completes a message — the session
        ends ``silence_timeout`` after it began, with a complaint."""
        silence = 1.0
        frame = encode_data_frame(_packet())

        async def scenario():
            net = VirtualNetwork()

            async def parent(reader, writer):
                await MessageStream(reader).next()  # the child's DataHello
                half = len(frame) // 2
                writer.write(frame[:half])
                for byte in frame[half:-1]:
                    await net.clock.sleep(silence / 2)
                    writer.write(bytes([byte]))

            listener = net.bind("parent", 0, parent)
            peer = _child_of(net, listener, silence_timeout=silence)
            sink = peer._control_writer = _ControlSink()
            log = peer.engine.log = EngineLog()
            task = asyncio.ensure_future(peer._thread_loop(0))
            await net.clock.advance(silence - 0.01)
            early = list(log.events)
            await net.clock.advance(0.02)
            task.cancel()
            await net.shutdown()
            return early, log.events, peer.stats.complaints, bytes(sink.written)

        early, events, complaints, written = asyncio.run(scenario())
        assert early == []
        assert events == [UpstreamDown(column=0, parent=5, saw_traffic=False)]
        assert complaints == 1
        assert written == _control(
            ComplaintMsg(reporter=9, column=0, suspect=5))


class TestBatchedDrain:
    def test_one_flush_is_drained_in_one_wakeup(self, monkeypatch):
        """Five frames flushed in one ``writelines`` arrive as five
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
            peer = _child_of(net, listener)
            peer.dataplane = RelayEngine(Recoder(
                PARAMS, 5, np.random.default_rng(0), node_id=9))
            log = peer.dataplane.log = EngineLog()
            task = asyncio.ensure_future(
                peer._consume_upstream(0, 5, listener.address))
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
            stats = server.stats
            await server.stop()
            await net.shutdown()
            return stats.joins, stats.leaves, stats.crashes

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
            server = ServerNode(
                bytes(range(240)), PARAMS, k=1, d=1, port=PORT,
                transport=net.transport("server"),
            )
            await server.start()
            peer = PeerNode("server", PORT, transport=net.transport("peer"))
            await peer.start()
            nodes = {
                "server": (server, ("server", PORT)),
                "peer": (peer, ("peer", peer.port)),
            }
            samples = {name: [] for name in nodes}
            for child in range(100, 112):
                for name, (node, address) in nodes.items():
                    _, writer = await net.open_connection("child", *address)
                    writer.write(_control(
                        DataHello(node_id=child, column=0)))
                    await net.clock.advance(0.1)
                    writer.close()
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
            await server.stop()
            await net.shutdown()
            return samples

        for name, rows in asyncio.run(scenario()).items():
            lengths, instruments, sent, sent_bytes, gauge = zip(*rows)
            assert len(set(lengths)) == 1, (name, lengths)
            assert len(set(instruments)) == 1, (name, instruments)
            assert list(sent) == sorted(set(sent)), (name, sent)
            assert list(sent_bytes) == sorted(set(sent_bytes)), name
            assert gauge == sent, name
