"""``PumpSet``'s downstream end, the one ``ServerNode`` and
``PeerNode`` share — keyed pumps, replace-on-redial, pumps that end
with their connections, the single ``EmitToChildren`` → frames → pumps
translation, and each child connection's whole conversation with the
node's data-plane engine (attach → burst → reports → idle polls →
detach).  (The bounded
``sender_stats`` list keeps its tests in
``test_net_inbound.TestBoundedPumpState``; the upstream end,
``upstream``, is pinned in ``test_net_inbound`` too.)
"""

import asyncio

import numpy as np
import pytest

from repro.coding import CodedPacket
from repro.coding.generation import GenerationParams
from repro.coding.recoder import Recoder
from repro.dataplane import (
    ChildAttached,
    ChildCompleted,
    ChildDetached,
    EmitToChildren,
    IdlePoll,
)
from repro.net import PeerNode, ServerNode
from repro.net import streams
from repro.net.control import DataHello, GenerationsComplete, encode_control
from repro.net.framing import KIND_CONTROL, Connection, Handler, encode_frame
from repro.net.streams import PumpSet
from repro.net.testing import VirtualClock, VirtualNetwork
from repro.net.transport import AsyncioClock
from repro.obs import Registry
from repro.protocol import JoinRequest, KeepAlive

from tests.netkit import CollectingWriter, dial, parsed, snapshot_names

PARAMS = GenerationParams(3, 10)
PORT = 4000


def _packet(generation=0, origin=5):
    return CodedPacket(
        generation=generation,
        coefficients=np.array([1, 2, 3], dtype=np.uint8),
        payload=np.arange(10, dtype=np.uint8),
        origin=origin,
    )


def _control(*messages) -> bytes:
    return b"".join(
        encode_frame(KIND_CONTROL, encode_control(m)) for m in messages
    )


_packets = parsed


class RecordingEngine:
    """A data-plane engine that hears everything a ``PumpSet`` tells
    it and answers ``ChildAttached`` and ``IdlePoll`` from a script."""

    generation_count = 8

    def __init__(self, attach=(), idle=()):
        self.heard: list = []
        self.attach = list(attach)
        self.idle = list(idle)

    def handle(self, event):
        self.heard.append(event)
        if isinstance(event, ChildAttached):
            return list(self.attach)
        if isinstance(event, IdlePoll):
            return list(self.idle)
        return []

    def heard_of(self, kind) -> list:
        return [e for e in self.heard if isinstance(e, kind)]


def _pump_set(engine=None, *, keepalive_interval=None, clock=None,
              registry=None) -> PumpSet:
    """A node's pump set past its grant: four columns, g = 3; it owns
    its names on ``registry`` if one is given."""
    pumps = PumpSet(
        registry if registry is not None else Registry("node"),
        limit=8, keepalive_interval=keepalive_interval,
        clock=clock if clock is not None else AsyncioClock(),
    )
    pumps.engine = engine if engine is not None else RecordingEngine()
    pumps.k = 4
    pumps.generation_size = PARAMS.generation_size
    return pumps


def _serving(pumps, key, *, column=0, hello=b""):
    """Hand ``key``'s connection, on a fresh writer, to
    ``pumps.serve``; the pump is registered when this returns.
    ``hello`` is what arrived in the hello's segment behind it."""
    writer = CollectingWriter()
    connection = Connection(Handler())
    connection.connection_made(writer)
    connection.feed(hello)
    pumps.serve(key, connection, column)
    return writer, connection


class TestPumpSet:
    def test_same_key_redial_closes_and_replaces_the_old_pump(self):
        async def scenario():
            engine = RecordingEngine()
            pumps = _pump_set(engine)
            old_writer, old_link = _serving(pumps, "child")
            old = pumps.get("child")
            new_writer, new_link = _serving(pumps, "child")
            new = pumps.get("child")
            assert new is not old and old.closed and not new.closed
            # The replaced pump finishes without detaching the key ...
            assert old_link.closed and not new_link.closed
            assert engine.heard_of(ChildDetached) == []
            assert old_writer.closed and not new_writer.closed
            assert pumps.get("child") is new
            assert pumps.attached() == ("child",)
            # ... the one that replaced it does.
            new.close()
            assert new_link.closed
            assert engine.heard_of(ChildDetached) == [ChildDetached("child")]
            assert pumps.get("child") is None and pumps.attached() == ()
            assert engine.heard_of(ChildAttached) == [
                ChildAttached("child", (0, ()))] * 2

        asyncio.run(scenario())

    def test_close_by_column_closes_only_that_column(self):
        """Nothing closes a column from outside: its children's pumps
        end one by one as their connections end, each detaching only
        its own key, and ``close()`` at teardown stops the rest."""
        async def scenario():
            engine = RecordingEngine()
            pumps = _pump_set(engine)
            links = {}
            for key, column in (("a", 0), ("b", 1), ("c", 0)):
                _, links[key] = _serving(pumps, key, column=column)
            for key in ("a", "c"):
                pumps.get(key).close()
            assert pumps.attached() == ("b",)
            assert links["a"].closed and links["c"].closed
            assert {e.child for e in engine.heard_of(ChildDetached)} == {
                "a", "c"}
            assert not links["b"].closed and pumps.get("b") is not None
            pumps.close()
            assert links["b"].closed
            assert pumps.get("b") is None
            assert engine.heard_of(ChildDetached)[-1] == ChildDetached("b")

        asyncio.run(scenario())

    def test_queue_depth_gauge_is_bound_once_per_served_column(self):
        async def scenario():
            registry = Registry("node")
            pumps = _pump_set(registry=registry)
            assert "net.queue_depth.c3" not in snapshot_names(registry)
            _serving(pumps, ("x", 3), column=3)
            names = snapshot_names(registry)
            assert "net.queue_depth.c3" in names
            _serving(pumps, ("y", 3), column=3)
            _serving(pumps, ("x", 3), column=3)
            assert snapshot_names(registry) == names
            # One gauge reads every pump now serving the column.
            pumps.get(("x", 3))._queue.extend([b"f"] * 2)
            pumps.get(("y", 3))._queue.extend([b"f"] * 3)
            assert registry.snapshot()["gauges"]["net.queue_depth.c3"] == 5
            pumps.close()

        asyncio.run(scenario())

    @pytest.mark.parametrize("form", ["packets", "rows"])
    def test_emit_skips_missing_pumps_and_serialises_once(
        self, form, monkeypatch
    ):
        calls = []
        for name in ("encode_mixture_frames", "encode_data_frame"):
            real = getattr(streams, name)
            monkeypatch.setattr(
                streams, name,
                lambda *a, _real=real, _name=name, **k: (
                    calls.append(_name), _real(*a, **k))[1],
            )

        async def scenario():
            pumps = _pump_set()
            pumps.origin = 9
            writers = {}
            for key in ("a", "b"):
                writers[key], _ = _serving(pumps, key)
            children = ("a", "gone", "b")
            if form == "packets":
                effect = EmitToChildren(children, packets=tuple(
                    _packet(generation=g) for g in range(3)))
            else:
                recoder = Recoder(PARAMS, 3, np.random.default_rng(0), 9)
                for generation in range(3):
                    recoder.receive(_packet(generation=generation))
                effect = EmitToChildren(children, rows=(
                    (0, recoder.emit_rows(1, 0)),
                    (2, recoder.emit_rows(2, 2))))
            pumps.emit(effect)
            await asyncio.sleep(0)
            pumps.close()
            return {k: _packets(w) for k, w in writers.items()}, pumps.stats

        received, stats = asyncio.run(scenario())
        # One serialisation per mixture delivered; none for the child
        # whose pump is gone.
        assert calls == (
            ["encode_data_frame"] * 2 if form == "packets"
            else ["encode_mixture_frames"]
        )
        assert [len(received[key]) for key in ("a", "b")] == [1, 1]
        if form == "rows":
            assert {p.origin for ps in received.values() for p in ps} == {9}
        else:
            assert received["a"][0].generation == 0
            assert received["b"][0].generation == 2
        assert stats[0].enqueued == stats[0].sent == 2


class TestOneConversationPerChild:
    """What the engine hears from a child connection, and what the
    child is sent for each answer."""

    def test_attach_answer_is_the_burst_on_the_new_pump(self):
        burst = EmitToChildren(
            ("child",) * 2, packets=(_packet(1), _packet(2)))

        async def scenario():
            engine = RecordingEngine(attach=[burst])
            pumps = _pump_set(engine)
            writer, _ = _serving(
                pumps, "child", hello=_control(GenerationsComplete(1, (3,))))
            await asyncio.sleep(0)
            pumps.close()
            return engine.heard, _packets(writer)

        heard, sent = asyncio.run(scenario())
        # The report in the hello's segment is the attach's set.
        assert heard[0] == ChildAttached("child", (1, (3,)))
        assert [p.generation for p in sent] == [1, 2]

    def test_report_becomes_child_completed(self):
        async def scenario():
            engine = RecordingEngine()
            pumps = _pump_set(engine)
            _, link = _serving(pumps, ("c", 2), column=2)
            link.data_received(_control(
                GenerationsComplete(2), GenerationsComplete(3, (5,))))
            link.eof_received()
            return engine.heard

        heard = asyncio.run(scenario())
        assert heard == [
            ChildAttached(("c", 2), (0, ())),
            ChildCompleted(("c", 2), 2, ()),
            ChildCompleted(("c", 2), 3, (5,)),
            # The child closed its side: the pump ends, the key detaches.
            ChildDetached(("c", 2)),
        ]

    @pytest.mark.parametrize("answer", ["packet", "nothing"])
    def test_idle_timer_becomes_idle_poll(self, answer):
        """Each keep-alive interval the pump sits idle, the engine is
        asked ``IdlePoll``: its packet goes as a data frame, and an
        answer of ``[]`` sends a bare keep-alive."""
        fill = EmitToChildren(("child",), packets=(_packet(4),))

        async def scenario():
            clock = VirtualClock()
            engine = RecordingEngine(idle=[fill] if answer == "packet" else [])
            pumps = _pump_set(engine, keepalive_interval=0.5, clock=clock)
            writer, _ = _serving(pumps, "child", column=1)
            await clock.advance(1.25)
            pumps.close()
            return engine.heard_of(IdlePoll), _packets(writer), pumps.stats[0]

        polls, sent, stats = asyncio.run(scenario())
        assert polls == [IdlePoll("child")] * 2
        if answer == "packet":
            assert [m.generation for m in sent] == [4, 4]
            assert (stats.sent, stats.keepalives) == (2, 0)
        else:
            assert sent == [KeepAlive(column=1, sender=-1)] * 2
            assert (stats.sent, stats.keepalives) == (0, 2)

    @pytest.mark.parametrize("column", [-1, 4, 100])
    def test_column_outside_the_session_never_reaches_the_engine(
            self, column):
        async def scenario():
            engine = RecordingEngine()
            registry = Registry("node")
            pumps = _pump_set(engine, registry=registry)
            writer, link = _serving(pumps, "x", column=column)
            assert link.closed
            return engine.heard, writer.closed, snapshot_names(registry)

        heard, closed, names = asyncio.run(scenario())
        assert heard == [] and closed
        fresh = Registry("node")
        _pump_set(registry=fresh)
        assert names == snapshot_names(fresh)

    def test_child_before_the_engine_is_closed(self):
        async def scenario():
            pumps = _pump_set()
            pumps.engine = None
            writer, link = _serving(pumps, "x")
            assert link.closed
            return writer.closed, pumps.attached()

        assert asyncio.run(scenario()) == (True, ())


@pytest.mark.parametrize("kind", ["server", "peer"])
def test_both_nodes_run_the_same_attach_emit_detach_script(kind):
    """The source and a relay are the same node downstream: a child
    dials column 0, is served from the node's ``PumpSet`` under the
    key the node's engine knows it by, receives what ``pumps.emit``
    puts on that key, and leaves nothing behind when it hangs up."""

    async def scenario():
        net = VirtualNetwork()
        server = ServerNode(
            bytes(range(240)), PARAMS, k=1, d=1, port=PORT,
            transport=net.transport("server"),
        )
        await server.start()
        if kind == "server":
            # The child is admitted first: a server column is served to
            # the node the matrix has at its top, and nobody else.
            node, address, key = server, ("server", PORT), 0
            control = await dial(net, "child", "server", PORT)
            control.write(_control(JoinRequest(reply_to=9)))
            hello = DataHello(node_id=0, column=0)
        else:
            node = PeerNode("server", PORT, transport=net.transport("peer"))
            await node.start()
            address, key = ("peer", node.port), (77, 0)
            hello = DataHello(node_id=77, column=0)
        await net.clock.advance(0.1)
        child = await dial(net, "child", *address)
        received = child.messages
        child.write(_control(hello))
        await net.clock.advance(0.05)
        pump = node.pumps.get(key)
        assert pump is not None and pump.column == 0
        assert key in node.pumps.attached()
        assert any(s is pump.stats for s in node.sender_stats)
        assert node.sender_stats is node.pumps.stats
        assert "net.queue_depth.c0" in snapshot_names(node.registry)

        node.pumps.emit(EmitToChildren(
            (key,), packets=(_packet(origin=4242),)))
        await net.clock.advance(0.05)
        assert any(
            isinstance(m, CodedPacket) and m.origin == 4242
            for m in received
        )
        sent = sum(s.sent for s in node.sender_stats)
        assert sent >= 1

        child.close()
        await net.clock.advance(0.05)
        assert node.pumps.get(key) is None
        assert key not in node.pumps.attached()
        assert key not in getattr(node.dataplane, "children", ())
        assert pump.closed
        assert all(s is not pump.stats for s in node.sender_stats)
        assert sum(s.sent for s in node.sender_stats) >= sent
        if kind == "peer":
            await node.close()
        await server.stop()

    asyncio.run(scenario())
