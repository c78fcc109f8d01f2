"""``PumpSet``: the one downstream side ``ServerNode`` and ``PeerNode``
share — keyed pumps, replace-on-redial, run → retire → detach,
close-by-column and the single ``EmitToChildren`` → frames → pumps
translation.  (The bounded ``sender_stats`` list keeps its tests in
``test_net_inbound.TestBoundedPumpState``.)
"""

import asyncio

import numpy as np
import pytest

from repro.coding import CodedPacket
from repro.coding.generation import GenerationParams
from repro.coding.recoder import Recoder
from repro.dataplane import EmitToChildren
from repro.net import MessageStream, PeerNode, ServerNode
from repro.net import streams
from repro.net.control import DataHello, encode_control
from repro.net.framing import FrameBuffer, KIND_CONTROL, encode_frame
from repro.net.streams import PumpSet
from repro.net.testing import VirtualNetwork
from repro.net.transport import AsyncioClock
from repro.obs import Registry

from tests.test_net_framing import _CollectingWriter

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


def _packets(writer: _CollectingWriter) -> list:
    """What a pump wrote, parsed back into messages."""
    buffer = FrameBuffer()
    buffer.feed(b"".join(writer.chunks))
    return list(buffer.messages())


def _pump_set(**kwargs) -> PumpSet:
    return PumpSet(
        Registry("node"), limit=8, keepalive_interval=None,
        clock=AsyncioClock(), **kwargs,
    )


async def _serving(pumps, key, *, column=0, **kwargs):
    """Start serving ``key`` on a fresh writer; the pump is registered
    by the time this returns."""
    writer = _CollectingWriter()
    task = asyncio.ensure_future(
        pumps.serve(key, writer, column=column, **kwargs))
    await asyncio.sleep(0)
    return writer, task


class TestPumpSet:
    def test_same_key_redial_closes_and_replaces_the_old_pump(self):
        async def scenario():
            pumps = _pump_set()
            old_writer, old_task = await _serving(pumps, "child")
            old = pumps.get("child")
            new_writer, new_task = await _serving(pumps, "child")
            new = pumps.get("child")
            assert new is not old and old.closed and not new.closed
            # The replaced pump finishes without detaching the key ...
            assert await old_task is False
            assert old_writer.closed and not new_writer.closed
            assert pumps.get("child") is new
            assert pumps.attached() == ("child",)
            # ... the one that replaced it does.
            new.close()
            assert await new_task is True
            assert pumps.get("child") is None and pumps.attached() == ()

        asyncio.run(scenario())

    def test_close_by_column_closes_only_that_column(self):
        async def scenario():
            pumps = _pump_set()
            tasks = {}
            for key, column in (("a", 0), ("b", 1), ("c", 0)):
                _, tasks[key] = await _serving(pumps, key, column=column)
            pumps.close(0)
            assert pumps.attached() == ("b",)
            assert await tasks["a"] is True and await tasks["c"] is True
            assert not tasks["b"].done() and pumps.get("b") is not None
            pumps.close()
            assert await tasks["b"] is True and pumps.get("b") is None

        asyncio.run(scenario())

    def test_queue_depth_gauge_is_bound_once_per_served_column(self):
        async def scenario():
            pumps = _pump_set()
            registry = pumps._registry
            assert "net.queue_depth.c3" not in registry
            _, first = await _serving(pumps, ("x", 3), column=3)
            gauge = registry.gauge("net.queue_depth.c3")
            size = len(registry)
            _, second = await _serving(pumps, ("y", 3), column=3)
            _, third = await _serving(pumps, ("x", 3), column=3)
            assert registry.gauge("net.queue_depth.c3") is gauge
            assert len(registry) == size
            # One gauge reads every pump now serving the column.
            pumps.get(("x", 3))._queue.extend([b"f"] * 2)
            pumps.get(("y", 3))._queue.extend([b"f"] * 3)
            assert gauge.snapshot_value() == 5
            pumps.close()
            await asyncio.gather(first, second, third)

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
            pumps.generation_size = PARAMS.generation_size
            writers = {}
            tasks = []
            for key in ("a", "b"):
                writers[key], task = await _serving(pumps, key)
                tasks.append(task)
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
            await asyncio.gather(*tasks)
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
            node, address, key = server, ("server", PORT), 0
        else:
            node = PeerNode("server", PORT, transport=net.transport("peer"))
            await node.start()
            await net.clock.advance(0.1)
            address, key = ("peer", node.port), (77, 0)
        reader, writer = await net.open_connection("child", *address)
        received = []

        async def collect():
            stream = MessageStream(reader)
            while (message := await stream.next()) is not None:
                received.append(message)

        collector = asyncio.ensure_future(collect())
        writer.write(_control(DataHello(node_id=77, column=0)))
        await net.clock.advance(0.05)
        pump = node.pumps.get(key)
        assert pump is not None and pump.column == 0
        assert key in node.pumps.attached()
        assert any(s is pump.stats for s in node.sender_stats)
        assert node.sender_stats is node.pumps.stats
        assert "net.queue_depth.c0" in node.registry

        node.pumps.emit(EmitToChildren(
            (key,), packets=(_packet(origin=4242),)))
        await net.clock.advance(0.05)
        assert any(
            isinstance(m, CodedPacket) and m.origin == 4242
            for m in received
        )
        sent = sum(s.sent for s in node.sender_stats)
        assert sent >= 1

        writer.close()
        await net.clock.advance(0.05)
        assert node.pumps.get(key) is None
        assert key not in node.pumps.attached()
        assert pump.closed
        assert all(s is not pump.stats for s in node.sender_stats)
        assert sum(s.sent for s in node.sender_stats) >= sent
        collector.cancel()
        if kind == "peer":
            assert key not in node.dataplane.children
            await node.close()
        await server.stop()
        await net.shutdown()

    asyncio.run(scenario())
