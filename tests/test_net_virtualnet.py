"""Unit tests for the virtual clock and the in-memory fault network."""

import asyncio
import tracemalloc

import numpy as np
import pytest

from repro.coding import CodedPacket
from repro.coding.wire import WireFormatError, decode_packet, encode_packet
from repro.net.framing import Connection
from repro.net.testing import VirtualClock, VirtualNetwork

from tests.netkit import Inbox


def run(coro):
    return asyncio.run(coro)


class _Bytes:
    """A raw-bytes protocol: keeps what it receives, in ``data`` and
    one entry per ``data_received`` in ``segments``; echoes it back if
    ``echo``; logs every other callback in ``events``."""

    def __init__(self, echo=False, keep_open=False):
        self.echo = echo
        self.keep_open = keep_open
        self.transport = None
        self.data = bytearray()
        self.segments = []
        self.events = []

    def connection_made(self, transport):
        self.transport = transport

    def data_received(self, data):
        self.data += data
        self.segments.append(bytes(data))
        if self.echo:
            self.transport.write(bytes(data))

    def eof_received(self):
        self.events.append("eof")
        return self.keep_open

    def connection_lost(self, exc):
        self.events.append(("lost", type(exc).__name__ if exc else None))

    def pause_writing(self):
        self.events.append("pause")

    def resume_writing(self):
        self.events.append("resume")


def _accepting(net, host="b", port=7, **kwargs) -> list:
    """Bind ``host:port``; the list every accepted protocol joins."""
    accepted = []

    def factory():
        accepted.append(_Bytes(**kwargs))
        return accepted[-1]

    net.bind(host, port, factory)
    return accepted


class TestVirtualClock:
    def test_time_only_moves_on_advance(self):
        async def scenario():
            clock = VirtualClock()
            assert clock.time() == 0.0
            await clock.advance(2.5)
            return clock.time()

        assert run(scenario()) == 2.5

    def test_sleepers_wake_in_deadline_order(self):
        async def scenario():
            clock = VirtualClock()
            order = []

            async def sleeper(delay, tag):
                await clock.sleep(delay)
                order.append((tag, clock.time()))

            tasks = [
                asyncio.ensure_future(sleeper(0.3, "late")),
                asyncio.ensure_future(sleeper(0.1, "early")),
                asyncio.ensure_future(sleeper(0.2, "mid")),
            ]
            await clock.advance(1.0)
            await asyncio.gather(*tasks)
            return order

        assert run(scenario()) == [
            ("early", 0.1), ("mid", 0.2), ("late", 0.3)
        ]

    @pytest.mark.parametrize("quantum", [0.0, 0.25])
    @pytest.mark.parametrize("timer_first", [True, False])
    def test_timer_and_sleep_due_together_fire_in_arming_order(
            self, quantum, timer_first):
        """``call_at`` and ``sleep`` share one heap and one sequence: a
        timer and a sleep with the same deadline fire in the order they
        were armed, at that deadline, batched or not."""

        async def scenario():
            clock = VirtualClock(quantum=quantum)
            order = []

            async def sleeper():
                await clock.sleep(0.5)
                order.append(("sleep", clock.time()))

            def arm_timer():
                clock.call_at(0.5, lambda: order.append(("timer", clock.time())))

            if timer_first:
                arm_timer()
            task = asyncio.ensure_future(sleeper())
            await asyncio.sleep(0)  # the sleep is armed on its first step
            if not timer_first:
                arm_timer()
            await clock.advance(1.0)
            await task
            return order

        fired = run(scenario())
        expected = ["timer", "sleep"] if timer_first else ["sleep", "timer"]
        assert [kind for kind, _ in fired] == expected
        assert [when for _, when in fired] == [0.5, 0.5]

    def test_cancelled_timer_never_fires_nor_counts_against_the_limit(self):
        async def scenario():
            clock = VirtualClock()
            clock.firing_limit = 2
            fired = []
            timers = [
                clock.call_at(0.1 * (i + 1), lambda i=i: fired.append(i))
                for i in range(10)
            ]
            for index, timer in enumerate(timers):
                if index not in (3, 7):
                    timer.cancel()
            await clock.advance(2.0)  # two firings: within the limit
            return fired, clock._timers

        assert run(scenario()) == ([3, 7], [])

    @pytest.mark.parametrize("quantum", [0.0, 0.25])
    def test_timer_cancelled_by_one_due_with_it_never_runs(self, quantum):
        """Two timers due together: the first one's callback cancels the
        second.  Batched, both have already fired when the first runs —
        the cancel still reaches the second on the ready queue."""

        async def scenario():
            clock = VirtualClock(quantum=quantum)
            fired = []
            second = None

            def first():
                fired.append("first")
                second.cancel()

            clock.call_at(0.5, first)
            second = clock.call_at(0.5, lambda: fired.append("second"))
            await clock.advance(1.0)
            return fired

        assert run(scenario()) == ["first"]

    def test_timers_fire_in_batches_under_quantum(self):
        """With a quantum, every timer due within one quantum of the
        earliest fires before the loop settles; without one, the loop
        settles after each."""

        async def scenario(quantum):
            clock = VirtualClock(quantum=quantum)
            seen = []
            for when in (0.1, 0.15, 0.3):
                # Each callback records which timers are still queued.
                clock.call_at(when, lambda when=when: seen.append(
                    (when, clock.time(), len(clock._timers))))
            await clock.advance(1.0)
            return seen

        # Unbatched: each callback runs at its own deadline, before the
        # next timer is popped.
        assert run(scenario(0.0)) == [(0.1, 0.1, 2), (0.15, 0.15, 1),
                                      (0.3, 0.3, 0)]
        # One 0.1 quantum: 0.1 and 0.15 fire together (time already at
        # the batch's last deadline), then 0.3 alone.
        assert run(scenario(0.1)) == [(0.1, 0.15, 1), (0.15, 0.15, 1),
                                      (0.3, 0.3, 0)]

    @pytest.mark.parametrize("quantum", [0.0, 0.25])
    def test_timer_rearming_at_now_is_stopped_by_the_firing_limit(
            self, quantum):
        async def scenario():
            clock = VirtualClock(quantum=quantum)
            clock.firing_limit = 50

            def rearm():
                clock.call_at(clock.time(), rearm)

            clock.call_at(0.1, rearm)
            with pytest.raises(RuntimeError, match="fired 50 timers"):
                await clock.advance(1.0)
            return clock.time()

        assert run(scenario()) == pytest.approx(0.1)

    def test_nested_sleeps_fire_in_one_advance(self):
        """A timer whose callback schedules another timer inside the
        advanced window fires within the same advance call."""

        async def scenario():
            clock = VirtualClock()
            hops = []

            async def hopper():
                for _ in range(3):
                    await clock.sleep(0.1)
                    hops.append(clock.time())

            task = asyncio.ensure_future(hopper())
            await clock.advance(1.0)
            await task
            return hops

        assert run(scenario()) == pytest.approx([0.1, 0.2, 0.3])


class TestVirtualPipes:
    def test_echo_roundtrip(self):
        async def scenario():
            net = VirtualNetwork()
            _accepting(net, echo=True)
            client = await net.open_connection("a", "b", 7, _Bytes)
            client.transport.write(b"x")
            await net.clock.advance(0.0)
            client.transport.close()
            return bytes(client.data)

        assert run(scenario()) == b"x"

    def test_clean_link_delivers_on_the_next_tick_without_a_timer(self):
        """A clean link lands a write at once (the trace records it),
        but the receiving protocol hears it only from the loop — never
        inside the writer's call — and what is written in one tick
        reaches it as one segment.  No timer is armed."""

        async def scenario():
            net = VirtualNetwork()
            accepted = _accepting(net)
            client = await net.open_connection("a", "b", 7, _Bytes)
            client.transport.write(b"x")
            delivered = net.events("deliver")
            client.transport.writelines([b"ab", b"cd"])
            coalesced = net.events("deliver")[len(delivered):]
            before = list(accepted[0].segments)
            await asyncio.sleep(0)
            return (delivered, coalesced, before, accepted[0].segments,
                    len(net.clock._timers))

        delivered, coalesced, before, segments, timers = run(scenario())
        assert [entry[2:] for entry in delivered] == [("a", "b", 1)]
        assert [entry[2:] for entry in coalesced] == [("a", "b", 4)]
        assert before == [] and segments == [b"xabcd"]
        assert timers == 0

    def test_fault_set_mid_connection_keeps_byte_order(self):
        """Scripting a fault on a live link moves the same pipe onto the
        pump path; bytes already landed stay ahead, and a write made
        after the link is clean again still queues behind what is in
        flight."""

        async def scenario():
            net = VirtualNetwork()
            accepted = _accepting(net)
            client = await net.open_connection("a", "b", 7, _Bytes)
            client.transport.write(b"one")
            net.set_link("a", "b", latency=0.1, symmetric=False)
            client.transport.write(b"two")
            net.set_link("a", "b", latency=0.0, symmetric=False)
            client.transport.write(b"three")
            await net.clock.advance(1.0)
            return bytes(accepted[0].data)

        assert run(scenario()) == b"onetwothree"

    def test_writelines_faults_stay_frame_aligned(self):
        """A coalesced flush over a faulted link is one segment per
        frame: loss drops frames, corruption hits every frame's CRC."""
        frames = [
            encode_packet(CodedPacket(
                generation=i,
                coefficients=np.array([1, 2, 3], dtype=np.uint8),
                payload=np.arange(10, dtype=np.uint8),
            ))
            for i in range(5)
        ]
        size = len(frames[0])

        async def scenario(**fault):
            net = VirtualNetwork(seed=3)
            accepted = _accepting(net)
            client = await net.open_connection("a", "b", 7, _Bytes)
            net.set_link("a", "b", symmetric=False, **fault)
            client.transport.writelines(frames)
            await net.clock.advance(0.1)
            return net, bytes(accepted[0].data)

        net, received = run(scenario(loss=1.0))
        assert [entry[4] for entry in net.events("lose")] == [size] * 5
        assert not net.events("deliver") and received == b""

        net, received = run(scenario(corrupt=1.0))
        assert len(net.events("corrupt")) == 5
        assert len(received) == 5 * size
        for start in range(0, len(received), size):
            with pytest.raises(WireFormatError):
                decode_packet(received[start:start + size])

    def test_latency_delays_delivery(self):
        async def scenario():
            net = VirtualNetwork()
            net.set_link("a", "b", latency=0.25)
            _accepting(net, echo=True)
            dial = asyncio.ensure_future(
                net.open_connection("a", "b", 7, _Bytes))
            await net.clock.advance(0.25)  # the SYN pays one link latency
            client = await dial
            connect_time = net.clock.time()
            client.transport.write(b"x")
            await net.clock.advance(1.0)
            echo_at = [t for t, kind, src, _, *_ in net.trace
                       if kind == "deliver" and src == "b"]
            return connect_time, echo_at[0], bytes(client.data)

        connect_time, echoed, data = run(scenario())
        assert connect_time == 0.25
        assert echoed == pytest.approx(0.75)  # there and back
        assert data == b"x"

    def test_latency_assigned_on_an_open_link_delays_delivery(self):
        """A field assigned directly on a live link's record (no
        ``set_link``) takes the link off the synchronous path: the next
        write waits out the latency."""

        async def scenario():
            net = VirtualNetwork()
            accepted = _accepting(net)
            client = await net.open_connection("a", "b", 7, _Bytes)
            client.transport.write(b"now")
            await net.clock.advance(0.0)
            landed = bytes(accepted[0].data)
            net.link("a", "b").latency = 0.25
            client.transport.write(b"late")
            await net.clock.advance(0.2)
            early = bytes(accepted[0].data)
            await net.clock.advance(0.1)
            return landed, early, bytes(accepted[0].data)

        landed, early, late = run(scenario())
        assert landed == b"now"
        assert early == b"now"
        assert late == b"nowlate"

    def test_connect_refused_without_listener(self):
        async def scenario():
            net = VirtualNetwork()
            with pytest.raises(ConnectionRefusedError):
                await net.open_connection("a", "b", 7, _Bytes)
            return net.events("refused")

        assert len(run(scenario())) == 1

    def test_partition_refuses_and_voids_then_heals(self):
        async def scenario():
            net = VirtualNetwork()
            _accepting(net, echo=True)
            client = await net.open_connection("a", "b", 7, _Bytes)
            net.partition("a", "b")
            client.transport.write(b"x")
            await net.clock.advance(0.1)
            voided = len(net.events("void"))
            with pytest.raises(ConnectionRefusedError):
                await net.open_connection("a", "b", 7, _Bytes)
            net.heal("a", "b")
            client.transport.write(b"y")
            await net.clock.advance(0.1)
            return voided, bytes(client.data)

        voided, data = run(scenario())
        assert voided == 1
        assert data == b"y"  # the partitioned byte is gone for good

    def test_loss_is_seeded_and_frame_aligned(self):
        async def scenario(seed):
            net = VirtualNetwork(seed=seed)
            net.set_link("a", "b", loss=0.5, symmetric=False)
            _accepting(net, echo=True)
            client = await net.open_connection("a", "b", 7, _Bytes)
            for _ in range(20):
                client.transport.write(b"z")
            await net.clock.advance(0.1)
            return len(net.events("lose"))

        first = run(scenario(5))
        assert first == run(scenario(5))  # same seed, same losses
        assert 0 < first < 20

    def test_corruption_flips_exactly_one_bit(self):
        async def scenario():
            net = VirtualNetwork()
            net.set_link("a", "b", corrupt=1.0, symmetric=False)
            accepted = _accepting(net)
            client = await net.open_connection("a", "b", 7, _Bytes)
            original = bytes(range(32))
            client.transport.write(original)
            await net.clock.advance(0.1)
            return original, bytes(accepted[0].data)

        original, received = run(scenario())
        assert received != original
        diff = [o ^ r for o, r in zip(original, received)]
        flipped = [d for d in diff if d]
        assert len(flipped) == 1 and bin(flipped[0]).count("1") == 1

    def test_close_resets_the_other_side(self):
        """Closing one end: its protocol hears ``connection_lost(None)``;
        the other end hears EOF, and — kept half-open — its next write
        ends its side with a reset.  Nothing is delivered after it."""

        async def scenario():
            net = VirtualNetwork()
            accepted = _accepting(net, keep_open=True)
            client = await net.open_connection("a", "b", 7, _Bytes)
            await net.clock.advance(0.0)
            client.transport.close()
            await net.clock.advance(0.1)
            server = accepted[0]
            eof_only = list(server.events)
            server.transport.write(b"x")
            await net.clock.advance(0.1)
            return client.events, eof_only, server.events, client.data

        client, eof_only, server, data = run(scenario())
        assert client == [("lost", None)]
        assert eof_only == ["eof"]
        assert server == ["eof", ("lost", "ConnectionResetError")]
        assert data == b""

    def test_backpressure_pauses_writing_until_delivery(self):
        """Past the link's window the writer's protocol hears
        ``pause_writing`` inside the write, and ``resume_writing`` once
        the link has carried the excess (16 B at 100 B/s: 0.16 s)."""

        async def scenario():
            net = VirtualNetwork()
            net.set_link("a", "b", bandwidth=100.0, buffer_bytes=8,
                         symmetric=False)
            _accepting(net)
            client = await net.open_connection("a", "b", 7, _Bytes)
            client.transport.write(bytes(16))
            paused = list(client.events)
            await net.clock.advance(0.1)
            still_paused = list(client.events)
            await net.clock.advance(1.0)
            return paused, still_paused, client.events

        paused, still_paused, events = run(scenario())
        assert paused == still_paused == ["pause"]
        assert events == ["pause", "resume"]

    def test_blackhole_swallows_one_direction_only(self):
        async def scenario():
            net = VirtualNetwork()
            _accepting(net, echo=True)
            client = await net.open_connection("a", "b", 7, _Bytes)
            # The established link goes half-open: a's frames vanish.
            net.set_link("a", "b", blackhole=True, symmetric=False)
            client.transport.write(b"x")
            await net.clock.advance(0.1)
            return len(net.events("void")), len(net.events("deliver"))

        voided, delivered = run(scenario())
        assert voided == 1
        assert delivered == 0  # the echo never happened: b heard nothing

    def test_default_faults_apply_to_new_links(self):
        net = VirtualNetwork()
        assert net.link("x", "y").latency == 0.0
        net.set_default(latency=0.1)
        assert net.link("p", "q").latency == 0.1
        assert net.link("x", "y").latency == 0.1  # existing links updated too

    def test_reading_faults_creates_no_link_record(self):
        net = VirtualNetwork()
        assert net.faults("x", "y").clean
        net.set_default(latency=0.1)
        assert net.faults("x", "y").latency == 0.1
        assert net._links == {}
        net.set_link("x", "y", loss=0.5, symmetric=False)
        assert net.faults("x", "y").loss == 0.5
        assert net.faults("y", "x").loss == 0.0
        assert set(net._links) == {("x", "y")}


class TestIdleConnectionCost:
    def test_idle_connection_costs_at_most_5500_bytes(self):
        """500 idle connections: two pipes, two endpoints and two
        ``Connection`` objects with their handlers each, and not one
        task."""
        count = 500

        async def scenario():
            net = VirtualNetwork(VirtualClock(), record_trace=False)
            hosts = [f"h{i}" for i in range(count)]
            clients = []
            net.bind("srv", 7, lambda: Connection(Inbox()))
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for host in hosts:
                    clients.append(await net.open_connection(
                        host, "srv", 7, lambda: Connection(Inbox())))
                await net.clock.advance(0.0)
                used = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            return used / count, len(asyncio.all_tasks())

        per_connection, tasks = run(scenario())
        assert tasks == 1  # the test's own
        assert per_connection <= 5500, per_connection
