"""Unit tests for the virtual clock and the in-memory fault network."""

import asyncio

import numpy as np
import pytest

from repro.coding import CodedPacket
from repro.coding.wire import WireFormatError, decode_packet, encode_packet
from repro.net.testing import VirtualClock, VirtualNetwork


def run(coro):
    return asyncio.run(coro)


async def _read_n(reader, n):
    """Exactly ``n`` bytes off a virtual reader (which only has the
    seam's ``read``); EOFError if the stream ends first."""
    data = b""
    while len(data) < n:
        chunk = await reader.read(n - len(data))
        if not chunk:
            raise EOFError(f"stream ended {n - len(data)} bytes short")
        data += chunk
    return data


async def _echo_handler(reader, writer):
    try:
        while data := await reader.read(1):
            writer.write(data)
            await writer.drain()
    except ConnectionError:
        pass


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
            net.bind("b", 7, _echo_handler)
            reader, writer = await net.open_connection("a", "b", 7)
            writer.write(b"x")
            await writer.drain()
            data = await _read_n(reader, 1)
            writer.close()
            await net.shutdown()
            return data

        assert run(scenario()) == b"x"

    def test_clean_link_delivers_synchronously_without_a_pump(self):
        async def scenario():
            net = VirtualNetwork()
            net.bind("b", 7, _echo_handler)
            reader, writer = await net.open_connection("a", "b", 7)
            tasks = len(net._tasks)  # the accept handler only
            writer.write(b"x")
            # No await since the write: the byte is already delivered.
            delivered = net.events("deliver")
            writer.writelines([b"ab", b"cd"])
            coalesced = net.events("deliver")[len(delivered):]
            pumps = len(net._tasks) - tasks
            await net.shutdown()
            return delivered, coalesced, pumps

        delivered, coalesced, pumps = run(scenario())
        assert [entry[2:] for entry in delivered] == [("a", "b", 1)]
        assert [entry[2:] for entry in coalesced] == [("a", "b", 4)]
        assert pumps == 0

    def test_fault_set_mid_connection_keeps_byte_order(self):
        """Scripting a fault on a live link moves the same pipe onto the
        pump path; bytes already buffered stay ahead, and a write made
        after the link is clean again still queues behind what is in
        flight."""

        async def scenario():
            net = VirtualNetwork()
            received = asyncio.get_running_loop().create_future()

            async def handler(reader, writer):
                received.set_result(await _read_n(reader, 11))

            net.bind("b", 7, handler)
            _, writer = await net.open_connection("a", "b", 7)
            tasks = len(net._tasks)
            writer.write(b"one")
            net.set_link("a", "b", latency=0.1, symmetric=False)
            writer.write(b"two")
            pumps = len(net._tasks) - tasks
            net.set_link("a", "b", latency=0.0, symmetric=False)
            writer.write(b"three")
            await net.clock.advance(1.0)
            data = await received
            await net.shutdown()
            return data, pumps

        assert run(scenario()) == (b"onetwothree", 1)

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

        async def scenario(expect, **fault):
            net = VirtualNetwork(seed=3)
            accepted = {}

            async def handler(reader, writer):
                accepted["reader"] = reader

            net.bind("b", 7, handler)
            _, writer = await net.open_connection("a", "b", 7)
            net.set_link("a", "b", symmetric=False, **fault)
            writer.writelines(frames)
            await net.clock.advance(0.1)
            received = await _read_n(accepted["reader"], expect)
            await net.shutdown()
            return net, received

        net, _ = run(scenario(0, loss=1.0))
        assert [entry[4] for entry in net.events("lose")] == [size] * 5
        assert not net.events("deliver")

        net, received = run(scenario(5 * size, corrupt=1.0))
        assert len(net.events("corrupt")) == 5
        for start in range(0, len(received), size):
            with pytest.raises(WireFormatError):
                decode_packet(received[start:start + size])

    def test_latency_delays_delivery(self):
        async def scenario():
            net = VirtualNetwork()
            net.set_link("a", "b", latency=0.25)
            net.bind("b", 7, _echo_handler)
            dial = asyncio.ensure_future(net.open_connection("a", "b", 7))
            await net.clock.advance(0.25)  # the SYN pays one link latency
            reader, writer = await dial
            connect_time = net.clock.time()
            writer.write(b"x")
            task = asyncio.ensure_future(_read_n(reader, 1))
            await net.clock.advance(1.0)
            await task
            echo_at = [t for t, kind, src, _, *_ in net.trace
                       if kind == "deliver" and src == "b"]
            await net.shutdown()
            return connect_time, echo_at[0]

        connect_time, echoed = run(scenario())
        assert connect_time == 0.25
        assert echoed == pytest.approx(0.75)  # there and back

    def test_connect_refused_without_listener(self):
        async def scenario():
            net = VirtualNetwork()
            with pytest.raises(ConnectionRefusedError):
                await net.open_connection("a", "b", 7)
            return net.events("refused")

        assert len(run(scenario())) == 1

    def test_partition_refuses_and_voids_then_heals(self):
        async def scenario():
            net = VirtualNetwork()
            net.bind("b", 7, _echo_handler)
            reader, writer = await net.open_connection("a", "b", 7)
            net.partition("a", "b")
            writer.write(b"x")
            await writer.drain()
            await net.clock.advance(0.1)
            voided = len(net.events("void"))
            with pytest.raises(ConnectionRefusedError):
                await net.open_connection("a", "b", 7)
            net.heal("a", "b")
            writer.write(b"y")
            await writer.drain()
            data = await _read_n(reader, 1)
            await net.shutdown()
            return voided, data

        voided, data = run(scenario())
        assert voided == 1
        assert data == b"y"  # the partitioned byte is gone for good

    def test_loss_is_seeded_and_frame_aligned(self):
        async def scenario(seed):
            net = VirtualNetwork(seed=seed)
            net.set_link("a", "b", loss=0.5, symmetric=False)
            net.bind("b", 7, _echo_handler)
            _, writer = await net.open_connection("a", "b", 7)
            for _ in range(20):
                writer.write(b"z")
            await net.clock.advance(0.1)
            lost = len(net.events("lose"))
            await net.shutdown()
            return lost

        first = run(scenario(5))
        assert first == run(scenario(5))  # same seed, same losses
        assert 0 < first < 20

    def test_corruption_flips_exactly_one_bit(self):
        async def scenario():
            net = VirtualNetwork()
            net.set_link("a", "b", corrupt=1.0, symmetric=False)
            net.bind("b", 7, _echo_handler)
            reader, writer = await net.open_connection("a", "b", 7)
            original = bytes(range(32))
            writer.write(original)
            task = asyncio.ensure_future(_read_n(reader, 32))
            await net.clock.advance(0.1)
            received = await task
            await net.shutdown()
            return original, received

        original, received = run(scenario())
        assert received != original
        diff = [o ^ r for o, r in zip(original, received)]
        flipped = [d for d in diff if d]
        assert len(flipped) == 1 and bin(flipped[0]).count("1") == 1

    def test_close_resets_the_other_side(self):
        async def scenario():
            net = VirtualNetwork()
            accepted = {}

            async def handler(reader, writer):
                accepted["reader"] = reader
                accepted["writer"] = writer

            net.bind("b", 7, handler)
            reader, writer = await net.open_connection("a", "b", 7)
            await net.clock.advance(0.0)
            writer.close()
            await net.clock.advance(0.1)
            # Server side: reads run out, writes raise.
            assert await accepted["reader"].read(1) == b""
            accepted["writer"].write(b"x")
            with pytest.raises(ConnectionResetError):
                await accepted["writer"].drain()
            await net.shutdown()

        run(scenario())

    def test_backpressure_blocks_drain_until_delivery(self):
        async def scenario():
            net = VirtualNetwork()
            net.set_link("a", "b", bandwidth=100.0, buffer_bytes=8,
                         symmetric=False)
            net.bind("b", 7, _echo_handler)
            _, writer = await net.open_connection("a", "b", 7)
            writer.write(bytes(16))  # 16B at 100B/s = 0.16s in flight
            drained = asyncio.ensure_future(writer.drain())
            await net.clock.advance(0.01)
            still_blocked = not drained.done()
            await net.clock.advance(1.0)
            await drained
            await net.shutdown()
            return still_blocked

        assert run(scenario()) is True

    def test_blackhole_swallows_one_direction_only(self):
        async def scenario():
            net = VirtualNetwork()
            net.bind("b", 7, _echo_handler)
            reader, writer = await net.open_connection("a", "b", 7)
            # The established link goes half-open: a's frames vanish.
            net.set_link("a", "b", blackhole=True, symmetric=False)
            writer.write(b"x")
            await writer.drain()
            await net.clock.advance(0.1)
            await net.shutdown()
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
