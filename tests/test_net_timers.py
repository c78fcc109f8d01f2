"""Every bound on a connection is a deadline on the node's clock.

The server's engine timers fire when they are due (the peer's silence,
the pumps' keep-alives and the first-frame bound are pinned beside the
paths they bound, in ``test_net_inbound`` and ``test_net_framing``),
and the timer state a node leaves behind is one timer per connection,
never one per packet: after a broadcast, after 50k child
attach/detach cycles, and through 2 000 re-clips of a peer's threads.
A thread that ends — re-clipped, stopped or killed — takes its redial
timer or pending dial with it.
"""

import asyncio

import pytest

from repro.net import ServerNode
from repro.net.testing import (
    ChaosConfig,
    ChaosHarness,
    VirtualClock,
    VirtualNetwork,
)
from repro.obs import Registry
from repro.protocol import SetParent, StartTimer, ThreadRemoved, TimerFired

from tests.netkit import listen, snapshot_names
from tests.test_net_inbound import PARAMS, PORT, _child_of, _timed, at
from tests.test_net_pumps import _pump_set, _serving


def _server(net) -> ServerNode:
    return ServerNode(bytes(30), PARAMS, k=1, d=1, port=PORT,
                      transport=net.transport("server"))


def test_server_timer_fires_when_due_and_stop_cancels_the_rest():
    async def scenario():
        net = VirtualNetwork()
        server = _server(net)
        await server.start()
        heard = []
        server.engine.handle = _timed(net.clock, server.engine.handle, heard)
        await net.clock.advance(0.2)
        server._perform([StartTimer(key=("due",), delay=0.5),
                         StartTimer(key=("late",), delay=2.0)])
        await net.clock.advance(1.0)
        fired = [(t, e) for t, e in heard if isinstance(e, TimerFired)]
        await server.stop()
        await net.clock.advance(2.0)
        after_stop = [(t, e) for t, e in heard if isinstance(e, TimerFired)]
        return fired, after_stop

    fired, after_stop = asyncio.run(scenario())
    assert fired == [(at(0.7), TimerFired(("due",)))]
    assert after_stop == fired


class TestTimerState:
    def test_server_holds_only_the_engine_timers_still_due(self):
        async def scenario():
            net = VirtualNetwork()
            server = _server(net)
            await server.start()
            server._perform([
                StartTimer(key=("due", n), delay=0.1) for n in range(100)
            ] + [StartTimer(key=("late",), delay=5.0)])
            await net.clock.advance(1.0)
            armed = len(server._timers)
            await server.stop()
            live = sum(not timer.done() for *_, timer in net.clock._timers)
            return armed, len(server._timers), live

        # stop cancels the emission round's timer too
        assert asyncio.run(scenario()) == (1, 0, 0)

    def test_broadcast_leaves_timers_per_connection_not_per_packet(self):
        """After a broadcast converges the clock's heap holds a few
        entries per open connection — not one per packet read or parked
        — and no task was left behind."""
        config = ChaosConfig(
            peers=8, k=8, d=2, generation_size=4, payload_size=16,
            generations=8, silence_timeout=10, keepalive_interval=2,
            probe_timeout=5, send_interval=0.01, seed=0)

        async def scenario():
            harness = ChaosHarness(config, record_trace=False)
            try:
                await harness.start()
                tasks = len(asyncio.all_tasks())
                assert await harness.run_until(harness.converged)
                nodes = (harness.server, *harness.peers)
                connections = len(harness.peers) + sum(
                    len(node.pumps.attached()) for node in nodes)
                return (tasks, len(asyncio.all_tasks()),
                        len(harness.clock._timers), connections)
            finally:
                await harness.teardown()

        before, after, heap, connections = asyncio.run(scenario())
        assert after == before
        assert connections == 8 + 16
        assert heap <= 3 * connections

    def test_50k_attach_detach_cycles_leave_no_timer_or_stats_behind(self):
        """Every child that ever dialed a ``PumpSet`` under a keep-alive
        timer gets a fresh key; the live pumps, their one timer each,
        ``stats`` and the registry must follow the live population, not
        the history."""
        population, cycles, interval = 16, 50_000, 0.5

        class Engine:
            generation_count = 8

            def handle(self, event):
                return []

        async def scenario():
            clock = VirtualClock()
            registry = Registry("node")
            pumps = _pump_set(
                Engine(), keepalive_interval=interval, clock=clock,
                registry=registry)
            live = list(range(population))
            for key in live:
                _serving(pumps, key)
            instruments = len(snapshot_names(registry))
            for cycle in range(cycles):
                slot = cycle % population
                gone, fresh = live[slot], population + cycle
                pumps.get(gone).close()
                live[slot] = fresh
                _serving(pumps, fresh)
                if slot == population - 1:
                    # Each pump lives a quarter interval: the timers of
                    # the last three generations of pumps are not due
                    # yet, and must not be armed.
                    await clock.advance(interval / 4)
            state = (
                len(pumps._pumps), len(pumps.stats),
                len(snapshot_names(registry)) - instruments,
                sum(not entry.done() for *_, entry in clock._timers),
                len(clock._timers),
            )
            pumps.close()
            return state

        pumps, stats, grown, armed, heap = asyncio.run(scenario())
        assert (pumps, stats, grown) == (population, population + 1, 0)
        assert armed == population  # one keep-alive timer per live pump
        assert heap <= 3 * population

    def test_2000_reclips_leave_one_thread_and_one_parent_per_column(self):
        """A peer whose threads are re-clipped over and over, each
        between two parents: what it holds afterwards follows the
        columns it holds, not the re-clips — one thread entry, no task
        and at most one open parent connection per column — and the
        clock heap stays within the per-connection bound throughout:
        each re-clip's cancelled silence timer is popped, not left
        due."""
        k, reclips, silence = 2, 2_000, 1.0

        async def scenario():
            net = VirtualNetwork()

            peer = _child_of(
                net, *(listen(net, f"parent{c}", 0) for c in range(k)),
                silence_timeout=silence)
            for column in range(k):
                peer._addresses[50 + column] = listen(
                    net, f"other{column}", 0).address
                peer._restart_thread(column)
            heap = 0
            for reclip in range(reclips):
                column = reclip % k
                parent_id = (5 if reclip // k % 2 else 50) + column
                peer._control_message(
                    SetParent(column=column, parent=parent_id))
                await net.clock.advance(0.005)
                heap = max(heap, len(net.clock._timers))
            tasks = len(asyncio.all_tasks()) - 1
            state = (len(peer.parents), len(peer._threads), tasks,
                     len(peer.pumps._parents), heap)
            peer.kill()
            return state

        held, threads, tasks, parents, heap = asyncio.run(scenario())
        assert held == k
        assert threads == held and tasks == 0 and parents == held
        assert heap <= 3 * held


class TestThreadEnd:
    """A held thread is its link and pending dial, or its redial timer;
    whatever ends the thread cancels them before they act."""

    @pytest.mark.parametrize("stop", [False, True], ids=["reclip", "stop"])
    def test_thread_ended_in_its_backoff_never_redials(self, stop):
        """A dial to the old parent is refused and the thread backs off;
        re-clipped (or stopped) during that backoff, it never dials the
        old parent again and its redial timer never fires."""

        async def scenario():
            failures = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: failures.append(context))
            net = VirtualNetwork()
            old = listen(net, "old", 0)
            old.close()  # every dial to it is refused
            peer = _child_of(net, old)
            peer._addresses[6] = listen(net, "new", 0).address
            peer._restart_thread(0)
            await net.clock.advance(0.01)
            backing_off = peer._threads[0][0] is None
            peer._control_message(ThreadRemoved(column=0) if stop
                                   else SetParent(column=0, parent=6))
            live = sum(not timer.done() for *_, timer in net.clock._timers)
            await net.clock.advance(0.5)
            dials = [entry[1:3] for entry in net.trace
                     if entry[1] in ("connect", "refused")]
            state = (backing_off, live, dials, peer.stats.reconnects,
                     failures)
            peer.kill()
            return state

        backing_off, live, dials, reconnects, failures = asyncio.run(
            scenario())
        assert backing_off
        assert dials == [("refused", "peer")] + (
            [] if stop else [("connect", "peer")])
        assert live == 0  # the new dial has no SYN latency to wait out
        assert reconnects == 0 and failures == []

    def test_peer_killed_while_dialing_leaves_no_open_pipe(self):
        """A dial still in its SYN latency when the peer dies is
        cancelled: the parent never accepts it, and nothing connects."""

        async def scenario():
            net = VirtualNetwork()
            accepted = []
            parent = listen(net, "parent", 0, accepted=accepted)
            net.set_link("peer", "parent", latency=0.1)
            peer = _child_of(net, parent)
            peer._restart_thread(0)
            await net.clock.advance(0.05)
            pending = not peer._threads[0][1].done()
            peer.kill()
            await net.clock.advance(0.5)
            connects = [entry for entry in net.trace if entry[1] == "connect"]
            return pending, accepted, connects, peer.pumps._parents

        pending, accepted, connects, parents = asyncio.run(scenario())
        assert pending
        assert accepted == [] and connects == [] and parents == {}
