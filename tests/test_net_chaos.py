"""The chaos tier: deterministic fault-injection scenarios in memory.

Every scenario in :data:`repro.net.testing.SCENARIOS` runs the real
:class:`ServerNode` / :class:`PeerNode` code against the virtual
network — no sockets, virtual time — and asserts the §3-§6 protocol
invariants.  The whole tier runs in a couple of seconds of wall clock.
"""

import pytest

from repro.net.testing import (
    SCENARIOS,
    ChaosConfig,
    ChaosHarness,
    run_scenario,
    run_scenario_sync,
)


class TestCatalogue:
    def test_at_least_ten_scenarios(self):
        assert len(SCENARIOS) >= 10

    def test_every_scenario_documented(self):
        for spec in SCENARIOS.values():
            assert spec.description, spec.name

    def test_unknown_scenario_is_a_clear_error(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            run_scenario_sync("no_such_scenario")

    def test_virtual_only_scenario_refuses_live_transport(self):
        with pytest.raises(ValueError, match="virtual"):
            run_scenario_sync("lossy_links", transport="live")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_passes(name):
    result = run_scenario_sync(name, seed=0)
    assert result.ok, "\n".join([result.summary(), *result.violations])
    assert result.converged
    assert result.trace, "virtual run produced no event trace"


@pytest.mark.parametrize("name", ["crash_parent_midstream", "lossy_links"])
def test_same_seed_same_trace(name):
    """Acceptance: one seed, two runs, byte-identical event traces."""
    first = run_scenario_sync(name, seed=11)
    second = run_scenario_sync(name, seed=11)
    assert first.ok and second.ok
    assert first.trace == second.trace
    assert first.elapsed == second.elapsed


def test_crash_parent_acceptance():
    """The ISSUE's named scenario: kill a parent mid-stream; every
    surviving peer must still decode all generations."""
    result = run_scenario_sync("crash_parent_midstream", seed=0)
    assert result.ok
    assert result.killed, "no peer was killed"
    assert result.repairs >= 1
    # Convergence in ChaosHarness covers only survivors, and
    # check_invariants compares every survivor's decode to the content.
    assert not result.violations


def test_reclipped_child_is_sent_nothing_it_reported_on_redial():
    """Six generations over lossy peer links, a feeding peer killed
    half-way: the orphaned children redial their new parents with the
    generations they already hold, and from that moment the parent
    never spends a packet on one of them — read off every sender's
    engine log, where each attach opens a fresh pump."""
    import asyncio
    from dataclasses import replace

    from repro.dataplane import (
        ChildAttached,
        ChildCompleted,
        ChildDetached,
        EmitToChildren,
        EngineLog,
    )
    from repro.net.testing import get_scenario

    from tests.test_dataplane_engine import served

    spec = get_scenario("lossy_crash_multigen")

    class Logged(ChaosHarness):
        async def start(self, peers=None):
            await super().start(peers)
            for node in (self.server, *self.peers):
                node.dataplane.log = EngineLog()

    async def scenario():
        harness = Logged(replace(spec.config, seed=0))
        try:
            await spec.run(harness)
            return harness.result(spec.name), [
                node.dataplane.log
                for node in (harness.server, *harness.peers)
            ]
        finally:
            await harness.teardown()

    result, logs = asyncio.run(scenario())
    assert result.ok, result.summary()
    assert result.repairs >= 1 and result.trace
    assert any(entry[1] == "lose" for entry in result.trace)

    redials = sent = 0
    for log in logs:
        reported: dict = {}  # child -> generations it has reported
        for event, effects in zip(log.events, log.steps):
            if isinstance(event, ChildAttached):
                base, extras = event.completed
                reported[event.child] = {*range(base), *extras}
                redials += base > 0
            elif isinstance(event, ChildCompleted):
                if event.child in reported:
                    reported[event.child] |= {*range(event.base),
                                              *event.extras}
            elif isinstance(event, ChildDetached):
                reported.pop(event.child, None)
            for effect in effects:
                if isinstance(effect, EmitToChildren):
                    for child, generation in served(effect):
                        sent += 1
                        assert generation not in reported.get(child, ())
    assert redials >= 2, "no child redialed holding a finished generation"
    assert sent > 100


def test_a_join_writes_to_no_existing_peer():
    """A parent learns its child from the child's dial, so an
    append-mode join leaves every existing peer's control engine
    untouched — its parents included — while the joiner decodes."""
    import asyncio

    async def scenario():
        harness = ChaosHarness(ChaosConfig(seed=0))
        try:
            await harness.start()
            assert await harness.run_until(harness.converged)
            await harness.settle(1.0)
            events = [peer.registry.counter("engine.events").value
                      for peer in harness.peers]
            joiner = await harness.add_peer()
            parents = set(
                harness.server.core.matrix.parents_of(joiner.node_id).values())
            assert await harness.run_until(harness.converged)
            await harness.settle(1.0)
            return events, [
                peer.registry.counter("engine.events").value
                for peer in harness.peers[:len(events)]
            ], {harness.index_of(parent) for parent in parents} - {None}
        finally:
            await harness.teardown()

    before, after, peer_parents = asyncio.run(scenario())
    assert peer_parents, "the joiner clipped only to the server"
    assert after == before


def test_no_socket_is_ever_opened(monkeypatch):
    """The virtual tier must not touch the real network stack (the
    event loop's internal self-pipe is the only socket allowed)."""
    import asyncio
    import socket

    async def _bomb(*args, **kwargs):
        raise AssertionError("chaos scenario opened a real connection")

    monkeypatch.setattr(asyncio, "open_connection", _bomb)
    monkeypatch.setattr(asyncio, "start_server", _bomb)
    monkeypatch.setattr(
        socket.socket, "connect",
        lambda *a, **k: (_ for _ in ()).throw(
            AssertionError("chaos scenario dialed a real socket")
        ),
    )
    result = run_scenario_sync("crash_parent_midstream", seed=0)
    assert result.ok


def test_harness_rejects_unknown_transport():
    with pytest.raises(ValueError, match="transport"):
        ChaosHarness(ChaosConfig(), transport="carrier-pigeon")


def test_run_scenario_is_a_coroutine():
    import asyncio

    result = asyncio.run(run_scenario("baseline", seed=2))
    assert result.ok


@pytest.mark.slow
def test_single_peer_chain_from_server_on_live_sockets():
    """One peer, every thread clipped straight to the server, over real
    loopback TCP (the smallest deployment the harness can stand up)."""
    import asyncio

    async def scenario():
        harness = ChaosHarness(
            ChaosConfig(peers=1, send_interval=0.004, deadline=30.0),
            transport="live",
        )
        try:
            await harness.start()
            await harness.run_until(harness.converged)
            await harness.settle()
            harness.check_invariants()
            return harness.result("single_peer")
        finally:
            await harness.teardown()

    result = asyncio.run(scenario())
    assert result.ok, result.summary()
    assert result.transport == "live" and not result.trace


class TestFlightRecorderDump:
    """A failing invariant must come with a flight-recorder dump."""

    def _run_with_forced_violation(self):
        import asyncio

        async def _scenario():
            harness = ChaosHarness(ChaosConfig(peers=3), transport="virtual")
            try:
                await harness.start()
                await harness.run_until(harness.converged)
                # Corrupt one peer's thread map behind the server's back:
                # the matrix-vs-engine invariant must now fail.
                peer = harness.peers[0]
                column = next(iter(peer.engine.parents))
                peer.engine.parents[column] = 9999
                await harness.settle()
                harness.check_invariants()
                result = harness.result("forced_violation")
            finally:
                await harness.teardown()
            return result

        return asyncio.run(_scenario())

    def test_violation_emits_dump_of_implicated_engines(self):
        result = self._run_with_forced_violation()
        assert result.violations, "tampering did not trip the invariant"
        assert "flight recorder: server" in result.flight_dump
        assert "flight recorder: peer0" in result.flight_dump
        # The dump carries actual engine steps, not empty recorders.
        assert "->" in result.flight_dump

    def test_summary_includes_the_dump(self):
        result = self._run_with_forced_violation()
        assert not result.ok
        assert "flight recorder" in result.summary()

    def test_passing_run_has_no_dump(self):
        result = run_scenario_sync("baseline", seed=0)
        assert result.ok
        assert result.flight_dump == ""


class TestPeerStartFailure:
    """A peer whose admission fails must not keep its child listener or
    its control connection open."""

    PORT = 4000

    @staticmethod
    def _bound(net, host):
        return [key for key in net._listeners if key[0] == host]

    def test_refused_dial_releases_the_listener(self):
        import asyncio

        from repro.net import PeerNode
        from repro.net.testing import VirtualNetwork

        async def scenario():
            net = VirtualNetwork()
            peer = PeerNode("server", self.PORT, transport=net.transport("peer0"))
            with pytest.raises(ConnectionRefusedError):
                await peer.start()
            bound = self._bound(net, "peer0")
            await net.shutdown()
            return peer, bound

        peer, bound = asyncio.run(scenario())
        assert bound == []
        assert not peer._running

    def test_server_closing_mid_admission_then_a_clean_retry(self):
        import asyncio

        from repro.coding.generation import GenerationParams
        from repro.net import MessageStream, PeerNode, ServerNode
        from repro.net.testing import VirtualNetwork

        async def scenario():
            net = VirtualNetwork()

            async def slam(reader, writer):
                await MessageStream(reader).next()  # the JoinRequest
                writer.close()

            flaky = net.bind("server", self.PORT, slam)
            peer = PeerNode("server", self.PORT, transport=net.transport("peer0"))
            with pytest.raises(ConnectionError, match="during admission"):
                await peer.start()
            after_failure = self._bound(net, "peer0")
            flaky.close()

            server = ServerNode(
                bytes(64), GenerationParams(4, 16), k=2, d=1,
                port=self.PORT, transport=net.transport("server"),
            )
            await server.start()
            await peer.start()
            after_retry = self._bound(net, "peer0")
            joined = peer.node_id
            await server.stop()
            await peer.close()
            await net.shutdown()
            return after_failure, after_retry, joined

        after_failure, after_retry, joined = asyncio.run(scenario())
        assert after_failure == []
        assert len(after_retry) == 1
        assert joined is not None
