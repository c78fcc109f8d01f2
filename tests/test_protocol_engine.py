"""Property-based tests for the sans-IO protocol engines.

Three contracts the drivers rely on:

* the :class:`~repro.protocol.ServerEngine` never emits an effect
  aimed at a peer that already departed (left or was spliced out) —
  drivers would otherwise write to dead connections or, worse, revive
  stale topology;
* it writes only to nodes whose own threads moved (or to a probed
  suspect): a parent learns its children from their dials;
* engines are deterministic state machines: replaying a recorded event
  trace into a fresh, identically-seeded engine reproduces the exact
  effect trace (what makes the cross-driver conformance goldens and
  crash-consistent debugging possible).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CoordinationServer
from repro.core.matrix import SERVER
from repro.protocol import (
    ComplaintMsg,
    ConnectionLost,
    CongestionDrop,
    CongestionRestore,
    EngineLog,
    JoinGrant,
    JoinRequest,
    KeepAlive,
    LeaveRequest,
    MessageReceived,
    PeerDeparted,
    PeerEngine,
    Probe,
    ProbeAck,
    Send,
    ServerEngine,
    SetParent,
    StartTimer,
    ThreadRemoved,
    TimerFired,
    UpstreamDown,
    replay,
)

def attributes(owner):
    """Every ``(name, value)`` ``owner`` holds: the ``__slots__`` of
    each class in its MRO, then its ``__dict__`` — what a bounded-state
    audit must see, whichever way a class stores its state."""
    for cls in type(owner).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if hasattr(owner, name):
                yield name, getattr(owner, name)
    yield from getattr(owner, "__dict__", {}).items()


server_ops = st.lists(
    st.tuples(
        st.sampled_from([
            "join", "leave", "complaint", "ack", "timeout",
            "lost", "drop", "restore",
        ]),
        st.integers(min_value=0, max_value=2**31 - 1),
    ),
    min_size=1,
    max_size=60,
)


def drive_server(engine: ServerEngine, ops, *, check=None) -> list:
    """Feed a random op sequence, resolving indices against live state.

    Returns the list of events actually handled (for replay tests).
    ``check`` is called as ``check(event, effects)`` after every step.
    """
    admitted: list[int] = []
    pending_timers: list[tuple] = []
    events = []

    def step(event):
        effects = engine.handle(event)
        events.append(event)
        for effect in effects:
            if hasattr(effect, "key"):  # StartTimer
                pending_timers.append(effect.key)
        if check is not None:
            check(event, effects)

    for op, raw in ops:
        if op == "join":
            before = set(engine.core.registry)
            step(MessageReceived(JoinRequest(reply_to=0)))
            admitted.extend(sorted(set(engine.core.registry) - before))
        elif op == "timeout":
            if not pending_timers:
                continue
            key = pending_timers.pop(raw % len(pending_timers))
            step(TimerFired(key))
        elif admitted:
            node = admitted[raw % len(admitted)]
            if op == "leave":
                step(MessageReceived(LeaveRequest(node_id=node), sender=node))
            elif op == "complaint":
                # Name the node's parent on one of its columns: the only
                # complaint the engine acts on.
                matrix = engine.core.matrix
                parents = (sorted(matrix.parents_of(node).items())
                           if node in matrix else [(0, node)])
                column, suspect = parents[raw % len(parents)]
                step(MessageReceived(ComplaintMsg(
                    reporter=node, column=column, suspect=suspect)))
            elif op == "ack":
                nonce = engine.pending_probes.get(node, 0)
                step(MessageReceived(ProbeAck(node_id=node, nonce=nonce)))
            elif op == "lost":
                step(ConnectionLost(node))
            elif op == "drop":
                step(MessageReceived(CongestionDrop(node_id=node)))
            elif op == "restore":
                step(MessageReceived(CongestionRestore(node_id=node)))
    return events


class TestServerEngineProperties:
    @settings(max_examples=60, deadline=None)
    @given(ops=server_ops, seed=st.integers(0, 2**31 - 1),
           mode=st.sampled_from(["append", "uniform"]))
    def test_never_targets_departed_peer(self, ops, seed, mode):
        engine = ServerEngine(CoordinationServer(
            3, 2, np.random.default_rng(seed), mode))

        def check(event, effects):
            for effect in effects:
                if isinstance(effect, Send) and effect.to != SERVER:
                    assert effect.to not in engine.departed, (
                        f"{event} made the engine send "
                        f"{effect.message} to departed peer {effect.to}"
                    )

        drive_server(engine, ops, check=check)

    @settings(max_examples=60, deadline=None)
    @given(ops=server_ops, seed=st.integers(0, 2**31 - 1),
           mode=st.sampled_from(["append", "uniform"]))
    def test_writes_only_to_nodes_whose_threads_moved(self, ops, seed, mode):
        """Every ``Send`` goes to the joiner, to a probed suspect, or to
        a node whose parents differ across the step; never to a parent
        whose child changed."""
        engine = ServerEngine(CoordinationServer(
            3, 2, np.random.default_rng(seed), mode))
        matrix = engine.core.matrix

        def rows():
            return {node: matrix.parents_of(node) for node in matrix.node_ids}

        before = rows()

        def check(event, effects):
            nonlocal before
            after = rows()
            joiners = after.keys() - before.keys()
            for effect in effects:
                if not isinstance(effect, Send) or effect.to == SERVER:
                    continue
                moved = before.get(effect.to) != after.get(effect.to)
                assert (effect.to in joiners or moved
                        or isinstance(effect.message, Probe)), (
                    f"{event} made the engine send {effect.message} to "
                    f"node {effect.to}, whose parents stayed "
                    f"{after.get(effect.to)}")
            before = after

        drive_server(engine, ops, check=check)

    @settings(max_examples=60, deadline=None)
    @given(ops=server_ops, seed=st.integers(0, 2**31 - 1),
           mode=st.sampled_from(["append", "uniform"]))
    def test_replay_reproduces_effect_trace(self, ops, seed, mode):
        recorded = ServerEngine(CoordinationServer(
            3, 2, np.random.default_rng(seed), mode))
        recorded.log = EngineLog()
        events = drive_server(recorded, ops)

        fresh = ServerEngine(CoordinationServer(
            3, 2, np.random.default_rng(seed), mode))
        assert replay(fresh, events) == recorded.log.effect_trace()
        assert fresh.departed == recorded.departed
        assert fresh.pending_probes == recorded.pending_probes


class TestServerEngineBoundedState:
    """``departed`` is derived (issued and no longer registered), so the
    engine's state is bounded by the live population over any uptime."""

    @settings(max_examples=60, deadline=None)
    @given(ops=server_ops, seed=st.integers(0, 2**31 - 1),
           mode=st.sampled_from(["append", "uniform"]))
    def test_departed_is_exactly_the_peers_reported_departed(
            self, ops, seed, mode):
        engine = ServerEngine(CoordinationServer(
            3, 2, np.random.default_rng(seed), mode))
        reported: set[int] = set()

        def check(event, effects):
            reported.update(
                e.node_id for e in effects if isinstance(e, PeerDeparted))
            assert engine.departed == reported
            assert len(engine.departed) == len(reported)
            assert all(node in engine.departed for node in reported)

        drive_server(engine, ops, check=check)

    def test_departed_answers_what_its_callers_ask(self):
        engine = ServerEngine(CoordinationServer(
            3, 2, np.random.default_rng(0)))
        for _ in range(4):
            engine.handle(MessageReceived(JoinRequest(reply_to=0)))
        engine.handle(MessageReceived(LeaveRequest(1), sender=1))
        engine.handle(ConnectionLost(3))
        departed = engine.departed
        assert 1 in departed and 3 in departed
        assert 0 not in departed            # still registered
        assert 4 not in departed            # never issued
        assert None not in departed         # a handle before admission
        assert len(departed) == 2 and sorted(departed) == [1, 3]
        assert departed == {1, 3} and {1, 3} == departed
        assert departed & engine.core.registry.keys() == set()
        assert departed & {0, 1, 2, 3} == {1, 3}
        assert not hasattr(departed, "add")

    def test_50k_churn_cycles_leave_no_container_above_the_population(self):
        # Uniform insertion: the mode whose key allocator also used to
        # remember one entry per join ever made.
        population, cycles = 64, 50_000
        engine = ServerEngine(CoordinationServer(
            8, 2, np.random.default_rng(5), "uniform"))
        join = MessageReceived(JoinRequest(reply_to=0))
        for _ in range(population):
            engine.handle(join)
        draws = np.random.default_rng(6).random(cycles).tolist()
        for cycle, draw in enumerate(draws):
            victim = engine.core.matrix.node_ids[int(draw * population)]
            if cycle % 2:
                engine.handle(ConnectionLost(victim))
            else:
                engine.handle(
                    MessageReceived(LeaveRequest(victim), sender=victim))
            engine.handle(join)
        core = engine.core
        assert len(core.registry) == population
        assert core.issued == population + cycles
        assert len(engine.departed) == cycles

        def containers(owner):
            for name, value in attributes(owner):
                if isinstance(value, (dict, set, list)):
                    yield f"{type(owner).__name__}.{name}", value
                    if isinstance(value, list):  # per-column lists
                        for index, inner in enumerate(value):
                            if isinstance(inner, (dict, set, list)):
                                yield f"{name}[{index}]", inner

        owners = (engine, core, core.matrix, core.matrix._allocator)
        sizes = {name: len(value)
                 for owner in owners for name, value in containers(owner)}
        assert "ThreadMatrix._rows" in sizes  # the walk saw the big ones
        assert {n: s for n, s in sizes.items() if s > population} == {}


class TestPeerEngineBoundedState:
    def test_50k_cycles_leave_no_container_above_the_columns(self):
        """Re-clips, removed threads and silent sessions over ``k``
        columns: each of the engine's maps and sets holds at most one
        entry per column, over any uptime."""
        k, cycles = 8, 50_000
        engine = PeerEngine(7)
        draws = np.random.default_rng(4).integers(
            0, 1 << 20, size=(cycles, 3)).tolist()
        peak = 0
        for op, column, node in draws:
            column %= k
            message = (
                SetParent(column=column, parent=node),
                ThreadRemoved(column=column),
                None,
            )[op % 3]
            if message is not None:
                engine.handle(MessageReceived(message))
            else:
                engine.handle(UpstreamDown(
                    column=column, parent=engine.parents.get(column, node),
                    saw_traffic=False))
            peak = max(peak, len(engine.parents), len(engine.complained),
                       len(engine._backoffs))
        assert engine.complained and engine.parents  # the run reached them
        assert peak <= k


class TestServerEngineSenderAuthority:
    """The connection owner, not the id a message claims, decides whose
    probe is answered and whose threads move."""

    @staticmethod
    def _engine_with_peers(count: int):
        engine = ServerEngine(CoordinationServer(
            3, 2, np.random.default_rng(0)))
        for _ in range(count):
            engine.handle(MessageReceived(JoinRequest(reply_to=0)))
        return engine, sorted(engine.core.registry)

    @staticmethod
    def _a_child_of(engine, parent: int) -> tuple[int, int]:
        """``(column, child)`` of one thread ``parent`` feeds."""
        return next((column, child) for column, child
                    in engine.core.matrix.children_of(parent).items()
                    if child is not None)

    def test_spoofed_probe_ack_does_not_save_the_suspect(self):
        engine, (a, _, _) = self._engine_with_peers(3)
        column, b = self._a_child_of(engine, a)
        effects = engine.handle(MessageReceived(
            ComplaintMsg(reporter=b, column=column, suspect=a), sender=b))
        (timer,) = [e for e in effects if isinstance(e, StartTimer)]
        nonce = engine.pending_probes[a]

        engine.handle(MessageReceived(ProbeAck(node_id=a, nonce=nonce), sender=b))
        assert engine.pending_probes == {a: nonce}

        repaired = engine.handle(TimerFired(timer.key))
        assert PeerDeparted(node_id=a, reason="crash") in repaired
        assert a in engine.departed

    def test_only_the_suspects_child_gets_it_probed(self):
        """A peer that does not feed the reporter on the named column
        is never probed on its word, so it can never be spliced out;
        its child's complaint still probes it."""
        engine, peers = self._engine_with_peers(5)
        matrix = engine.core.matrix
        for reporter in peers:
            for column in range(matrix.k):
                for suspect in peers:
                    if (column in matrix.row(reporter).columns
                            and matrix.parent_in_column(reporter, column)
                            == suspect):
                        continue
                    effects = engine.handle(MessageReceived(ComplaintMsg(
                        reporter=reporter, column=column, suspect=suspect)))
                    assert effects == [], (reporter, column, suspect)
        assert engine.pending_probes == {}

        column, child = self._a_child_of(engine, peers[0])
        effects = engine.handle(MessageReceived(ComplaintMsg(
            reporter=child, column=column, suspect=peers[0])))
        assert Send(peers[0], Probe(nonce=engine.pending_probes[peers[0]])) in effects
        assert any(isinstance(e, StartTimer) for e in effects)

    def test_complaint_speaks_for_its_sender(self):
        """Claiming to be the suspect's child does not make a complaint
        count: the connection's owner is the reporter."""
        engine, (a, b, c) = self._engine_with_peers(3)
        column, child = self._a_child_of(engine, a)
        spoofer = b if child == c else c
        effects = engine.handle(MessageReceived(
            ComplaintMsg(reporter=child, column=column, suspect=a),
            sender=spoofer))
        assert effects == []

    def test_spoofed_congestion_messages_move_the_senders_threads(self):
        engine, (a, b, _) = self._engine_with_peers(3)
        matrix = engine.core.matrix
        row_a = matrix.parents_of(a)

        effects = engine.handle(MessageReceived(CongestionDrop(node_id=a), sender=b))
        assert matrix.parents_of(a) == row_a
        assert matrix.row(b).degree == 1
        assert isinstance(effects[0], Send) and effects[0].to == b
        assert isinstance(effects[0].message, ThreadRemoved)

        engine.handle(MessageReceived(CongestionRestore(node_id=a), sender=b))
        assert matrix.parents_of(a) == row_a
        assert matrix.row(b).degree == 2


peer_events = st.lists(
    st.one_of(
        st.builds(
            lambda assignments: MessageReceived(JoinGrant(
                node_id=7, assignments=tuple(assignments))),
            st.lists(st.tuples(st.integers(0, 3),
                               st.integers(-1, 5)), max_size=3),
        ),
        st.builds(
            lambda column, parent: MessageReceived(
                SetParent(column=column, parent=parent)),
            st.integers(0, 3), st.integers(-1, 5),
        ),
        st.builds(
            lambda column: MessageReceived(ThreadRemoved(column=column)),
            st.integers(0, 3),
        ),
        st.builds(
            lambda column, sender: MessageReceived(
                KeepAlive(column=column, sender=sender)),
            st.integers(0, 3), st.integers(0, 5),
        ),
        st.builds(
            UpstreamDown,
            column=st.integers(0, 3),
            parent=st.integers(-1, 5),
            saw_traffic=st.booleans(),
        ),
    ),
    min_size=1,
    max_size=40,
)


class TestPeerEngineProperties:
    @settings(max_examples=60, deadline=None)
    @given(events=peer_events)
    def test_replay_reproduces_effect_trace(self, events):
        recorded = PeerEngine(7)
        recorded.log = EngineLog()
        for event in events:
            recorded.handle(event)

        fresh = PeerEngine(7)
        assert replay(fresh, events) == recorded.log.effect_trace()
        assert fresh.parents == recorded.parents
        assert fresh.complained == recorded.complained
