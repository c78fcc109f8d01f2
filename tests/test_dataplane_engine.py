"""Unit and property tests for the sans-IO data-plane engines.

The :class:`~repro.dataplane.SourceEngine` / :class:`RelayEngine` pair
owns every data-plane decision that used to live inline in three
drivers; these tests pin the contract each driver relies on — the
receive gate, source scheduling, push fan-out on every arrival or on
rank-raising ones only, pull mode's unconditional per-edge emission,
seed-bursts, idle fills — plus the one behaviour claim the
``innovative`` spelling is kept for: on a deployment it sends fewer
data packets than ``eager``.

The need view — what each engine sends a child chosen by the
generations the child reported complete, the empty set until it
reports — has its unit tests, one hypothesis machine over both engines,
and the bounded-state audit at the end.
"""

import asyncio
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.coding import GenerationParams, Recoder, SourceEncoder
from repro.dataplane import (
    ChildAttached,
    ChildCompleted,
    ChildDetached,
    EmitRound,
    EmitToChildren,
    EngineLog,
    GenerationComplete,
    IdlePoll,
    Ingested,
    MarkComplete,
    PacketArrived,
    PullEmit,
    RelayEngine,
    SourceEngine,
    replay,
)
from repro.dataplane.needs import CompletedSet
from repro.net.peer import FORWARD_POLICIES, PeerNode
from repro.net.testing import ChaosConfig, ChaosHarness
from repro.obs import DataplaneInstruments, Registry
from tests.test_protocol_engine import attributes

PARAMS = GenerationParams(generation_size=4, payload_size=8)
GENERATIONS = 2
NEEDED = GENERATIONS * PARAMS.generation_size
#: What a child that has not reported anything holds.
NOTHING = (0, ())


def make_encoder(seed=0):
    rng = np.random.default_rng(seed)
    size = GENERATIONS * PARAMS.generation_size * PARAMS.payload_size
    content = bytes(rng.integers(0, 256, size=size, dtype=np.uint8))
    return SourceEncoder(content, PARAMS, rng)


def counted(engine):
    """Attach the instruments that count a bare engine's arrivals and
    emissions (``engine.obs.mixtures_out.value`` and the rest)."""
    registry = Registry("test")
    DataplaneInstruments(registry).attach(engine, registry)
    return engine


def make_relay(seed=1, **kwargs):
    recoder = Recoder(PARAMS, GENERATIONS, np.random.default_rng(seed), 7)
    return counted(RelayEngine(recoder, **kwargs))


def feed_packets(engine, count, *, seed=0):
    """Deliver ``count`` round-robin source packets; return them."""
    encoder = make_encoder(seed)
    packets = [
        encoder.emit(i % GENERATIONS) for i in range(count)
    ]
    for packet in packets:
        engine.handle(PacketArrived(packet))
    return packets


class TestPolicies:
    """The ``forward_policy`` spelling a deployment is configured with
    is one bit of the relay: whether a dependent arrival fans out."""

    def test_catalogue(self):
        assert tuple(FORWARD_POLICIES) == ("eager", "innovative")

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown forward_policy"):
            PeerNode("server", 1, forward_policy="flooding")

    def test_verdicts(self):
        assert FORWARD_POLICIES == {"eager": True, "innovative": False}
        peer = PeerNode("server", 1, forward_policy="innovative")
        engine = peer._relay(Recoder(PARAMS, GENERATIONS,
                                     np.random.default_rng(0)))
        assert engine._forward_dependent is False


class TestSourceEngine:
    def test_empty_round_still_advances_schedule(self):
        """``rounds`` counts every round (``ServerStats.rounds`` and the
        benchmark's ``loop.rounds`` read it), attached targets or not."""
        engine = counted(SourceEngine(make_encoder()))
        assert engine.handle(EmitRound(targets=())) == []
        assert engine.rounds == 1
        assert engine.obs.mixtures_out.value == 0
        engine.handle(ChildAttached("a", NOTHING))
        (effect,) = engine.handle(EmitRound(targets=("a",)))
        assert effect.packets[0].generation == 0
        assert engine.rounds == 2

    def test_pull_emit_answers_one_packet(self):
        engine = counted(SourceEngine(make_encoder()))
        (effect,) = engine.handle(PullEmit("edge"))
        assert isinstance(effect, EmitToChildren)
        assert effect.children == ("edge",)
        assert effect.count == 1
        assert engine.obs.mixtures_out.value == 1
        assert engine.rounds == 0

    def test_unattached_target_is_skipped(self):
        """A round names the targets with an open pump; one the engine
        never heard attach is sent nothing."""
        engine = SourceEngine(make_encoder())
        assert engine.handle(ChildAttached("a", NOTHING)) == []
        (effect,) = engine.handle(EmitRound(targets=("stranger", "a")))
        assert effect.children == ("a",)


class TestRelayReceiveGate:
    def test_innovative_arrivals_raise_rank(self):
        engine = make_relay()
        packets = feed_packets(engine, 2)
        assert engine.obs.packets_in.value == 2
        assert engine.obs.innovative_in.value == 2
        assert engine.rank == 2
        # Re-delivering an already-absorbed packet is not innovative.
        effects = engine.handle(PacketArrived(packets[0]))
        assert effects == [Ingested(packets[0].generation, False, 2)]
        assert engine.obs.packets_in.value == 3
        assert engine.obs.innovative_in.value == 2

    def test_rank_mirror_matches_decoder(self):
        engine = make_relay()
        feed_packets(engine, NEEDED + 3)
        assert engine.rank == engine.recoder.decoder.total_rank == NEEDED

    def test_mark_complete_fires_exactly_once(self):
        engine = make_relay()
        log = EngineLog()
        engine.log = log
        feed_packets(engine, NEEDED + 2)
        completions = [
            e for e in log.effect_trace() if isinstance(e, MarkComplete)
        ]
        assert completions == [MarkComplete(NEEDED)]
        assert engine.completed
        assert engine.needed == NEEDED

    def test_pull_mode_arrivals_only_ingest(self):
        """No attached children (the simulator shape): an arrival never
        fans out, whichever arrivals would."""
        for forward_dependent in (True, False):
            engine = make_relay(forward_dependent=forward_dependent)
            encoder = make_encoder()
            effects = engine.handle(PacketArrived(encoder.emit(0)))
            assert [type(e) for e in effects] == [Ingested]
            assert engine.obs.mixtures_out.value == 0


class TestRelayPushFanOut:
    def attach_two(self, engine):
        engine.handle(ChildAttached("a", NOTHING))
        engine.handle(ChildAttached("b", NOTHING))
        return engine.obs.mixtures_out.value  # seed-burst packets

    def test_eager_forwards_every_arrival(self):
        engine = make_relay(forward_dependent=True)
        seeded = self.attach_two(engine)
        packets = feed_packets(engine, 1)
        effects = engine.handle(PacketArrived(packets[0]))  # duplicate
        emits = [e for e in effects if isinstance(e, EmitToChildren)]
        assert emits and emits[0].children == ("a", "b")
        assert emits[0].packets is None
        assert engine.obs.mixtures_out.value == seeded + 2 + 2

    def test_innovative_withholds_duplicates(self):
        engine = make_relay(forward_dependent=False)
        seeded = self.attach_two(engine)
        packets = feed_packets(engine, 1)
        assert engine.obs.mixtures_out.value == seeded + 2
        effects = engine.handle(PacketArrived(packets[0]))  # duplicate
        assert not any(isinstance(e, EmitToChildren) for e in effects)
        assert engine.obs.mixtures_out.value == seeded + 2

    @pytest.mark.parametrize("policy", ["eager", "innovative"])
    def test_attach_answers_only_its_seed_burst(self, policy):
        """An attach asks the driver for nothing: with nothing held
        there is no burst, and the idle fill is the pump's own
        question (``IdlePoll``), under either policy."""
        engine = make_relay(forward_dependent=FORWARD_POLICIES[policy])
        assert engine.handle(ChildAttached("a", NOTHING)) == []
        feed_packets(engine, 1)
        (burst,) = engine.handle(ChildAttached("b", NOTHING))
        assert burst.children == ("b",)

    def test_attach_seed_burst_and_reattach_order(self):
        engine = make_relay(seed_burst=2)
        feed_packets(engine, 3)
        (effect,) = engine.handle(ChildAttached("a", NOTHING))
        assert effect.children == ("a", "a")
        engine.handle(ChildAttached("b", NOTHING))
        assert engine.children == ("a", "b")
        # Re-attach moves the child to the end of the fan-out order,
        # exactly like the live driver's pump dict.
        engine.handle(ChildAttached("a", NOTHING))
        assert engine.children == ("b", "a")
        engine.handle(ChildDetached("b"))
        assert engine.children == ("a",)

    def test_rejects_negative_seed_burst(self):
        """A burst is at least one packet: zero is refused, not read
        as one."""
        for burst in (-1, 0):
            with pytest.raises(ValueError):
                make_relay(seed_burst=burst)

    def test_peer_rejects_an_empty_seed_burst(self):
        with pytest.raises(ValueError, match="seed_burst"):
            PeerNode("server", 1, seed_burst=0)

    def test_fanout_rows_give_every_child_one_mixture(self):
        """One arrival yields one ``[coefficients | payload]`` row per
        child: ``(generation, rows)`` groups whose rows, group after
        group, are the children in fan-out order."""
        engine = make_relay(seed=5)
        self.attach_two(engine)
        engine.handle(ChildAttached("c", NOTHING))
        seeded = engine.obs.mixtures_out.value
        arrivals = 4
        encoder = make_encoder(6)
        for index in range(arrivals):
            effects = engine.handle(
                PacketArrived(encoder.emit(index % GENERATIONS)))
            (emit,) = [e for e in effects if isinstance(e, EmitToChildren)]
            assert emit.children == ("a", "b", "c")
            for generation, rows in emit.rows:
                assert 0 <= generation < GENERATIONS
                assert rows.shape[1] == (
                    PARAMS.generation_size + PARAMS.payload_size)
            assert emit.count == 3
        assert engine.obs.mixtures_out.value == seeded + 3 * arrivals

    def test_idle_poll_is_not_fanout(self):
        engine = make_relay(forward_dependent=False)
        feed_packets(engine, 2)
        engine.handle(ChildAttached("a", NOTHING))
        before = engine.obs.mixtures_out.value
        (effect,) = engine.handle(IdlePoll("a"))
        assert effect.children == ("a",)
        assert engine.obs.idle_fills.value == 1
        assert engine.obs.mixtures_out.value == before

    def test_unattached_child_is_answered_with_nothing(self):
        """An idle poll or a report for a child that is not attached —
        never was, or outlived its connection — is ``[]``, and builds
        no state."""
        engine = make_relay()
        feed_packets(engine, 2)
        assert engine.handle(IdlePoll("stranger")) == []
        assert engine.handle(ChildCompleted("stranger", 1)) == []
        engine.handle(ChildAttached("gone", NOTHING))
        engine.handle(ChildDetached("gone"))
        assert engine.handle(IdlePoll("gone")) == []
        assert engine.handle(ChildCompleted("gone", 1)) == []
        assert engine._children == {} and engine.obs.idle_fills.value == 0


class TestRelayPull:
    def test_pull_is_unconditional(self):
        """Pull mode is the constant flow: every slot, every edge, a
        fresh mixture of whatever the relay holds — arrivals or not."""
        engine = make_relay(forward_dependent=False)
        assert engine.handle(PullEmit(9)) == []  # holds nothing yet
        feed_packets(engine, 1)
        for _ in range(5):
            assert engine.handle(PullEmit(9)) != []
        assert engine.obs.mixtures_out.value == 5


class TestReplayDeterminism:
    """Replaying a recorded event trace into a fresh, identically-seeded
    engine reproduces the effect trace exactly — the data-plane mirror
    of the control-plane determinism property (the engines draw RNG only
    through the codec state they are handed, so seeding the codec seeds
    the whole machine)."""

    @settings(max_examples=10, deadline=None)
    @given(
        forward_dependent=st.booleans(),
        ops=st.lists(st.integers(min_value=0, max_value=4),
                     min_size=5, max_size=40),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_relay_replay_reproduces_effect_trace(
        self, forward_dependent, ops, seed,
    ):
        encoder = make_encoder(seed)
        events = []
        for index, op in enumerate(ops):
            if op == 0:
                events.append(
                    PacketArrived(encoder.emit(index % GENERATIONS)))
            elif op == 1:
                events.append(PullEmit(index % 3))
            elif op == 2:
                events.append(ChildAttached(f"c{index % 2}", NOTHING))
            elif op == 3:
                events.append(ChildDetached(f"c{index % 2}"))
            else:
                events.append(IdlePoll(f"c{index % 2}"))
        recorded = make_relay(seed=seed + 1,
                              forward_dependent=forward_dependent)
        log = EngineLog()
        recorded.log = log
        for event in events:
            recorded.handle(event)
        fresh = make_relay(seed=seed + 1, forward_dependent=forward_dependent)
        replayed = replay(fresh, events)
        assert [repr(effect) for effect in replayed] == log.effect_reprs()
        for name in ("packets_in", "innovative_in", "mixtures_out"):
            assert (getattr(fresh.obs, name).value
                    == getattr(recorded.obs, name).value)
        assert fresh.rank == recorded.rank

    def test_source_replay_reproduces_effect_trace(self):
        events = [
            ChildAttached("a", NOTHING),
            EmitRound(targets=("a", "b")),
            PullEmit("x"),
            EmitRound(targets=()),
            ChildAttached("c", (1, ())),
            EmitRound(targets=("a", "c")),
        ]
        recorded = counted(SourceEngine(make_encoder(9)))
        log = EngineLog()
        recorded.log = log
        for event in events:
            recorded.handle(event)
        fresh = counted(SourceEngine(make_encoder(9)))
        replayed = replay(fresh, events)
        assert [repr(effect) for effect in replayed] == log.effect_reprs()
        assert (fresh.obs.mixtures_out.value
                == recorded.obs.mixtures_out.value)
        assert fresh.rounds == recorded.rounds


class TestPolicyBehaviour:
    def test_innovative_sends_fewer_packets_than_eager(self):
        """On a deployment the two spellings differ only in whether a
        dependent arrival fans out: both converge, every peer decodes
        bit-identically, and ``innovative`` spends fewer packets."""
        config = ChaosConfig(
            peers=8, k=4, d=2, generation_size=8, payload_size=32,
            generations=3, seed=4, send_interval=0.01)

        async def run(policy):
            harness = ChaosHarness(replace(config, forward_policy=policy),
                                   record_trace=False)
            try:
                await harness.start()
                converged = await harness.run_until(harness.converged)
                harness.check_invariants()
                forwarded = sum(peer.dataplane.obs.mixtures_out.value
                                for peer in harness.peers)
                return converged, harness.violations, forwarded
            finally:
                await harness.teardown()

        totals = {}
        for policy in FORWARD_POLICIES:
            converged, violations, totals[policy] = asyncio.run(run(policy))
            assert converged and violations == [], policy
        assert totals["innovative"] < totals["eager"], totals


# ----------------------------------------------------------------------
# The need view


def served(effect):
    """``[(child, generation), ...]`` of one ``EmitToChildren``."""
    if effect.rows is None:
        return [(child, packet.generation)
                for child, packet in zip(effect.children, effect.packets)]
    generations = [generation for generation, rows in effect.rows
                   for _ in range(rows.shape[0])]
    return list(zip(effect.children, generations))


def emissions(effects):
    return [pair for effect in effects
            if isinstance(effect, EmitToChildren) for pair in served(effect)]


class TestCompletedSet:
    def test_in_order_completion_is_one_integer(self):
        done = CompletedSet()
        for generation in range(5):
            done.add(generation)
        assert done.pair() == (5, ()) and len(done) == 5

    def test_extras_fold_into_the_base_when_the_gap_closes(self):
        done = CompletedSet()
        done.add(2)
        done.add(1)
        assert done.pair() == (0, (1, 2))
        done.add(0)
        assert done.pair() == (3, ())

    def test_update_is_a_union_and_never_shrinks(self):
        done = CompletedSet(2, (5,))
        done.update(1, (3,))
        assert done.pair() == (2, (3, 5))
        done.update(4)
        assert done.pair() == (4, (5,))
        done.update(0, (4, 4, 1))
        assert done.pair() == (6, ())

    def test_lowest_missing_skips_what_the_sender_lacks(self):
        class Held:
            def __init__(self, rank):
                self.rank = rank

        done = CompletedSet(1, (2,))
        assert done.lowest_missing(5) == 1
        holders = [Held(1), Held(0), Held(1), Held(0), Held(3)]
        assert done.lowest_missing(5, holders) == 4
        assert done.lowest_missing(4, holders) is None
        assert CompletedSet(5).lowest_missing(5) is None


class TestSourceNeedView:
    def test_round_serves_each_target_its_lowest_unfinished_generation(self):
        engine = SourceEngine(make_encoder())
        engine.handle(ChildAttached("a", (0, ())))
        engine.handle(ChildAttached("b", (1, ())))
        for _ in range(3):  # not a carousel: the same answer every round
            (effect,) = engine.handle(EmitRound(targets=("a", "b")))
            assert sorted(served(effect)) == [("a", 0), ("b", 1)]
        assert engine.rounds == 3

    def test_finished_target_is_skipped_and_counted(self):
        engine = counted(SourceEngine(make_encoder()))
        engine.handle(ChildAttached("a", (GENERATIONS, ())))
        engine.handle(ChildAttached("b", (0, ())))
        (effect,) = engine.handle(EmitRound(targets=("a", "b")))
        assert served(effect) == [("b", 0)]
        assert engine.handle(EmitRound(targets=("a",))) == []
        assert engine.obs.withheld.value == 2
        assert engine.obs.mixtures_out.value == 1 and engine.rounds == 2

    def test_update_moves_the_choice_and_detach_forgets(self):
        engine = SourceEngine(make_encoder())
        engine.handle(ChildAttached("a", (0, ())))
        engine.handle(ChildCompleted("a", 0, (1,)))
        (effect,) = engine.handle(EmitRound(targets=("a",)))
        assert served(effect) == [("a", 0)]
        engine.handle(ChildCompleted("a", 1))
        assert engine.handle(EmitRound(targets=("a",))) == []
        engine.handle(ChildDetached("a"))
        assert engine._needs == {}
        # A report that outlived its connection builds no state.
        engine.handle(ChildCompleted("a", 1))
        assert engine._needs == {}


class TestRelayNeedView:
    def relay(self, **kwargs):
        engine = make_relay(**kwargs)
        feed_packets(engine, 2)  # rank 1 in each generation
        return engine

    def test_fanout_groups_children_by_what_each_lacks(self):
        engine = self.relay()
        engine.handle(ChildAttached("a", (0, ())))
        engine.handle(ChildAttached("b", (1, ())))
        engine.handle(ChildAttached("c", (0, ())))
        effects = engine.handle(PacketArrived(make_encoder(3).emit(0)))
        (emit,) = [e for e in effects if isinstance(e, EmitToChildren)]
        assert sorted(served(emit)) == [("a", 0), ("b", 1), ("c", 0)]
        # One emit_rows per generation chosen, children in group order.
        assert [(g, len(rows)) for g, rows in emit.rows] == [(0, 2), (1, 1)]
        assert emit.children == ("a", "c", "b")

    def test_child_with_nothing_to_gain_is_skipped(self):
        engine = self.relay()
        engine.handle(ChildAttached("done", (GENERATIONS, ())))
        forwarded = engine.obs.mixtures_out.value
        effects = engine.handle(PacketArrived(make_encoder(3).emit(0)))
        assert emissions(effects) == []
        assert engine.obs.mixtures_out.value == forwarded
        assert engine.handle(IdlePoll("done")) == []

    def test_sender_without_rank_in_the_lacked_generation_withholds(self):
        engine = make_relay()
        engine.handle(PacketArrived(make_encoder().emit(1)))  # rank in 1 only
        (burst,) = engine.handle(ChildAttached("a", (0, ())))
        assert served(burst) == [("a", 1)]  # 0 is lacked, but not held
        engine.handle(ChildCompleted("a", 0, (1,)))
        assert emissions(engine.handle(
            PacketArrived(make_encoder(4).emit(1)))) == []
        # The first rank in generation 0 makes it servable at once.
        effects = engine.handle(PacketArrived(make_encoder(5).emit(0)))
        assert emissions(effects) == [("a", 0)]

    def test_attach_burst_and_idle_fill_follow_the_need(self):
        engine = self.relay(forward_dependent=False, seed_burst=2)
        (burst,) = engine.handle(ChildAttached("a", (1, ())))
        assert served(burst) == [("a", 1), ("a", 1)]
        (fill,) = engine.handle(IdlePoll("a"))
        assert served(fill) == [("a", 1)]
        assert engine.obs.idle_fills.value == 1

    def test_reattach_starts_from_the_new_report(self):
        engine = self.relay()
        engine.handle(ChildAttached("a", (GENERATIONS, ())))
        (burst,) = engine.handle(ChildAttached("a", (1, ())))
        assert served(burst) == [("a", 1)]
        # ... and a redial that reports nothing holds nothing.
        (burst,) = engine.handle(ChildAttached("a", NOTHING))
        assert served(burst) == [("a", 0)]

    def test_unreported_child_is_served_in_order_until_it_reports(self):
        """A child that has not said what it holds is served as one
        that holds nothing — generation 0, repeatedly — so a child that
        never reports starves only itself; its report moves it on."""
        engine = self.relay(forward_dependent=True)
        engine.handle(ChildAttached("quiet", NOTHING))
        engine.handle(ChildAttached("loud", (1, ())))
        encoder = make_encoder(3)
        for _ in range(3):
            effects = engine.handle(PacketArrived(encoder.emit(1)))
            assert sorted(emissions(effects)) == [("loud", 1), ("quiet", 0)]
        engine.handle(ChildCompleted("quiet", 1))
        effects = engine.handle(PacketArrived(encoder.emit(0)))
        assert sorted(emissions(effects)) == [("loud", 1), ("quiet", 1)]

    def test_generation_complete_precedes_mark_complete(self):
        engine = make_relay()
        log = engine.log = EngineLog()
        encoder = make_encoder()
        for generation in (1, 0):
            for _ in range(PARAMS.generation_size + 2):
                engine.handle(PacketArrived(encoder.emit(generation)))
        tail = [e for e in log.effect_trace()
                if isinstance(e, (GenerationComplete, MarkComplete))]
        assert tail == [GenerationComplete(1), GenerationComplete(0),
                        MarkComplete(NEEDED)]
        assert engine.completed_generations == (GENERATIONS, ())

    def test_completed_generations_survive_construction(self):
        recoder = Recoder(PARAMS, GENERATIONS, np.random.default_rng(1), 7)
        encoder = make_encoder()
        for _ in range(PARAMS.generation_size + 2):
            recoder.receive(encoder.emit(1))
        engine = RelayEngine(recoder)
        assert engine.completed_generations == (0, (1,))
        (burst,) = engine.handle(ChildAttached("a", (0, ())))
        assert served(burst) == [("a", 1)]


class NeedViewMachine(RuleBasedStateMachine):
    """Any interleaving of attach/detach, arrivals, rounds, idle polls
    and completed-set updates, against a model that remembers only what
    each attached child said — the empty set until it says anything.
    Every emission must be exactly the need view's choice: never a
    generation its child reported complete, always the lowest one it
    lacks that the sender holds — which is what makes "a child that
    lacks ``g`` under a sender holding ``g`` is served ``g``" hold on
    the very next trigger, not merely eventually."""

    CHILDREN = ("a", "b", "c")
    COUNT = 4

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        params = GenerationParams(generation_size=3, payload_size=4)
        content = bytes(rng.integers(
            0, 256, size=self.COUNT * 3 * 4, dtype=np.uint8))
        self.feed = SourceEncoder(content, params, np.random.default_rng(1))
        self.source = SourceEngine(
            SourceEncoder(content, params, np.random.default_rng(2)))
        self.relay = RelayEngine(
            Recoder(params, self.COUNT, np.random.default_rng(3), 7),
            forward_dependent=True)
        #: attached child -> the set of generations it reported
        self.model = {}

    # -- the model's answer --------------------------------------------

    def choice(self, child, held):
        reported = self.model[child]
        for generation in range(self.COUNT):
            if generation not in reported and held(generation):
                return generation
        return None

    def relay_holds(self, generation):
        return self.relay.recoder.rank(generation) > 0

    def check(self, effects, held, triggered):
        """``triggered``: the attached children this event must serve."""
        got = emissions(effects)
        for child, generation in got:
            assert child in self.model, f"{child} is detached"
            assert generation not in self.model[child]
            assert generation == self.choice(child, held)
            assert held(generation)
        expected = {
            child for child in triggered
            if self.choice(child, held) is not None
        }
        assert {child for child, _ in got} == expected

    # -- rules ---------------------------------------------------------

    @rule(child=st.sampled_from(CHILDREN),
          report=st.sets(st.integers(0, COUNT - 1)))
    def attach(self, child, report):
        self.model[child] = set(report)
        completed = CompletedSet(0, report).pair()
        self.check(self.relay.handle(ChildAttached(child, completed)),
                   self.relay_holds, [child])
        # The source has no burst: its next round reaches the child.
        assert self.source.handle(ChildAttached(child, completed)) == []

    @rule(child=st.sampled_from(CHILDREN))
    def detach(self, child):
        self.model.pop(child, None)
        for engine in (self.relay, self.source):
            assert engine.handle(ChildDetached(child)) == []

    @rule(child=st.sampled_from(CHILDREN),
          report=st.sets(st.integers(0, COUNT - 1)))
    def report(self, child, report):
        if child in self.model:
            self.model[child] |= report
        pair = CompletedSet(0, report).pair()
        for engine in (self.relay, self.source):
            assert engine.handle(ChildCompleted(child, *pair)) == []

    @rule(generation=st.integers(0, COUNT - 1))
    def arrival(self, generation):
        effects = self.relay.handle(PacketArrived(self.feed.emit(generation)))
        self.check(effects, self.relay_holds, list(self.model))

    @rule(asked=st.sets(st.sampled_from(CHILDREN)))
    def round(self, asked):
        targets = tuple(sorted(asked & self.model.keys()))
        effects = self.source.handle(EmitRound(targets=targets))
        self.check(effects, lambda g: True, targets)

    @rule(child=st.sampled_from(CHILDREN))
    def idle(self, child):
        effects = self.relay.handle(IdlePoll(child))
        if child not in self.model:
            assert effects == []  # a stranger is sent nothing
            return
        self.check(effects, self.relay_holds, [child])

    @invariant()
    def engines_remember_exactly_the_attached_children(self):
        assert set(self.relay.children) == set(self.model)
        assert set(self.relay._children) == set(self.model)
        assert set(self.source._needs) == set(self.model)


NeedViewMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestNeedViewMachine = NeedViewMachine.TestCase


class TestDataplaneBoundedState:
    def test_50k_attach_report_detach_cycles_leave_nothing_behind(self):
        """Every child that ever dialed gets a fresh key; the engines'
        containers must follow the live population, not the history."""
        population, cycles = 16, 50_000
        relay = make_relay(forward_dependent=False)
        feed_packets(relay, NEEDED)
        source = SourceEngine(make_encoder())
        engines = (relay, source)
        live = list(range(population))
        for child in live:
            for engine in engines:
                engine.handle(ChildAttached(child, NOTHING))
        for cycle in range(cycles):
            gone = live[cycle % population]
            fresh = live[cycle % population] = population + cycle
            for engine in engines:
                engine.handle(ChildCompleted(gone, 1, ()))
                engine.handle(ChildDetached(gone))
                engine.handle(ChildCompleted(gone, 2, ()))  # late report
                engine.handle(ChildAttached(fresh, (cycle % 2, ())))
            relay.handle(PullEmit(fresh))
            relay.handle(IdlePoll(fresh))
            relay.handle(IdlePoll(gone))

        def containers(engine):
            for name, value in attributes(engine):
                if isinstance(value, (dict, set, list)):
                    yield f"{type(engine).__name__}.{name}", len(value)

        sizes = dict(pair for engine in engines for pair in containers(engine))
        assert {"RelayEngine._children", "SourceEngine._needs"} <= set(sizes)
        assert sizes["RelayEngine._children"] == population
        assert sizes["SourceEngine._needs"] == population
        assert {n: s for n, s in sizes.items() if s > population} == {}
