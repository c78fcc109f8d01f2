"""Unit and property tests for the sans-IO data-plane engines.

The :class:`~repro.dataplane.SourceEngine` / :class:`RelayEngine` pair
owns every data-plane decision that used to live inline in three
drivers; these tests pin the contract each driver relies on — the
receive gate, round-robin scheduling, push fan-out under both forward
policies, the pull-mode innovation-credit translation, seed-bursts,
idle fills — plus the two behaviour claims the ``innovative`` policy
is sold on:

* on clean links it never delays the swarm full-rank slot versus
  ``eager`` (hypothesis property: recoded packets lie inside the
  sender's span, so peer-to-peer transfers never grow the swarm's
  union span — only server emissions do, and those are policy-blind);
* it sends strictly fewer data packets once ranks saturate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import GenerationParams, Recoder, SourceEncoder
from repro.core import OverlayNetwork
from repro.dataplane import (
    FORWARD_POLICIES,
    ChildAttached,
    ChildDetached,
    EagerPolicy,
    EmitRound,
    EmitToChildren,
    EngineLog,
    IdlePoll,
    Ingested,
    InnovativePolicy,
    MarkComplete,
    PacketArrived,
    PullEmit,
    RelayEngine,
    RequestIdle,
    SourceEngine,
    replay,
    resolve_policy,
)
from repro.sim import BroadcastSimulation

PARAMS = GenerationParams(generation_size=4, payload_size=8)
GENERATIONS = 2
NEEDED = GENERATIONS * PARAMS.generation_size


def make_encoder(seed=0):
    rng = np.random.default_rng(seed)
    size = GENERATIONS * PARAMS.generation_size * PARAMS.payload_size
    content = bytes(rng.integers(0, 256, size=size, dtype=np.uint8))
    return SourceEncoder(content, PARAMS, rng)


def make_relay(seed=1, **kwargs):
    recoder = Recoder(PARAMS, GENERATIONS, np.random.default_rng(seed), 7)
    return RelayEngine(recoder, **kwargs)


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
    def test_catalogue(self):
        assert FORWARD_POLICIES == ("eager", "innovative")

    def test_resolve_by_name_returns_singletons(self):
        assert resolve_policy("eager") is resolve_policy("eager")
        assert isinstance(resolve_policy("eager"), EagerPolicy)
        assert isinstance(resolve_policy("innovative"), InnovativePolicy)

    def test_resolve_passes_instances_through(self):
        policy = InnovativePolicy()
        assert resolve_policy(policy) is policy

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown forward_policy"):
            resolve_policy("flooding")

    def test_verdicts(self):
        eager, gated = resolve_policy("eager"), resolve_policy("innovative")
        assert eager.forward_on(False) and eager.forward_on(True)
        assert gated.forward_on(True) and not gated.forward_on(False)
        assert gated.wants_idle and not eager.wants_idle
        assert eager.pull_without_credit and not gated.pull_without_credit


class TestSourceEngine:
    def test_rounds_serve_generations_round_robin(self):
        engine = SourceEngine(make_encoder())
        generations = []
        for _ in range(4):
            (effect,) = engine.handle(EmitRound(targets=("a",)))
            generations.append(effect.packets[0].generation)
        assert generations == [0, 1, 0, 1]
        assert engine.rounds == 4
        assert engine.packets_sent == 4

    def test_empty_round_still_advances_schedule(self):
        """Generation scheduling is time-based: a round with nobody
        attached produces nothing but still consumes its slot."""
        engine = SourceEngine(make_encoder())
        assert engine.handle(EmitRound(targets=())) == []
        assert engine.rounds == 1
        assert engine.packets_sent == 0
        (effect,) = engine.handle(EmitRound(targets=("a",)))
        assert effect.packets[0].generation == 1

    def test_pull_emit_answers_one_packet(self):
        engine = SourceEngine(make_encoder())
        (effect,) = engine.handle(PullEmit("edge"))
        assert isinstance(effect, EmitToChildren)
        assert effect.children == ("edge",)
        assert effect.count == 1
        assert engine.packets_sent == 1
        assert engine.rounds == 0

    def test_attach_seed_burst(self):
        silent = SourceEngine(make_encoder())
        assert silent.handle(ChildAttached("c")) == []
        bursty = SourceEngine(make_encoder(), seed_burst=2)
        (effect,) = bursty.handle(ChildAttached("c"))
        assert effect.children == ("c", "c")
        assert effect.count == 2
        assert bursty.packets_sent == 2

    def test_rejects_negative_seed_burst(self):
        with pytest.raises(ValueError):
            SourceEngine(make_encoder(), seed_burst=-1)


class TestRelayReceiveGate:
    def test_innovative_arrivals_raise_rank(self):
        engine = make_relay()
        packets = feed_packets(engine, 2)
        assert engine.received == 2
        assert engine.innovative == 2
        assert engine.rank == 2
        # Re-delivering an already-absorbed packet is not innovative.
        effects = engine.handle(PacketArrived(packets[0]))
        assert effects == [Ingested(packets[0].generation, False, 2)]
        assert engine.received == 3
        assert engine.innovative == 2

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
        fans out, whatever the policy."""
        for policy in FORWARD_POLICIES:
            engine = make_relay(policy=policy)
            encoder = make_encoder()
            effects = engine.handle(PacketArrived(encoder.emit(0)))
            assert [type(e) for e in effects] == [Ingested]
            assert engine.forwarded == 0


class TestRelayPushFanOut:
    def attach_two(self, engine):
        engine.handle(ChildAttached("a", column=0))
        engine.handle(ChildAttached("b", column=1))
        return engine.forwarded  # seed-burst packets

    def test_eager_forwards_every_arrival(self, policy="eager"):
        engine = make_relay(policy=policy)
        seeded = self.attach_two(engine)
        packets = feed_packets(engine, 1)
        effects = engine.handle(PacketArrived(packets[0]))  # duplicate
        emits = [e for e in effects if isinstance(e, EmitToChildren)]
        assert emits and emits[0].children == ("a", "b")
        assert emits[0].packets is None
        assert engine.forwarded == seeded + 2 + 2

    def test_innovative_withholds_duplicates(self):
        engine = make_relay(policy="innovative")
        seeded = self.attach_two(engine)
        packets = feed_packets(engine, 1)
        assert engine.forwarded == seeded + 2
        effects = engine.handle(PacketArrived(packets[0]))  # duplicate
        assert not any(isinstance(e, EmitToChildren) for e in effects)
        assert engine.forwarded == seeded + 2

    def test_innovative_attach_requests_idle_fill(self):
        engine = make_relay(policy="innovative")
        effects = engine.handle(ChildAttached("a", column=0))
        assert any(e == RequestIdle("a") for e in effects)
        eager = make_relay(policy="eager")
        assert not any(
            isinstance(e, RequestIdle)
            for e in eager.handle(ChildAttached("a", column=0))
        )

    def test_attach_seed_burst_and_reattach_order(self):
        engine = make_relay(seed_burst=2)
        feed_packets(engine, 3)
        (effect,) = engine.handle(ChildAttached("a", column=0))
        assert effect.children == ("a", "a")
        engine.handle(ChildAttached("b", column=1))
        assert engine.children == ("a", "b")
        # Re-attach moves the child to the end of the fan-out order,
        # exactly like the live driver's pump dict.
        engine.handle(ChildAttached("a", column=0))
        assert engine.children == ("b", "a")
        engine.handle(ChildDetached("b"))
        assert engine.children == ("a",)

    def test_fanout_rows_give_every_child_one_mixture(self):
        """One arrival yields one ``[coefficients | payload]`` row per
        child, grouped by generation; ``positions`` maps each row back
        to its child's slot in fan-out order."""
        engine = make_relay(seed=5)
        self.attach_two(engine)
        engine.handle(ChildAttached("c", column=2))
        seeded = engine.forwarded
        arrivals = 4
        encoder = make_encoder(6)
        for index in range(arrivals):
            effects = engine.handle(
                PacketArrived(encoder.emit(index % GENERATIONS)))
            (emit,) = [e for e in effects if isinstance(e, EmitToChildren)]
            assert emit.children == ("a", "b", "c")
            positions = []
            for generation, rows, slots in emit.rows:
                assert 0 <= generation < GENERATIONS
                assert rows.shape == (
                    len(slots), PARAMS.generation_size + PARAMS.payload_size)
                positions.extend(slots)
            assert sorted(positions) == [0, 1, 2]
        assert engine.forwarded == seeded + 3 * arrivals

    def test_idle_poll_is_not_fanout(self):
        engine = make_relay(policy="innovative")
        feed_packets(engine, 2)
        before = engine.forwarded
        (effect,) = engine.handle(IdlePoll("a"))
        assert effect.children == ("a",)
        assert engine.idle_emits == 1
        assert engine.forwarded == before


class TestRelayPullCredit:
    def test_eager_pull_is_unconditional(self):
        engine = make_relay(policy="eager")
        feed_packets(engine, 1)
        for _ in range(5):
            assert engine.handle(PullEmit(9)) != []
        assert engine.forwarded == 5

    def test_innovative_pull_takes_one_credit_per_innovation(self):
        """Pull mode mirrors push mode's one-forward-per-innovative-
        arrival-per-child: each edge may take ``seed_burst`` packets
        plus one per innovative ingest, then it goes silent until
        something innovative lands."""
        engine = make_relay(policy="innovative", seed_burst=1)
        packets = feed_packets(engine, 2)
        for _ in range(1 + 2):  # seed allowance + two innovations
            assert engine.handle(PullEmit(9)) != []
        assert engine.handle(PullEmit(9)) == []
        # A duplicate arrival grants nothing ...
        engine.handle(PacketArrived(packets[0]))
        assert engine.handle(PullEmit(9)) == []
        # ... fresh innovative arrivals re-open the edge, one each.
        before = engine.innovative
        feed_packets(engine, 3, seed=11)
        for _ in range(engine.innovative - before):
            assert engine.handle(PullEmit(9)) != []
        assert engine.handle(PullEmit(9)) == []

    def test_seed_burst_sizes_the_unconditional_allowance(self):
        engine = make_relay(policy="innovative", seed_burst=3)
        feed_packets(engine, 1)  # rank 1 grants one credit on top
        for _ in range(3 + 1):
            assert engine.handle(PullEmit(9)) != []
        assert engine.handle(PullEmit(9)) == []
        assert engine.forwarded == 4

    def test_credit_is_per_destination(self):
        engine = make_relay(policy="innovative", seed_burst=1)
        feed_packets(engine, 1)
        assert engine.handle(PullEmit("x")) != []
        assert engine.handle(PullEmit("x")) != []
        assert engine.handle(PullEmit("x")) == []
        # A different edge still holds its own seed + credit allowance.
        assert engine.handle(PullEmit("y")) != []
        assert engine.handle(PullEmit("y")) != []
        assert engine.handle(PullEmit("y")) == []


class TestReplayDeterminism:
    """Replaying a recorded event trace into a fresh, identically-seeded
    engine reproduces the effect trace exactly — the data-plane mirror
    of the control-plane determinism property (the engines draw RNG only
    through the codec state they are handed, so seeding the codec seeds
    the whole machine)."""

    @settings(max_examples=10, deadline=None)
    @given(
        policy=st.sampled_from(FORWARD_POLICIES),
        ops=st.lists(st.integers(min_value=0, max_value=4),
                     min_size=5, max_size=40),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_relay_replay_reproduces_effect_trace(
        self, policy, ops, seed,
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
                events.append(ChildAttached(f"c{index % 2}", column=index % 2))
            elif op == 3:
                events.append(ChildDetached(f"c{index % 2}"))
            else:
                events.append(IdlePoll(f"c{index % 2}"))
        recorded = make_relay(seed=seed + 1, policy=policy)
        log = EngineLog()
        recorded.log = log
        for event in events:
            recorded.handle(event)
        fresh = make_relay(seed=seed + 1, policy=policy)
        replayed = replay(fresh, events)
        assert [repr(effect) for effect in replayed] == log.effect_reprs()
        assert fresh.received == recorded.received
        assert fresh.innovative == recorded.innovative
        assert fresh.forwarded == recorded.forwarded
        assert fresh.rank == recorded.rank

    def test_source_replay_reproduces_effect_trace(self):
        events = [
            EmitRound(targets=("a", "b")),
            PullEmit("x"),
            EmitRound(targets=()),
            ChildAttached("c"),
            EmitRound(targets=("c",)),
        ]
        recorded = SourceEngine(make_encoder(9), seed_burst=2)
        log = EngineLog()
        recorded.log = log
        for event in events:
            recorded.handle(event)
        fresh = SourceEngine(make_encoder(9), seed_burst=2)
        replayed = replay(fresh, events)
        assert [repr(effect) for effect in replayed] == log.effect_reprs()
        assert fresh.packets_sent == recorded.packets_sent
        assert fresh.rounds == recorded.rounds


def _make_sim(forward_policy, *, k, d, peers, seed, net_seed):
    net = OverlayNetwork(k=k, d=d, seed=net_seed)
    net.grow(peers)
    rng = np.random.default_rng(net_seed + 1)
    size = GENERATIONS * PARAMS.generation_size * PARAMS.payload_size
    content = bytes(rng.integers(0, 256, size=size, dtype=np.uint8))
    return BroadcastSimulation(
        net, content, PARAMS, seed=seed, forward_policy=forward_policy,
    )


def _full_rank_slot(sim, budget=400):
    for _ in range(budget):
        if sim.swarm_has_full_rank():
            return sim.slot
        sim.step()
    return None


class TestPolicyBehaviour:
    @settings(max_examples=12, deadline=None)
    @given(
        k=st.integers(min_value=2, max_value=4),
        peers=st.integers(min_value=4, max_value=10),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        net_seed=st.integers(min_value=0, max_value=100),
    )
    def test_innovative_never_delays_swarm_full_rank(
        self, k, peers, seed, net_seed,
    ):
        """On clean links, recoded peer-to-peer packets lie inside the
        sender's span and so never grow the swarm's union span; only
        server emissions do — and those are policy-blind.  Withholding
        non-innovative forwards therefore cannot delay the §6
        self-sustainability slot."""
        eager = _make_sim(
            "eager", k=k, d=2, peers=peers, seed=seed, net_seed=net_seed)
        gated = _make_sim(
            "innovative", k=k, d=2, peers=peers, seed=seed, net_seed=net_seed)
        eager_slot = _full_rank_slot(eager)
        gated_slot = _full_rank_slot(gated)
        assert eager_slot is not None and gated_slot is not None
        assert gated_slot <= eager_slot

    def test_innovative_sends_fewer_packets_than_eager(self):
        """Once ranks saturate, ``eager`` keeps pushing dependent
        mixtures every slot while ``innovative`` falls silent — the
        whole point of the policy."""
        totals = {}
        completed = {}
        for policy in FORWARD_POLICIES:
            sim = _make_sim(
                policy, k=3, d=2, peers=8, seed=13, net_seed=2)
            sim.run(120)
            totals[policy] = sum(
                engine.forwarded + engine.idle_emits
                for engine in sim.behavior._engines.values()
            )
            report = sim.report()
            completed[policy] = report.completion_fraction
        assert completed["eager"] == completed["innovative"] == 1.0
        assert totals["innovative"] < totals["eager"]
