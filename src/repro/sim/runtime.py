"""The unified slotted data-plane runtime.

Every simulator in this repo used to hand-roll the same two-phase slot
loop (emit, then deliver) with its own loss accounting and report type.
This module is the single implementation: a :class:`SlottedRuntime`
drives one :class:`Topology` (which says *who sends to whom* each slot)
and one :class:`NodeBehavior` (which says *what* is sent and what
happens on receipt), applying one :class:`~repro.sim.links.LossModel`,
one :class:`~repro.sim.links.OutageModel`, and one
:class:`~repro.sim.links.LinkStats` ledger to all of them.

The slot discipline is the paper's bandwidth model: every edge carries
one unit-size packet per slot, and a packet received in slot ``t`` can
be remixed/forwarded no earlier than slot ``t+1`` — hence the two
phases, with all emissions computed before any delivery lands.

Per-slot order of operations (identical for every topology/behaviour):

1. outage dynamics advance (ergodic, silent, self-recovering);
2. *emit* — walk the topology's ordered edge view; the server emits on
   ``SERVER -> v`` edges while attached, live peers emit on ``u -> v``
   edges (failed or outaged senders idle);
3. *deliver* — one batched Bernoulli loss draw over the sends whose
   receiver is alive, then in-order delivery into receiver state;
4. link accounting and (optionally) a timeline record.

Churn, repair, and attack *schedules* plug in as slot hooks
(:meth:`SlottedRuntime.add_slot_hook`) so any topology can run under any
failure scenario; behavioural attackers (entropy replay, jamming) are
roles inside :class:`~repro.sim.behaviors.RlncBehavior`.

Two constructors build every experiment's runtime: :func:`rlnc` (RLNC
over a curtain or §6 random-graph overlay) and :func:`uncoded` (the
store-and-forward and rarest-first flooding baselines over a curtain).
Their seeded runs are golden-tested (``tests/test_runtime_goldens.py``).
"""

from __future__ import annotations

from time import perf_counter
from typing import (
    Callable, Iterable, Optional, Protocol, Sequence, Union, runtime_checkable,
)

from ..coding.generation import GenerationParams
from ..core.matrix import SERVER
from ..core.overlay import OverlayNetwork
from ..core.random_graph import RandomGraphOverlay
from .behaviors import NodeRole, RlncBehavior, StoreForwardBehavior
from .links import LinkStats, LossModel, OutageModel
from .report import NodeReport, RunReport
from .rng import RngStreams

__all__ = [
    "DEFAULT_MAX_SLOTS",
    "CurtainTopology",
    "GraphTopology",
    "NodeBehavior",
    "SlottedRuntime",
    "StaticTopology",
    "Topology",
    "rlnc",
    "uncoded",
]

#: Default budget of :meth:`SlottedRuntime.run_until_complete`: a safety
#: stop, not an experiment parameter — callers that care about budgets
#: pass ``max_slots`` explicitly.
DEFAULT_MAX_SLOTS = 10_000


@runtime_checkable
class Topology(Protocol):
    """An edges-per-slot view of an overlay.

    The runtime is completely topology-agnostic: it only ever asks for
    the ordered directed edge list of the current slot (``SERVER`` as a
    source marks server emissions), the set of (non-ergodically) failed
    nodes, and node populations for outage dynamics and reporting.
    Implementations may cache — the edge list is re-requested every
    slot, so mutation between slots is picked up automatically.
    """

    def edges(self) -> Sequence[tuple[int, int]]:
        """Ordered ``(sender, receiver)`` pairs for this slot."""
        ...

    def failed_nodes(self) -> frozenset[int]:
        """Nodes that neither send nor receive until repaired."""
        ...

    def live_nodes(self) -> list[int]:
        """Current non-failed population (outage dynamics domain)."""
        ...

    def measured_nodes(self) -> list[int]:
        """Default set of nodes a report covers."""
        ...


class CurtainTopology:
    """Edge view of the paper's curtain-rod overlay (§3–§5).

    The server feeds the first occupant of each non-empty column; every
    occupant feeds the next occupant down each of its threads.  The edge
    list is cached on the matrix's mutation epoch — walking the
    per-column occupancy chains dominated the emit phase before PR 1 —
    so arbitrary churn between slots is still picked up immediately.
    """

    def __init__(self, net) -> None:
        self.net = net
        self._epoch = -1
        self._edges: list[tuple[int, int]] = []

    def edges(self) -> list[tuple[int, int]]:
        matrix = self.net.matrix
        epoch = matrix.mutation_epoch
        if epoch != self._epoch:
            self._epoch = epoch
            edges: list[tuple[int, int]] = []
            for column in range(matrix.k):
                chain = matrix.column_chain(column)
                if chain:
                    edges.append((SERVER, chain[0]))
            for node_id in matrix.node_ids:
                for child in matrix.children_of(node_id).values():
                    if child is not None:
                        edges.append((node_id, child))
            self._edges = edges
        return self._edges

    def failed_nodes(self) -> frozenset[int]:
        return self.net.server.failed

    def live_nodes(self) -> list[int]:
        return self.net.working_nodes

    def measured_nodes(self) -> list[int]:
        return self.net.working_nodes


class GraphTopology:
    """Edge view of the §6 random-graph (cyclic) overlay.

    The overlay's edge multiset *is* the slot schedule; unserved server
    slots (``(u, None)``) idle.  No failure model: the §6 construction
    repairs by re-splicing, which the overlay applies structurally.
    """

    def __init__(self, overlay) -> None:
        self.overlay = overlay

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for (u, v) in self.overlay.edges if v is not None]

    def failed_nodes(self) -> frozenset[int]:
        return frozenset()

    def live_nodes(self) -> list[int]:
        return sorted(self.overlay.nodes)

    def measured_nodes(self) -> list[int]:
        return sorted(self.overlay.nodes)


class StaticTopology:
    """A fixed explicit edge list (chains, striped trees, ad-hoc DAGs).

    Gives the comparison baselines that are defined directly as graphs a
    way onto the shared data plane without inventing an overlay class.
    Failures may be injected/repaired between slots.
    """

    def __init__(self, edges: Iterable[tuple[int, int]]) -> None:
        self._edges = list(edges)
        inferred = {v for _, v in self._edges}
        inferred.update(u for u, _ in self._edges if u != SERVER)
        self._nodes = sorted(inferred)
        self._failed: set[int] = set()

    def edges(self) -> list[tuple[int, int]]:
        return self._edges

    def fail(self, node_id: int) -> None:
        self._failed.add(node_id)

    def repair(self, node_id: int) -> None:
        self._failed.discard(node_id)

    def failed_nodes(self) -> frozenset[int]:
        return frozenset(self._failed)

    def live_nodes(self) -> list[int]:
        return [n for n in self._nodes if n not in self._failed]

    def measured_nodes(self) -> list[int]:
        return [n for n in self._nodes if n not in self._failed]


@runtime_checkable
class NodeBehavior(Protocol):
    """What nodes put on the wire and do with what arrives.

    Payloads are opaque to the runtime (RLNC :class:`CodedPacket`,
    integer piece indices, …).  Returning ``None`` from an emit means
    the edge idles this slot (empty buffer, exhausted source).
    """

    def server_emit(self, destination: int) -> Optional[object]:
        """Payload for a ``SERVER -> destination`` edge."""
        ...

    def emit(self, sender: int, destination: int) -> Optional[object]:
        """Payload a live peer puts on one outgoing edge."""
        ...

    def deliver(self, destination: int, payload: object, slot: int) -> None:
        """Apply one successful delivery to the receiver's state."""
        ...

    def completed_at(self) -> dict[int, int]:
        """Live ``node -> completion slot`` mapping."""
        ...

    def node_report(self, node_id: int) -> NodeReport:
        """Report row for one node (zeros if it was never contacted)."""
        ...


class SlottedRuntime:
    """One two-phase slotted kernel for every topology × behaviour.

    Args:
        topology: Who sends to whom each slot.
        behavior: What is sent and how receipts update node state.
        streams: Shared named RNG streams.
        loss: Ergodic per-delivery loss model.
        outage: Ergodic per-node outage model (§2): outaged nodes
            neither send nor receive until they spontaneously recover.
        measured: Override for the default report/termination node set
            (e.g. "working honest nodes" for attack experiments).
    """

    def __init__(
        self,
        topology: Topology,
        behavior: NodeBehavior,
        *,
        streams: RngStreams,
        loss: Optional[LossModel] = None,
        outage: Optional[OutageModel] = None,
        measured: Optional[Callable[[], list[int]]] = None,
    ) -> None:
        self.topology = topology
        self.behavior = behavior
        self.streams = streams
        self.loss = loss or LossModel(0.0)
        self.outage = outage
        #: Nodes currently in an ergodic outage (silent, not failed).
        self.outaged: set[int] = set()
        self.slot = 0
        self.link_stats = LinkStats()
        self.server_packets = 0
        #: When set, the server stops emitting at this slot (§6: the
        #: server may disconnect once the swarm is self-sustaining).
        self.server_detach_slot: Optional[int] = None
        self._measured = measured
        self._slot_hooks: list[Callable[["SlottedRuntime"], None]] = []
        self._loss_rng = self.streams.get("loss")
        #: Instrumentation is opt-in (:meth:`attach_obs`); unattached,
        #: the slot loop pays one attribute check per step.
        self._obs_slot_seconds = None
        self._obs_slots = None
        self._obs_attempted = None
        self._obs_delivered = None

    def attach_obs(self, registry) -> None:
        """Expose slot-loop timing and delivery/innovation rates.

        ``registry`` is a :class:`repro.obs.Registry` (duck-typed — the
        simulator never imports ``repro.obs``).  Timing costs two
        ``perf_counter`` calls per slot, counters one attribute bump
        each; the rate gauges are callbacks evaluated only at snapshot
        time.  Nothing here touches an RNG stream, so seeded runs are
        byte-identical with or without instrumentation.
        """
        self._obs_slot_seconds = registry.histogram(
            "sim.slot_seconds", "wall-clock time of one slot step",
        )
        self._obs_slots = registry.counter("sim.slots", "slots stepped")
        self._obs_attempted = registry.counter(
            "sim.sends_attempted", "edge sends attempted",
        )
        self._obs_delivered = registry.counter(
            "sim.sends_delivered", "edge sends delivered",
        )
        registry.gauge(
            "sim.server_packets", "source emissions so far",
            fn=lambda: self.server_packets,
        )
        registry.gauge(
            "sim.completed_nodes", "nodes that fully decoded",
            fn=lambda: len(self.behavior.completed_at()),
        )
        registry.gauge(
            "sim.delivery_ratio", "delivered / attempted sends",
            fn=lambda: self.link_stats.delivery_ratio,
        )
        registry.gauge(
            "sim.innovative_ratio",
            "rank-increasing fraction of delivered packets (measured nodes)",
            fn=self._innovative_ratio,
        )

    def _innovative_ratio(self) -> float:
        reports = [
            self.behavior.node_report(node_id)
            for node_id in self.measured_nodes()
        ]
        received = sum(r.received for r in reports)
        if received == 0:
            return 0.0
        return sum(r.innovative for r in reports) / received

    # -- scheduling hooks ----------------------------------------------

    def add_slot_hook(self, hook: Callable[["SlottedRuntime"], None]) -> None:
        """Register a callable invoked before each driven slot.

        Hooks run inside :meth:`run`/:meth:`run_until_complete` (not on
        bare :meth:`step`, whose callers own their own schedule) and are
        where churn, repair sweeps, and attack onset live — the runtime
        picks up the mutated topology on the next edge walk.
        """
        self._slot_hooks.append(hook)

    # -- server lifecycle ----------------------------------------------

    @property
    def server_active(self) -> bool:
        return self.server_detach_slot is None or self.slot < self.server_detach_slot

    def detach_server(self) -> None:
        """Stop the server's emissions from this slot on.

        Models §6's self-sustaining download: once the swarm collectively
        holds every degree of freedom (:meth:`swarm_has_full_rank`), the
        peers can finish the distribution among themselves.
        """
        self.server_detach_slot = self.slot

    def swarm_has_full_rank(self) -> bool:
        """True if the live peers collectively hold all content DoF.

        Only peers the topology still counts as live contribute: a peer
        that failed or left takes its buffer with it.  RLNC behaviours
        only.
        """
        return self.behavior.swarm_has_full_rank(self.topology.live_nodes())

    # -- the kernel -----------------------------------------------------

    def measured_nodes(self) -> list[int]:
        """The node set reports and completion checks run over."""
        if self._measured is not None:
            return self._measured()
        return self.topology.measured_nodes()

    def step(self) -> None:
        """Advance one slot (outage dynamics, emit phase, deliver phase)."""
        timing = self._obs_slot_seconds
        started = perf_counter() if timing is not None else 0.0
        if self.outage is not None:
            self.outage.advance(
                self.outaged, self.topology.live_nodes(), self.streams.get("outage")
            )
        failed = self.topology.failed_nodes()
        outaged = self.outaged
        behavior = self.behavior
        server_active = self.server_active
        sends: list[tuple[int, object]] = []
        for sender, destination in self.topology.edges():
            if sender == SERVER:
                if not server_active:
                    continue
                payload = behavior.server_emit(destination)
                if payload is None:
                    continue
                sends.append((destination, payload))
                self.server_packets += 1
            else:
                if sender in failed or sender in outaged:
                    continue
                payload = behavior.emit(sender, destination)
                if payload is not None:
                    sends.append((destination, payload))
        # Loss draws are batched into one vectorised RNG call per slot.
        # Only sends whose receiver is alive consume a draw — the same
        # short-circuit (and therefore the same variate stream) as a
        # per-send scalar path.
        eligible = [
            destination not in failed and destination not in outaged
            for destination, _ in sends
        ]
        draws = self.loss.delivers_batch(self._loss_rng, sum(eligible))
        delivered_count = 0
        cursor = 0
        for (destination, payload), alive in zip(sends, eligible):
            if not alive:
                continue
            delivered = bool(draws[cursor])
            cursor += 1
            if not delivered:
                continue
            delivered_count += 1
            behavior.deliver(destination, payload, self.slot)
        self.link_stats.record_batch(len(sends), delivered_count)
        self.slot += 1
        if timing is not None:
            timing.observe(perf_counter() - started)
            self._obs_slots.inc()
            self._obs_attempted.inc(len(sends))
            self._obs_delivered.inc(delivered_count)

    def run(self, slots: int) -> RunReport:
        """Run ``slots`` more slots and return the cumulative report."""
        for _ in range(slots):
            for hook in self._slot_hooks:
                hook(self)
            self.step()
        return self.report()

    def run_until_complete(self, max_slots: int = DEFAULT_MAX_SLOTS) -> RunReport:
        """Run until every measured node completes.

        Stops at ``max_slots`` regardless; check ``completion_fraction``
        on the report.
        """
        completed = self.behavior.completed_at()
        while self.slot < max_slots:
            targets = self.measured_nodes()
            if targets and all(t in completed for t in targets):
                break
            for hook in self._slot_hooks:
                hook(self)
            self.step()
        return self.report()

    # -- reporting ------------------------------------------------------

    def report(self, nodes: Optional[list[int]] = None) -> RunReport:
        """Build the unified report for the given nodes (default: measured)."""
        targets = nodes if nodes is not None else self.measured_nodes()
        return RunReport(
            slots=self.slot,
            nodes=[self.behavior.node_report(node_id) for node_id in targets],
            link_stats=self.link_stats,
            server_packets=self.server_packets,
        )


def rlnc(
    overlay: Union[OverlayNetwork, RandomGraphOverlay],
    content: bytes,
    params: GenerationParams,
    *,
    seed: Optional[int] = None,
    loss: Optional[LossModel] = None,
    outage: Optional[OutageModel] = None,
    roles: Optional[dict[int, NodeRole]] = None,
) -> SlottedRuntime:
    """RLNC broadcast of ``content`` over a curtain or §6 overlay.

    ``overlay`` is an :class:`~repro.core.overlay.OverlayNetwork` (walked
    as a :class:`CurtainTopology`) or a
    :class:`~repro.core.random_graph.RandomGraphOverlay` (a
    :class:`GraphTopology`); either may be mutated between slots.
    Reports and completion checks cover the topology's measured nodes
    whose role is :attr:`NodeRole.HONEST`.

    Args:
        seed: Root seed of the one :class:`RngStreams` the behaviour and
            the runtime share.
        loss: Ergodic per-delivery loss model.
        outage: Ergodic per-node outage model (§2).
        roles: Optional ``node_id -> NodeRole`` for the §7 attacks.
    """
    streams = RngStreams(seed)
    behavior = RlncBehavior(content, params, streams, roles=roles)
    topology: Topology = (
        GraphTopology(overlay) if isinstance(overlay, RandomGraphOverlay)
        else CurtainTopology(overlay)
    )

    def honest() -> list[int]:
        return [
            n for n in topology.measured_nodes()
            if behavior.role_of(n) is NodeRole.HONEST
        ]

    return SlottedRuntime(
        topology, behavior, streams=streams, loss=loss, outage=outage,
        measured=honest,
    )


def uncoded(
    net: OverlayNetwork,
    packet_count: int,
    *,
    seed: Optional[int] = None,
    loss: Optional[LossModel] = None,
    behavior: Callable[[int, RngStreams], NodeBehavior] = StoreForwardBehavior,
) -> SlottedRuntime:
    """Uncoded flooding of ``packet_count`` pieces over a curtain overlay.

    The coupon-collector baselines RLNC is measured against: pass
    ``behavior=RarestFirstBehavior`` for BitTorrent's rarest-first piece
    selection instead of uniformly random forwarding.  Reports cover the
    working nodes; :attr:`RunReport.mean_unique_fraction` and
    :attr:`RunReport.duplicate_fraction` are the flooding summaries.
    """
    streams = RngStreams(seed)
    return SlottedRuntime(
        CurtainTopology(net), behavior(packet_count, streams),
        streams=streams, loss=loss,
    )
