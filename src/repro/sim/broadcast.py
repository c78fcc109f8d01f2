"""Slotted packet-level broadcast simulation with RLNC at every node.

The paper's bandwidth model makes time-slotting the natural clock: every
thread carries exactly one unit-size packet per slot.  Each slot proceeds
in two phases so transmissions are simultaneous (a packet received in
slot ``t`` can be remixed no earlier than slot ``t+1``):

1. *emit* — the server pushes one fresh coded packet down each column to
   that column's first occupant; every working node pushes one fresh
   mixture of its current buffer down each of its threads that has a
   child attached.
2. *deliver* — packets cross their thread segments (subject to the loss
   model and the receiver being alive) and enter receiver buffers.

Failure attackers are simply failed nodes; entropy attackers replay
trivial combinations instead of mixing; jammers inject random garbage
that claims to be a valid combination (§7's pollution scenario).

The overlay may be mutated between slots (join/leave/fail/repair) — the
simulator picks up topology changes automatically, which is exactly the
robustness-to-churn property network coding buys.

Since the runtime unification this class is a thin adapter: the slot
kernel lives in :class:`~repro.sim.runtime.SlottedRuntime`, the curtain
edge view in :class:`~repro.sim.runtime.CurtainTopology`, and the
RLNC/attacker node state in :class:`~repro.sim.behaviors.RlncBehavior`.
Seeded runs are golden-tested identical to the pre-unification loop.
"""

from __future__ import annotations

from typing import Optional

from ..coding.generation import GenerationParams
from ..coding.recoder import Recoder
from ..core.overlay import OverlayNetwork
from .behaviors import NodeRole, RlncBehavior
from .links import LinkStats, LossModel, OutageModel
from .report import BroadcastReport, NodeReport, RunReport
from .rng import RngStreams
from .runtime import DEFAULT_MAX_SLOTS, CurtainTopology, SlottedRuntime

__all__ = [
    "BroadcastReport",
    "BroadcastSimulation",
    "NodeReport",
    "NodeRole",
]


class BroadcastSimulation:
    """Run RLNC broadcast over a curtain overlay.

    Args:
        net: The overlay (may be mutated between ``step`` calls).
        content: Bytes the server broadcasts.
        params: Generation geometry.
        seed: Root seed for the simulation's random streams.
        loss: Ergodic per-delivery loss model.
        outage: Ergodic per-node outage model (§2): outaged nodes
            neither send nor receive until they spontaneously recover —
            no complaint, no repair.
        roles: Optional ``node_id -> NodeRole`` for attack experiments.
        systematic: Emit original packets first from the server.
    """

    def __init__(
        self,
        net: OverlayNetwork,
        content: bytes,
        params: GenerationParams,
        seed: Optional[int] = None,
        loss: Optional[LossModel] = None,
        outage: Optional[OutageModel] = None,
        roles: Optional[dict[int, NodeRole]] = None,
        systematic: bool = False,
    ) -> None:
        self.net = net
        self.content = content
        self.params = params
        self.streams = RngStreams(seed)
        self.behavior = RlncBehavior(
            content, params, self.streams, roles=roles, systematic=systematic,
        )
        self.topology = CurtainTopology(net)
        self.runtime = SlottedRuntime(
            self.topology,
            self.behavior,
            streams=self.streams,
            loss=loss,
            outage=outage,
            measured=self._honest_working_nodes,
        )

    # -- delegated state -----------------------------------------------

    @property
    def loss(self) -> LossModel:
        return self.runtime.loss

    @property
    def outage(self) -> Optional[OutageModel]:
        return self.runtime.outage

    @property
    def outaged(self) -> set[int]:
        """Nodes currently in an ergodic outage (silent, not failed)."""
        return self.runtime.outaged

    @property
    def roles(self) -> dict[int, NodeRole]:
        return self.behavior.roles

    @property
    def encoder(self):
        return self.behavior.encoder

    @property
    def generation_count(self) -> int:
        return self.behavior.generation_count

    @property
    def slot(self) -> int:
        return self.runtime.slot

    @property
    def link_stats(self) -> LinkStats:
        return self.runtime.link_stats

    @property
    def server_packets(self) -> int:
        return self.runtime.server_packets

    @property
    def server_detach_slot(self) -> Optional[int]:
        return self.runtime.server_detach_slot

    @server_detach_slot.setter
    def server_detach_slot(self, value: Optional[int]) -> None:
        self.runtime.server_detach_slot = value

    @property
    def _recoders(self) -> dict[int, Recoder]:
        return self.behavior._recoders

    @property
    def _received(self) -> dict[int, int]:
        return self.behavior._received

    @property
    def _innovative(self) -> dict[int, int]:
        return self.behavior._innovative

    @property
    def _completed_at(self) -> dict[int, int]:
        return self.behavior._completed_at

    # -- behaviour pass-throughs ---------------------------------------

    def role_of(self, node_id: int) -> NodeRole:
        return self.behavior.role_of(node_id)

    def recoder_of(self, node_id: int) -> Recoder:
        """The node's buffer/codec state, created on first contact."""
        return self.behavior.recoder_of(node_id)

    # -- running --------------------------------------------------------

    def step(self) -> None:
        """Advance one slot (outage dynamics, emit phase, deliver phase)."""
        self.runtime.step()

    def detach_server(self, at_slot: Optional[int] = None) -> None:
        """Stop the server's emissions at ``at_slot`` (default: now).

        Models §6's self-sustaining download: once the swarm collectively
        holds every degree of freedom (see :meth:`swarm_has_full_rank`),
        peers can finish the distribution among themselves.
        """
        self.runtime.detach_server(at_slot)

    def swarm_has_full_rank(self) -> bool:
        """True if the working peers collectively hold all content DoF."""
        failed = self.net.server.failed
        matrix = self.net.matrix
        return self.behavior.swarm_has_full_rank(
            include=lambda node_id: node_id not in failed and node_id in matrix
        )

    def run(self, slots: int) -> RunReport:
        """Run ``slots`` more slots and return the cumulative report."""
        return self.runtime.run(slots)

    def run_until_complete(
        self, max_slots: int = DEFAULT_MAX_SLOTS, nodes: Optional[list[int]] = None
    ) -> RunReport:
        """Run until every (given or working honest) node decodes.

        Stops at ``max_slots`` regardless; check ``completion_fraction``.
        """
        return self.runtime.run_until_complete(max_slots, nodes)

    def _honest_working_nodes(self) -> list[int]:
        return [
            n for n in self.net.working_nodes
            if self.behavior.role_of(n) is NodeRole.HONEST
        ]

    def report(self, nodes: Optional[list[int]] = None) -> RunReport:
        """Build the report for the given nodes (default: working honest)."""
        return self.runtime.report(nodes)
