"""Scenario orchestration: overlay + data plane + failures in one config.

:class:`SessionConfig` describes a whole experiment — overlay geometry,
content, coding parameters, per-slot dynamics (failures, repairs, churn,
losses, attackers) — and :func:`run_session` executes it, returning the
data-plane report plus event accounting.  The examples and the E7/E11
benches are thin wrappers over this.

Since the runtime unification the per-interval dynamics (repair sweeps,
failures, graceful leaves, joins) are a *slot hook* on the shared
:class:`~repro.sim.runtime.SlottedRuntime`, so the same failure scenario
drives any topology: ``topology="curtain"`` runs the thread-matrix
overlay, ``topology="graph"`` the §6 edge-splitting overlay (which has
no repair protocol — non-ergodic failures are a curtain-only concept).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from ..coding.generation import GenerationParams
from ..core.overlay import OverlayNetwork
from ..core.random_graph import RandomGraphOverlay
from .behaviors import NodeRole
from .links import LossModel
from .report import RunReport
from .rng import RngStreams
from .runtime import SlottedRuntime, rlnc


@dataclass
class SessionConfig:
    """Everything needed to run one broadcast scenario.

    Attributes:
        k: Server threads.
        d: Per-node threads.
        population: Initial node count.
        content_size: Bytes to broadcast.
        generation_size: Source packets per generation.
        payload_size: Bytes per packet.
        loss_rate: Ergodic per-delivery loss probability.
        fail_probability: Per-node, per-repair-interval probability of a
            non-ergodic failure during the run (curtain topology only).
        repair_interval: Slots between dynamics sweeps (failures found in
            a sweep are spliced out; 0 disables failures, repairs, and
            churn).
        join_rate: Nodes joining per repair interval.
        leave_probability: Per-node graceful-leave probability per repair
            interval.
        entropy_attacker_fraction: Fraction of initial nodes replaying
            trivial combinations (§7).
        jammer_fraction: Fraction of initial nodes injecting garbage (§7).
        systematic: Server sends originals first.
        insert_mode: Matrix row insertion mode ("append"/"uniform",
            curtain topology only).
        max_slots: Hard stop for the run.
        seed: Root seed.
        topology: Overlay family — "curtain" (thread matrix, §3–§5) or
            "graph" (§6 random edge-splitting overlay).
    """

    k: int
    d: int
    population: int
    content_size: int = 16_384
    generation_size: int = 16
    payload_size: int = 256
    loss_rate: float = 0.0
    fail_probability: float = 0.0
    repair_interval: int = 0
    join_rate: int = 0
    leave_probability: float = 0.0
    entropy_attacker_fraction: float = 0.0
    jammer_fraction: float = 0.0
    systematic: bool = False
    insert_mode: str = "append"
    max_slots: int = 5_000
    seed: Optional[int] = None
    topology: str = "curtain"


@dataclass
class SessionResult:
    """Outcome of :func:`run_session`."""

    report: RunReport
    failures_injected: int
    repairs_performed: int
    joins: int
    graceful_leaves: int
    net: Union[OverlayNetwork, RandomGraphOverlay] = field(repr=False)
    simulation: SlottedRuntime = field(repr=False)
    #: node id -> slot at which it joined (0 for the initial population)
    joined_at: dict[int, int] = field(default_factory=dict, repr=False)

    def download_durations(self) -> dict[int, int]:
        """Per-node download time in slots (§1's asynchronous framing).

        A node's download runs from its own join slot to its decode
        completion; late joiners are measured on their own clock, which
        is what an asynchronous file-distribution user experiences.
        Only completed nodes appear.
        """
        durations = {}
        for node in self.report.nodes:
            if node.completed_at is None:
                continue
            durations[node.node_id] = (
                node.completed_at - self.joined_at.get(node.node_id, 0)
            )
        return durations


def _assign_roles(
    node_ids: list[int],
    config: SessionConfig,
    rng: np.random.Generator,
) -> dict[int, NodeRole]:
    roles: dict[int, NodeRole] = {}
    count = len(node_ids)
    n_entropy = int(round(config.entropy_attacker_fraction * count))
    n_jammer = int(round(config.jammer_fraction * count))
    if n_entropy + n_jammer > count:
        raise ValueError("attacker fractions exceed the population")
    shuffled = list(node_ids)
    rng.shuffle(shuffled)
    for node_id in shuffled[:n_entropy]:
        roles[node_id] = NodeRole.ENTROPY_ATTACKER
    for node_id in shuffled[n_entropy : n_entropy + n_jammer]:
        roles[node_id] = NodeRole.JAMMER
    return roles


class _SessionDynamics:
    """The per-interval churn/repair sweep, as a runtime slot hook.

    Runs at the top of every ``repair_interval``-th slot: repair sweep
    first (end of previous interval), then failure/leave rolls over the
    working population, then joins.  Counters are read back into the
    :class:`SessionResult` after the run.
    """

    def __init__(
        self,
        net: Union[OverlayNetwork, RandomGraphOverlay],
        config: SessionConfig,
        rng: np.random.Generator,
        joined_at: dict[int, int],
    ) -> None:
        self.net = net
        self.config = config
        self.rng = rng
        self.joined_at = joined_at
        self.failures = 0
        self.repairs = 0
        self.joins = 0
        self.leaves = 0

    def __call__(self, runtime: SlottedRuntime) -> None:
        interval = self.config.repair_interval
        if not interval or runtime.slot % interval != 0 or runtime.slot == 0:
            return
        net = self.net
        if isinstance(net, OverlayNetwork):
            # Repair sweep first (end of previous interval), then dynamics.
            self.repairs += len(net.server.failed)
            net.repair_all()
        for node_id in list(runtime.topology.live_nodes()):
            roll = self.rng.random()
            if roll < self.config.fail_probability:
                net.fail(node_id)
                self.failures += 1
            elif roll < self.config.fail_probability + self.config.leave_probability:
                if net.population > 1:
                    net.leave(node_id)
                    self.leaves += 1
        for _ in range(self.config.join_rate):
            joined = net.join()
            node_id = joined if isinstance(joined, int) else joined.node_id
            self.joined_at[node_id] = runtime.slot
            self.joins += 1


def run_session(config: SessionConfig) -> SessionResult:
    """Build the overlay, run the broadcast with dynamics, report."""
    streams = RngStreams(config.seed)
    params = GenerationParams(
        generation_size=config.generation_size, payload_size=config.payload_size
    )
    content_rng = streams.get("content")

    if config.topology == "curtain":
        net: Union[OverlayNetwork, RandomGraphOverlay] = OverlayNetwork(
            k=config.k, d=config.d, seed=streams.get("overlay"),
            insert_mode=config.insert_mode,
        )
    elif config.topology == "graph":
        if config.fail_probability:
            raise ValueError(
                "the §6 random-graph overlay has no fail/repair protocol; "
                "non-ergodic failures require topology='curtain'"
            )
        net = RandomGraphOverlay(k=config.k, d=config.d,
                                 seed=streams.get("overlay"))
    else:
        raise ValueError(f"unknown topology {config.topology!r}")

    initial = net.grow(config.population)
    content = content_rng.integers(
        0, 256, size=config.content_size, dtype=np.uint8
    ).tobytes()
    roles = _assign_roles(initial, config, streams.get("roles"))
    simulation = rlnc(
        net, content, params, seed=config.seed,
        loss=LossModel(config.loss_rate), roles=roles,
        systematic=config.systematic,
    )

    joined_at = {node_id: 0 for node_id in initial}
    dynamics = _SessionDynamics(net, config, streams.get("dynamics"), joined_at)
    simulation.add_slot_hook(dynamics)
    report = simulation.run_until_complete(max_slots=config.max_slots)

    return SessionResult(
        report=report,
        failures_injected=dynamics.failures,
        repairs_performed=dynamics.repairs,
        joins=dynamics.joins,
        graceful_leaves=dynamics.leaves,
        net=net,
        simulation=simulation,
        joined_at=joined_at,
    )


# ----------------------------------------------------------------------
# Named scenarios: the paper's motivating use cases as presets with
# sensible laptop-scale parameters; examples and benches start from them
# and tweak.


def live_streaming(seed: Optional[int] = None, **overrides) -> SessionConfig:
    """Synchronous broadcast of a live event to a stable audience.

    Small generations (low latency), steady small churn, light ergodic
    loss — the "television event" scenario of §1.
    """
    config = SessionConfig(
        k=24,
        d=4,
        population=80,
        content_size=24_576,
        generation_size=12,
        payload_size=256,
        loss_rate=0.01,
        fail_probability=0.005,
        repair_interval=8,
        join_rate=0,
        leave_probability=0.0,
        max_slots=2_500,
        seed=seed,
    )
    return replace(config, **overrides)


def file_download(seed: Optional[int] = None, **overrides) -> SessionConfig:
    """Asynchronous file distribution (the BitTorrent-style scenario).

    Larger generations (throughput over latency), nodes join during the
    run, graceful leaves allowed.
    """
    config = SessionConfig(
        k=20,
        d=2,
        population=60,
        content_size=32_768,
        generation_size=16,
        payload_size=512,
        loss_rate=0.0,
        fail_probability=0.004,
        repair_interval=10,
        join_rate=2,
        leave_probability=0.002,
        max_slots=4_000,
        seed=seed,
    )
    return replace(config, **overrides)


def flash_crowd(seed: Optional[int] = None, **overrides) -> SessionConfig:
    """A release-day rush: small initial swarm, aggressive join rate."""
    config = SessionConfig(
        k=24,
        d=3,
        population=20,
        content_size=16_384,
        generation_size=16,
        payload_size=256,
        loss_rate=0.005,
        fail_probability=0.002,
        repair_interval=5,
        join_rate=6,
        leave_probability=0.0,
        max_slots=3_000,
        seed=seed,
    )
    return replace(config, **overrides)
