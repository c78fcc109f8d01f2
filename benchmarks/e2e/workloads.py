"""The five workloads: one function per workload, one call per rep.

Every rep builds its deployment from scratch, times its own set-up,
checks its own output and reports failures against attempts; a rep whose
check fails scores its deadline, never a timing for wrong output.  The
program under test receives only configuration and the seed it derives
its content from — no dual-mode switch (``batched=``, ``turbo=``,
``quantum=``, ``coalesce=``, wire ``version=``) is passed anywhere, the
library defaults decide.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from repro.coding.buffers import DEFAULT_POOL
from repro.core.server import CoordinationServer
from repro.net.testing.scenarios import ChaosConfig, ChaosHarness
from repro.net.testing.swarm import SwarmConfig, SwarmHarness
from repro.obs import snapshot_obj
from repro.protocol import (
    Admitted,
    ConnectionLost,
    JoinRequest,
    LeaveRequest,
    MessageReceived,
    ServerEngine,
)

MB = 1e6


@dataclass
class Rep:
    """What one rep measured."""

    #: Rep start to the first timed operation.
    setup_s: float
    #: ``perf_counter`` stamps bracketing the timed region (the ledger's
    #: wall time on a traced rep).
    window: tuple[float, float]
    #: The workload's own end-to-end metrics.
    values: dict[str, float]
    attempted: int
    #: One line per failed operation.
    failures: list[str] = field(default_factory=list)
    #: Boundary counts over the timed region, for the per-layer ratios.
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.attempted)


@dataclass(frozen=True)
class Workload:
    name: str
    #: End-to-end metrics this workload measures besides ``setup_s`` and
    #: ``peak_rss_MB``; every other one is not applicable here.
    native: tuple[str, ...]
    #: Cost of one rep (set-up and teardown included) on the sizing box;
    #: the rep count of a run is derived from it.
    rep_seconds: float
    #: True: reps draw their library seeds from the fixed panel
    #: ``0..reps-1`` and ``--seed`` only rotates the order (README,
    #: "Seeds").  False: rep ``i`` runs library seed ``seed + i``.
    panel: bool
    #: Reps repeated under tracing for the per-layer ledger.
    traced_reps: int
    #: ``run(library_seed, quick) -> Rep``
    run: Callable[[int, bool], Rep]


# ----------------------------------------------------------------------
# Boundary counts read off the nodes


def _registry_counters(node) -> dict:
    sections = next(iter(snapshot_obj(node.registry)["registries"].values()))
    return sections["counters"]


def _node_counts(server, peers) -> dict[str, float]:
    """Sums over every node's ``repro.obs`` registry and sender stats."""
    counts = dict.fromkeys((
        "dataplane.events", "dataplane.effects", "dataplane.packets_in",
        "dataplane.innovative_in", "dataplane.mixtures_out",
        "dataplane.idle_fills",
    ), 0)
    peer_packets = 0
    for node in (server, *peers):
        counters = _registry_counters(node)
        for name in counts:
            counts[name] += counters.get(name, 0)
        if node is not server:
            peer_packets += counters.get("dataplane.packets_in", 0)
    senders = [s for node in (server, *peers) for s in node.sender_stats]
    for name in ("sent", "keepalives", "bytes_sent", "flushes", "dropped"):
        counts[f"sender.{name}"] = sum(getattr(s, name) for s in senders)
    counts["peer_packets_in"] = peer_packets
    counts["rounds"] = server.stats.rounds
    return counts


def pool_counts() -> tuple[int, int]:
    """(leases, reuses) of the process-wide wire buffer pool so far."""
    return DEFAULT_POOL.stats.leases, DEFAULT_POOL.stats.reuses


# ----------------------------------------------------------------------
# bulk_virtual / smallgen_virtual / bulk_live

_BROADCAST = dict(
    peers=8, k=8, d=2,
    silence_timeout=10, keepalive_interval=2, probe_timeout=5,
)


async def _broadcast_rep(config: ChaosConfig, transport: str) -> Rep:
    begin = perf_counter()
    harness = ChaosHarness(config, transport=transport, record_trace=False)
    try:
        await harness.start()
        ready = perf_counter()
        # Packets flow while peers join; the ledger's counts are taken
        # over the timed region only, like its spans.
        before = _node_counts(harness.server, harness.peers)
        t0 = perf_counter()
        converged = await harness.run_until(harness.converged)
        t1 = perf_counter()
        # Read the byte counters before anything else runs: on real
        # sockets the pumps keep sending until teardown.
        nodes = (harness.server, *harness.peers)
        bytes_sent = sum(
            s.bytes_sent for node in nodes for s in node.sender_stats)
        counts = {
            name: value - before[name]
            for name, value in _node_counts(
                harness.server, harness.peers).items()
        }
        failures = []
        for index, peer in enumerate(harness.peers):
            if not peer.completed:
                failures.append(f"peer{index} missed the deadline")
            elif peer.recovered_content() != harness.content:
                failures.append(f"peer{index} decoded the wrong bytes")
        if not converged and not failures:
            failures.append("run_until(converged) gave up")
    finally:
        await harness.teardown()
    completed = config.peers - len(failures)
    wall = config.deadline if failures else t1 - t0
    return Rep(
        setup_s=ready - begin,
        window=(t0, t1),
        values={
            "goodput_MBps": config.content_size / wall / MB,
            "wire_bytes_per_payload_byte":
                bytes_sent / (config.content_size * max(completed, 1)),
        },
        attempted=config.peers,
        failures=failures,
        counts=counts,
    )


def _broadcast(transport: str, **geometry):
    def run(seed: int, quick: bool) -> Rep:
        config = ChaosConfig(seed=seed, **_BROADCAST, **geometry)
        return asyncio.run(_broadcast_rep(config, transport))
    return run


# ----------------------------------------------------------------------
# swarm_churn


class _StampedSwarm(SwarmHarness):
    """SwarmHarness that notes when the server came up (``setup_s``)."""

    server_up = 0.0

    async def start(self, peers=None) -> None:
        await super().start(peers)
        self.server_up = perf_counter()


async def _swarm_rep(config: SwarmConfig) -> Rep:
    begin = perf_counter()
    harness = _StampedSwarm(config)
    try:
        t0 = perf_counter()
        report = await harness.run_round()
        t1 = perf_counter()
        counts = _node_counts(harness.server, harness.peers)
    finally:
        await harness.teardown()
    failures = list(report.violations)
    if report.joined < config.peers:
        failures.append(f"{config.peers - report.joined} peers never joined")
    if not report.ok and not failures:
        failures.append("swarm round did not converge")
    attempted = config.peers + report.killed
    wall_join = config.deadline if failures else report.wall_join
    wall_churn = config.deadline if failures else report.wall_churn
    return Rep(
        setup_s=harness.server_up - begin,
        window=(t0, t1),
        values={
            "join_ops_per_s": report.joined / wall_join,
            "repair_ops_per_s": report.killed / wall_churn,
        },
        attempted=attempted,
        failures=failures,
        counts=counts,
    )


def _swarm(seed: int, quick: bool) -> Rep:
    config = SwarmConfig(peers=300 if quick else 2000, seed=seed)
    return asyncio.run(_swarm_rep(config))


# ----------------------------------------------------------------------
# membership_engine

_JOIN = MessageReceived(JoinRequest(reply_to=0))
#: What a rep with a failed check scores (the engine has no deadline).
_MEMBERSHIP_DEADLINE = 60.0


def _membership(seed: int, quick: bool) -> Rep:
    k, d = 32, 2
    n, cycles = (1000, 2000) if quick else (10_000, 20_000)
    begin = perf_counter()
    engine = ServerEngine(CoordinationServer(
        k, d, np.random.default_rng(seed), insert_mode="uniform"))
    draws = np.random.default_rng([seed, 1]).random(2 * cycles).tolist()
    live: list[int] = []
    failures: list[str] = []
    events = 0

    def handle(event):
        nonlocal events
        events += 1
        try:
            return engine.handle(event)
        except Exception as error:  # noqa: BLE001 - a raising event is a failed op
            failures.append(f"{event!r} raised {error!r}")
            return []

    def join() -> None:
        # The new id comes from the Admitted effect, as a driver sees it.
        effects = handle(_JOIN)
        admitted = effects[0] if effects else None
        if not isinstance(admitted, Admitted) or len(admitted.assignments) != d:
            failures.append(f"join answered {admitted!r}, wanted {d} threads")
        else:
            live.append(admitted.node_id)

    def pick(draw: float) -> int:
        index = int(draw * len(live))
        live[index], live[-1] = live[-1], live[index]
        return live.pop()

    for _ in range(n):
        join()
    t0 = perf_counter()
    grown = events
    for cycle in range(cycles):
        handle(ConnectionLost(pick(draws[2 * cycle])))
        leaver = pick(draws[2 * cycle + 1])
        handle(MessageReceived(LeaveRequest(leaver), sender=leaver))
        join()
        join()
    t1 = perf_counter()
    held = events - grown
    core = engine.core
    if core.population != n:
        failures.append(f"population {core.population} != {n}")
    lingering = engine.departed & core.registry.keys()
    if lingering:
        failures.append(f"{len(lingering)} departed ids still registered")
    if set(live) != set(core.registry):
        failures.append("registry disagrees with the ids the driver holds")
    wall = _MEMBERSHIP_DEADLINE if failures else t1 - t0
    return Rep(
        setup_s=t0 - begin,
        window=(t0, t1),
        values={"membership_ops_per_s": held / wall},
        attempted=events,
        failures=failures,
    )


# ----------------------------------------------------------------------

WORKLOADS = {w.name: w for w in (
    Workload(
        "bulk_virtual", ("goodput_MBps", "wire_bytes_per_payload_byte"),
        rep_seconds=3.1, panel=True, traced_reps=1,
        run=_broadcast(
            "virtual", generation_size=64, payload_size=1024, generations=8,
            send_interval=0.01, deadline=600),
    ),
    Workload(
        "smallgen_virtual", ("goodput_MBps", "wire_bytes_per_payload_byte"),
        rep_seconds=2.4, panel=True, traced_reps=1,
        run=_broadcast(
            "virtual", generation_size=8, payload_size=64, generations=64,
            send_interval=0.01, deadline=600),
    ),
    Workload(
        "bulk_live", ("goodput_MBps", "wire_bytes_per_payload_byte"),
        rep_seconds=0.33, panel=True, traced_reps=8,
        run=_broadcast(
            "live", generation_size=64, payload_size=1024, generations=1,
            send_interval=0.002, deadline=60),
    ),
    Workload(
        "swarm_churn", ("join_ops_per_s", "repair_ops_per_s"),
        rep_seconds=6.6, panel=False, traced_reps=1, run=_swarm,
    ),
    Workload(
        "membership_engine", ("membership_ops_per_s",),
        rep_seconds=3.0, panel=False, traced_reps=1, run=_membership,
    ),
)}
