"""In-process loopback deployments: a server plus N peers on 127.0.0.1.

This is the live-transport analogue of the simulators' ``run_until_
complete``: spin up a :class:`~repro.net.server.ServerNode` and ``N``
:class:`~repro.net.peer.PeerNode` instances over real TCP sockets, wait
for every peer to decode every generation (or a deadline), and fold the
outcome into the same :class:`~repro.sim.report.RunReport` the slotted
simulators produce — so every existing report/metrics consumer works on
live runs unchanged.  "Slots" map to server emission rounds: a node's
``completed_at`` is the round counter at the moment it decoded.

The harness can also kill one peer mid-run (no good-bye, sockets torn
down) to exercise the live repair path: the server splices the victim
out, its children re-clip, and the broadcast still converges.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..coding.generation import GenerationParams
from ..obs import snapshot_obj
from ..obs.http import MetricsServer
from ..sim.links import LinkStats
from ..sim.report import NodeReport, RunReport, TransportReport
from .peer import PeerNode
from .server import ServerNode

__all__ = ["LoopbackConfig", "LoopbackResult", "run_loopback", "run_loopback_sync"]


@dataclass
class LoopbackConfig:
    """Geometry and pacing of a loopback deployment."""

    peers: int = 8
    k: int = 4
    d: int = 2
    generation_size: int = 8
    payload_size: int = 64
    generations: int = 2
    seed: int = 0
    insert_mode: str = "append"
    send_interval: float = 0.004
    queue_limit: int = 32
    keepalive_interval: float = 0.1
    silence_timeout: float = 0.4
    probe_timeout: float = 0.2
    deadline: float = 30.0
    #: Index of a peer to kill mid-run (None = no failure injection).
    kill_peer: Optional[int] = None
    #: Fraction of mean decode progress at which the kill fires.
    kill_at_progress: float = 0.25
    #: Serve live snapshots over HTTP during the run (None = off;
    #: 0 = ephemeral port, reported via ``LoopbackResult.metrics_port``).
    metrics_port: Optional[int] = None

    def __post_init__(self) -> None:
        if self.peers < 1:
            raise ValueError("need at least one peer")
        if not 1 <= self.d <= self.k:
            raise ValueError(f"need 1 <= d <= k, got d={self.d}, k={self.k}")
        if self.kill_peer is not None and not 0 <= self.kill_peer < self.peers:
            raise ValueError("kill_peer out of range")

    @property
    def content_size(self) -> int:
        """Exactly ``generations`` full generations of content."""
        return self.generations * self.generation_size * self.payload_size


@dataclass
class LoopbackResult:
    """A live run's report plus transport-level diagnostics."""

    report: RunReport
    wall_clock: float
    converged: bool
    repairs: int
    reconnects: int
    complaints: int
    drops: int
    killed: Optional[int] = None
    peer_stats: list = field(default_factory=list)
    #: Final merged obs snapshot of every node (``repro.obs`` schema).
    snapshot: Optional[dict] = None
    #: Port the metrics endpoint actually bound (None = not enabled).
    metrics_port: Optional[int] = None


async def run_loopback(config: LoopbackConfig) -> LoopbackResult:
    """Run one loopback deployment to convergence (or the deadline)."""
    rng = np.random.default_rng(config.seed)
    content = rng.integers(
        0, 256, size=config.content_size, dtype=np.uint8
    ).tobytes()
    params = GenerationParams(config.generation_size, config.payload_size)
    server = ServerNode(
        content, params,
        k=config.k, d=config.d, seed=config.seed,
        insert_mode=config.insert_mode,
        send_interval=config.send_interval,
        queue_limit=config.queue_limit,
        keepalive_interval=config.keepalive_interval,
        probe_timeout=config.probe_timeout,
    )
    await server.start()

    completion_rounds: dict[int, int] = {}
    peers: list[PeerNode] = []
    all_done = asyncio.Event()
    loop = asyncio.get_running_loop()
    started = loop.time()
    killed: Optional[int] = None

    def survivors() -> list[PeerNode]:
        return [p for i, p in enumerate(peers) if i != killed]

    def _check_done() -> None:
        if peers and all(p.completed for p in survivors()):
            all_done.set()

    def _record_completion(peer: PeerNode) -> None:
        completion_rounds[peer.node_id] = server.stats.rounds
        _check_done()

    def mean_progress() -> float:
        return float(np.mean([
            p.rank / p.needed if p.needed else 0.0 for p in survivors()
        ]))

    async def _kill_watcher() -> None:
        # The kill trigger is a progress threshold, which has no event to
        # wait on — this poll is the only sampling loop left; completion
        # itself is event-driven via on_complete.
        nonlocal killed
        while killed is None:
            if mean_progress() >= config.kill_at_progress:
                killed = config.kill_peer
                peers[killed].kill()
                _check_done()
                return
            await asyncio.sleep(config.send_interval)

    def merged_snapshot() -> dict:
        registries = {server.registry.name: server.registry}
        registries.update({p.registry.name: p.registry for p in peers})
        return snapshot_obj(registries)

    metrics: Optional[MetricsServer] = None
    if config.metrics_port is not None:
        metrics = await MetricsServer(
            merged_snapshot, port=config.metrics_port
        ).start()

    watcher: Optional[asyncio.Task] = None
    try:
        for i in range(config.peers):
            peer = PeerNode(
                "127.0.0.1", server.port,
                seed=config.seed + 1 + i,
                queue_limit=config.queue_limit,
                keepalive_interval=config.keepalive_interval,
                silence_timeout=config.silence_timeout,
                on_complete=_record_completion,
            )
            await peer.start()
            peers.append(peer)
        if config.kill_peer is not None:
            watcher = asyncio.ensure_future(_kill_watcher())
        _check_done()  # a peer may have completed during staggered startup
        try:
            await asyncio.wait_for(all_done.wait(), timeout=config.deadline)
        except asyncio.TimeoutError:
            pass
        wall_clock = loop.time() - started
    finally:
        if watcher is not None:
            watcher.cancel()
        # Snapshot before teardown so callback gauges read live state.
        final_snapshot = merged_snapshot()
        if metrics is not None:
            await metrics.stop()
        # Server first: the run is over, so peer disconnections below
        # must not register as crashes needing repair.
        await server.stop()
        for i, peer in enumerate(peers):
            if i != killed:
                await peer.close()

    # ------------------------------------------------------------------
    # Fold into the simulators' report shape.

    nodes = []
    link_stats = LinkStats()
    all_sender_stats = list(server.sender_stats)
    for index, peer in enumerate(peers):
        decoded_ok: Optional[bool] = None
        if peer.completed and index != killed:
            decoded_ok = peer.recovered_content() == content
        nodes.append(NodeReport(
            node_id=peer.node_id if peer.node_id is not None else -index - 1,
            rank=peer.rank,
            needed=peer.needed,
            completed_at=completion_rounds.get(peer.node_id),
            received=peer.stats.received,
            innovative=peer.stats.innovative,
            decoded_ok=decoded_ok,
        ))
        all_sender_stats.extend(peer.sender_stats)
    # A delivery attempt is a packet enqueued toward a downstream node;
    # it succeeds unless evicted by backpressure (written-but-unread
    # frames at teardown are counted as delivered — the queue is the
    # only intentional loss point).
    drops = sum(s.dropped for s in all_sender_stats)
    link_stats.record_batch(
        sum(s.enqueued for s in all_sender_stats),
        sum(s.enqueued - s.dropped for s in all_sender_stats),
    )
    transport = TransportReport(
        frames_sent=sum(s.sent for s in all_sender_stats),
        bytes_sent=sum(s.bytes_sent for s in all_sender_stats),
        flushes=sum(s.flushes for s in all_sender_stats),
        keepalives=sum(s.keepalives for s in all_sender_stats),
    )
    report = RunReport(
        slots=server.stats.rounds,
        nodes=nodes,
        link_stats=link_stats,
        server_packets=server.stats.packets_sent,
        transport=transport,
    )
    alive = [n for i, n in enumerate(nodes) if i != killed]
    return LoopbackResult(
        report=report,
        wall_clock=wall_clock,
        converged=all(n.completed_at is not None for n in alive),
        repairs=server.stats.repairs,
        reconnects=sum(p.stats.reconnects for p in peers),
        complaints=sum(p.stats.complaints for p in peers),
        drops=drops,
        killed=killed,
        peer_stats=[p.stats for p in peers],
        snapshot=final_snapshot,
        metrics_port=metrics.port if metrics is not None else None,
    )


def run_loopback_sync(config: LoopbackConfig) -> LoopbackResult:
    """Blocking wrapper around :func:`run_loopback`."""
    return asyncio.run(run_loopback(config))
