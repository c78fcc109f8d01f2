"""Large-swarm harness: thousands of peers on the virtual network.

The chaos scenarios optimise for fidelity — a trace of every event, a
settle after every timer — which is the right trade at a dozen peers
and hopeless at ten thousand.  :class:`SwarmHarness` reuses the exact
same node code, network and :class:`ChaosHarness` machinery, sized for
scale:

* the :class:`~repro.net.testing.virtualnet.VirtualNetwork` runs with
  trace recording off (its links are clean, so every delivery is
  synchronous and no pipe ever needs a pump task);
* the :class:`~repro.net.testing.virtualnet.VirtualClock` batches all
  timers due within one ``quantum`` and settles the loop once per
  batch;
* joins are batched (:meth:`ChaosHarness.add_peers`) instead of one
  clock pump per peer;
* pacing is stretched — seconds-long emission intervals and long
  keepalives, so virtual hours cost thousands of timer firings per
  node, not millions.

The headline driver is :meth:`SwarmHarness.run_round`: join *n* peers,
broadcast until everyone decodes, crash a fraction of the swarm, and
run until every survivor has decoded — the acceptance gate for the
10k-peer scaling work.  :meth:`report` reads the result off the
server's observability registry (no trace needed).
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import time
from dataclasses import dataclass, field

import numpy as np

from ...obs import snapshot_obj
from .scenarios import ChaosConfig, ChaosHarness

__all__ = ["SwarmConfig", "SwarmHarness", "SwarmReport", "run_swarm_round"]


@contextlib.contextmanager
def _gc_paused():
    """Suspend the cyclic collector for the duration of a swarm phase.

    A 10k-peer swarm is millions of long-lived, heavily cross-linked
    objects; generational GC rescans that graph every few thousand
    allocations and eats ~40% of the round's wall clock finding nothing
    to free.  One collection at the end reclaims the true garbage.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
            gc.collect()


#: Timer-coalescing window for the quantum clock.
QUANTUM = 0.25
#: Concurrent hellos per join wave.
JOIN_BATCH = 256
#: Fraction of the swarm crashed by :meth:`SwarmHarness.churn`.
CHURN_FRACTION = 0.10


@dataclass(frozen=True)
class SwarmConfig(ChaosConfig):
    """Geometry and pacing for one large-swarm round.

    A :class:`ChaosConfig` with swarm-scale defaults (only the fields
    that differ are redeclared).
    Defaults are sized for a 1k-peer smoke; scale ``peers`` up and the
    rest holds.  Content is deliberately small (one generation): swarm
    runs measure control-plane and transport scaling, not bulk decode
    throughput — the bulk workloads of ``benchmarks/e2e`` cover that.
    """

    peers: int = 1000
    #: Server threads.  Chains are ~``peers * d / k`` deep; a wide
    #: server keeps depth (and hence per-round settle work) manageable.
    k: int = 32
    payload_size: int = 32
    generations: int = 1
    #: One server emission round per (virtual) second.
    send_interval: float = 1.0
    keepalive_interval: float = 10.0
    silence_timeout: float = 30.0
    probe_timeout: float = 4.0
    reconnect_base: float = 0.5
    reconnect_max: float = 4.0
    forward_policy: str = "innovative"
    #: One full generation the moment a child attaches.
    seed_burst: int = 8
    #: Virtual-time budget for each phase (join / broadcast / re-decode).
    deadline: float = 900.0


@dataclass
class SwarmReport:
    """What one swarm round cost and whether it converged."""

    peers: int
    seed: int
    joined: int
    killed: int
    converged: bool
    survivors_decoded: bool
    virtual_elapsed: float
    wall_join: float
    wall_broadcast: float
    wall_churn: float
    violations: list[str] = field(default_factory=list)
    #: Raw server counters lifted from the obs registry snapshot.
    server_metrics: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.converged and self.survivors_decoded and not self.violations

    @property
    def wall_total(self) -> float:
        return self.wall_join + self.wall_broadcast + self.wall_churn

    def summary(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return (
            f"swarm n={self.peers} seed={self.seed}: {status} "
            f"wall={self.wall_total:.1f}s "
            f"(join {self.wall_join:.1f}s, broadcast {self.wall_broadcast:.1f}s, "
            f"churn {self.wall_churn:.1f}s) virtual={self.virtual_elapsed:.0f}s "
            f"killed={self.killed}"
        )


class SwarmHarness(ChaosHarness):
    """A :class:`ChaosHarness` sized for thousands of peers."""

    config: SwarmConfig

    def __init__(self, config: SwarmConfig) -> None:
        super().__init__(
            config,
            transport="virtual",
            quantum=QUANTUM,
            record_trace=False,
        )
        self._churn_rng = np.random.default_rng(config.seed ^ 0xC0FFEE)
        # Deep chains cascade synchronously on clean links: one server
        # emission can ripple through hundreds of hops inside a single
        # settle, each hop costing a few ready-queue passes.
        self.clock.settle_limit = 500_000

    # -- phases --------------------------------------------------------

    async def join_all(self) -> None:
        """Server up, then the whole population in concurrent waves."""
        await self.start(peers=0)
        await self.add_peers(
            self.config.peers,
            batch=JOIN_BATCH,
            timeout=self.config.deadline,
        )

    def churn(self, fraction: float | None = None) -> list[int]:
        """Crash a uniformly random fraction of the live population."""
        fraction = CHURN_FRACTION if fraction is None else fraction
        live = [index for index, _ in self.alive()]
        count = int(len(live) * fraction)
        victims = sorted(
            self._churn_rng.choice(len(live), size=count, replace=False)
        )
        chosen = [live[v] for v in victims]
        for index in chosen:
            self.kill(index)
        return chosen

    async def teardown(self) -> None:
        """Batched shutdown: close every surviving peer concurrently.

        The chaos teardown closes peers one clock-pump at a time —
        that ordering is part of the pinned traces, but here it would
        cost more wall time than the round itself.
        """
        if self.server is not None:
            await self._drive(self.server.stop(), timeout=30.0)
        open_peers = [
            peer for index, peer in enumerate(self.peers)
            if index not in self.killed
        ]
        if open_peers:
            await self._drive(
                asyncio.gather(*(peer.close() for peer in open_peers)),
                timeout=60.0,
            )

    def repaired(self) -> bool:
        """True once every crash has been detected and spliced out."""
        core = self.server.core
        if core.failed:
            return False
        return all(
            self.peers[index].node_id is None
            or self.peers[index].node_id not in core.registry
            for index in self.killed
        )

    # -- the acceptance round ------------------------------------------

    async def run_round(self) -> SwarmReport:
        """join -> broadcast -> 10% churn mid-decode -> survivors decode.

        The churn lands at half progress, so the killed peers take live
        streams down with them: their children must complain, get
        redirected, and finish decoding off the replacement parents.
        """
        with _gc_paused():
            t0 = time.perf_counter()
            await self.join_all()
            t1 = time.perf_counter()
            started = await self.run_until(lambda: self.progress() >= 0.5)
            t2 = time.perf_counter()
            killed = self.churn()
            # Survivors whose parents died must complain, get repaired
            # and keep decoding off their new streams — this is where
            # the repair path earns its keep at scale.
            decoded = await self.run_until(self.converged)
            converged = started and decoded
            healed = await self.run_until(self.repaired)
            await self.settle()
            if decoded and healed:
                self.check_invariants()
            else:
                self.expect(decoded, "survivors never finished decoding")
                self.expect(healed, "server never repaired all crashed peers")
            t3 = time.perf_counter()
        return self.report(
            converged=converged,
            decoded=decoded,
            killed=len(killed),
            wall=(t1 - t0, t2 - t1, t3 - t2),
        )

    # -- reporting -----------------------------------------------------

    def report(
        self,
        *,
        converged: bool,
        decoded: bool,
        killed: int,
        wall: tuple[float, float, float],
    ) -> SwarmReport:
        """Fold the server's obs registry into a :class:`SwarmReport`."""
        snapshot = snapshot_obj(self.server.registry)
        sections = next(iter(snapshot["registries"].values()), {})
        metrics: dict = {}
        for kind in ("counters", "gauges"):
            metrics.update(sections.get(kind, {}))
        return SwarmReport(
            peers=self.config.peers,
            seed=self.config.seed,
            joined=sum(1 for p in self.peers if p.node_id is not None),
            killed=killed,
            converged=converged,
            survivors_decoded=decoded,
            virtual_elapsed=self.clock.time() - self._t0,
            wall_join=wall[0],
            wall_broadcast=wall[1],
            wall_churn=wall[2],
            violations=list(self.violations),
            server_metrics=metrics,
        )


async def run_swarm_round(config: SwarmConfig) -> SwarmReport:
    """Convenience wrapper: one full round with clean teardown."""
    harness = SwarmHarness(config)
    try:
        return await harness.run_round()
    finally:
        await harness.teardown()
