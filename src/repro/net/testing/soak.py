"""Long-horizon churn soaks: virtual hours of membership churn.

A soak is the endurance counterpart to :meth:`SwarmHarness.run_round`:
instead of one join → broadcast → churn → recover arc, it drives a
*schedule* of joins, crashes and graceful leaves — shaped by the
generators in :mod:`repro.workloads.generator` — against a live swarm
for N virtual hours, one epoch at a time.  Between epochs it requires
the control plane to fully absorb the churn (every crash detected and
spliced out) and re-checks the structural invariants; the first
violation stops the run and captures a flight-recorder dump, so a
failing seed yields the engine history around the break, not a bare
assertion at the end of two virtual hours.

Three trace shapes cover the paper's motivating scenarios:

* ``steady`` — Poisson joins, crashes and leaves every epoch (the
  long-lived live channel);
* ``flash`` — a Gaussian arrival spike over a small base rate (the
  release-day rush of §3), with background crashes;
* ``correlated`` — steady trickle plus one mass-failure epoch that
  crashes a fixed fraction of the swarm at once (a rack or AS going
  dark), the worst case for the repair path.

Every run records the membership history it actually applied as a
:class:`~repro.workloads.trace.ChurnTrace`, so a soak that finds a bug
leaves behind a portable reproduction script.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ...workloads.generator import flash_crowd_schedule, steady_schedule
from ...workloads.trace import ChurnTrace, TraceEvent
from .swarm import SwarmConfig, SwarmHarness, _gc_paused

__all__ = ["SoakConfig", "SoakReport", "run_soak", "TRACE_SHAPES"]

#: Recognised ``SoakConfig.trace`` values.
TRACE_SHAPES = ("steady", "flash", "correlated")


@dataclass(frozen=True)
class SoakConfig:
    """Population, horizon and churn shape for one soak run."""

    #: Initial population, joined before the clock starts.
    peers: int = 1000
    #: Soak horizon in *virtual* hours.
    hours: float = 2.0
    #: Epoch length in virtual seconds; churn lands at epoch starts and
    #: invariants are checked at epoch ends.
    epoch: float = 60.0
    #: Churn shape: one of :data:`TRACE_SHAPES`.
    trace: str = "steady"
    seed: int = 0
    #: Mean joins per epoch (base rate for all shapes).
    join_rate: float = 2.0
    #: Mean crashes per epoch.
    fail_rate: float = 1.0
    #: Mean graceful leaves per epoch.
    leave_rate: float = 0.5
    #: ``flash``: peak joins per epoch at the top of the spike.
    peak_rate: float = 40.0
    #: ``correlated``: fraction of the swarm crashed in the burst epoch.
    burst_fraction: float = 0.2
    #: Hard cap on total population (joins beyond it are clipped and
    #: counted — never silently dropped).
    max_peers: int = 0

    def __post_init__(self) -> None:
        if self.trace not in TRACE_SHAPES:
            raise ValueError(
                f"unknown trace shape {self.trace!r}; pick from {TRACE_SHAPES}"
            )
        if self.peers < 1 or self.hours <= 0 or self.epoch <= 0:
            raise ValueError("peers, hours and epoch must be positive")
        if not 0.0 <= self.burst_fraction < 1.0:
            raise ValueError("burst_fraction must be in [0, 1)")

    @property
    def epochs(self) -> int:
        return max(1, int(self.hours * 3600.0 / self.epoch))

    @property
    def population_cap(self) -> int:
        """Effective cap: explicit ``max_peers`` or 2x the start size."""
        return self.max_peers if self.max_peers > 0 else 2 * self.peers

    def swarm(self) -> SwarmConfig:
        """The harness geometry: swarm defaults with soak-grade pacing.

        Keep-alives and silence detection are stretched relative to the
        acceptance round — a soak's cost is dominated by idle-interval
        timers (population x connections x horizon / interval), and
        second-scale failure detection is the round's concern, not the
        endurance run's.
        """
        return SwarmConfig(
            peers=self.peers,
            k=64 if self.peers >= 4000 else 32,
            seed=self.seed,
            keepalive_interval=30.0,
            silence_timeout=90.0,
            probe_timeout=8.0,
            deadline=max(900.0, 4 * self.epoch),
            join_batch=256,
        )


@dataclass
class SoakReport:
    """What one soak applied, what it cost, and where it stopped."""

    trace: str
    peers_start: int
    peers_final: int
    seed: int
    epochs_total: int
    epochs_run: int
    joins: int
    fails: int
    leaves: int
    #: Joins dropped by the population cap (0 = schedule fully applied).
    clipped_joins: int
    final_converged: bool
    virtual_elapsed: float
    wall_elapsed: float
    violations: list[str] = field(default_factory=list)
    #: Engine flight-recorder dump captured at the first violation.
    flight_dump: str = ""
    #: The membership history actually applied, replayable via
    #: :mod:`repro.workloads.trace`.
    history: ChurnTrace = field(default_factory=lambda: ChurnTrace(events=[]))

    @property
    def ok(self) -> bool:
        return (
            self.final_converged
            and not self.violations
            and self.epochs_run == self.epochs_total
        )

    def summary(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return (
            f"soak {self.trace} n={self.peers_start}->{self.peers_final} "
            f"seed={self.seed}: {status} "
            f"epochs={self.epochs_run}/{self.epochs_total} "
            f"joins={self.joins} fails={self.fails} leaves={self.leaves} "
            f"virtual={self.virtual_elapsed / 3600.0:.2f}h "
            f"wall={self.wall_elapsed:.1f}s"
        )


def _schedules(
    config: SoakConfig, rng: np.random.Generator
) -> tuple[list[int], list[int], list[int]]:
    """Per-epoch (joins, fails, leaves) counts for the chosen shape."""
    epochs = config.epochs
    if config.trace == "flash":
        joins = flash_crowd_schedule(
            epochs,
            peak_rate=config.peak_rate,
            peak_at=max(1, epochs // 4),
            width=max(1.0, epochs / 12.0),
            rng=rng,
            base_rate=config.join_rate,
        )
    else:
        joins = steady_schedule(epochs, config.join_rate, rng)
    fails = steady_schedule(epochs, config.fail_rate, rng)
    leaves = steady_schedule(epochs, config.leave_rate, rng)
    if config.trace == "correlated":
        # The burst epoch replaces the background hazard outright: the
        # point is one synchronised mass failure, not a noisy epoch.
        fails[epochs // 2] = -1  # sentinel, resolved against live count
    return joins, fails, leaves


class _SoakRun:
    """One soak execution (state shared between the epoch phases)."""

    def __init__(self, config: SoakConfig) -> None:
        self.config = config
        self.harness = SwarmHarness(config.swarm())
        self.rng = np.random.default_rng(config.seed ^ 0x50A4)
        self.events: list[TraceEvent] = []
        self.joins = 0
        self.fails = 0
        self.leaves = 0
        self.clipped = 0
        self.epochs_run = 0
        self.final_converged = False

    # -- churn application --------------------------------------------

    def _pick_alive(self, count: int) -> list[int]:
        live = [index for index, _ in self.harness.alive()]
        count = min(count, max(0, len(live) - 2))
        if count <= 0:
            return []
        chosen = self.rng.choice(len(live), size=count, replace=False)
        return [live[i] for i in sorted(chosen)]

    async def _apply_joins(self, count: int) -> None:
        room = self.config.population_cap - len(
            [1 for i, _ in self.harness.alive()]
        )
        clipped = max(0, count - max(0, room))
        self.clipped += clipped
        count -= clipped
        if count <= 0:
            return
        added = await self.harness.add_peers(
            count, batch=256, timeout=self.harness.config.deadline
        )
        self.joins += len(added)
        for peer in added:
            self.events.append(TraceEvent(
                time=self.harness.clock.time(), kind="join",
                node_id=-1 if peer.node_id is None else peer.node_id,
                degree=self.harness.config.d,
            ))

    def _apply_fails(self, count: int) -> None:
        if count < 0:  # correlated-burst sentinel
            count = int(len(self.harness.alive()) * self.config.burst_fraction)
        for index in self._pick_alive(count):
            node_id = self.harness.peers[index].node_id
            self.harness.kill(index)
            self.fails += 1
            self.events.append(TraceEvent(
                time=self.harness.clock.time(), kind="fail",
                node_id=-1 if node_id is None else node_id,
            ))

    async def _apply_leaves(self, count: int) -> None:
        for index in self._pick_alive(count):
            node_id = self.harness.peers[index].node_id
            await self.harness.leave(index)
            self.leaves += 1
            self.events.append(TraceEvent(
                time=self.harness.clock.time(), kind="leave",
                node_id=-1 if node_id is None else node_id,
            ))

    # -- the run -------------------------------------------------------

    async def run(self) -> SoakReport:
        config = self.config
        harness = self.harness
        t0 = time.perf_counter()
        with _gc_paused():
            await harness.join_all()
            started = await harness.run_until(harness.converged)
            harness.expect(started, "initial broadcast never converged")
            joins, fails, leaves = _schedules(config, self.rng)
            if not harness.violations:
                for epoch in range(config.epochs):
                    await self._apply_joins(joins[epoch])
                    self._apply_fails(fails[epoch])
                    await self._apply_leaves(leaves[epoch])
                    healed = await harness.run_until(
                        harness.repaired, timeout=config.epoch
                    )
                    remaining = (epoch + 1) * config.epoch - (
                        harness.clock.time() - harness._t0
                    )
                    if remaining > 0:
                        await harness.settle(remaining)
                    if not healed:
                        harness.expect(
                            False,
                            f"epoch {epoch}: churn not absorbed within "
                            f"{config.epoch}s (undetected crash or "
                            f"unfinished splice)",
                        )
                        harness._record_flight_dump(harness.violations[-1:])
                    self.epochs_run = epoch + 1
                    # Decode completion is a liveness property (fresh
                    # joiners are legitimately mid-decode) and is only
                    # demanded at the end of the run; every epoch must
                    # show a consistent control plane.
                    if harness.violations or not harness.check_structure(
                        f"epoch {epoch}: "
                    ):
                        break
            if not harness.violations:
                self.final_converged = await harness.run_until(harness.converged)
                await harness.settle()
                if self.final_converged:
                    harness.check_invariants()
                else:
                    harness.expect(
                        False, "survivors never re-converged after the soak"
                    )
        return SoakReport(
            trace=config.trace,
            peers_start=config.peers,
            peers_final=len(harness.alive()),
            seed=config.seed,
            epochs_total=config.epochs,
            epochs_run=self.epochs_run,
            joins=self.joins,
            fails=self.fails,
            leaves=self.leaves,
            clipped_joins=self.clipped,
            final_converged=self.final_converged,
            virtual_elapsed=harness.clock.time() - harness._t0,
            wall_elapsed=time.perf_counter() - t0,
            violations=list(harness.violations),
            flight_dump=harness.flight_dump,
            history=ChurnTrace(events=list(self.events)),
        )


async def run_soak(config: SoakConfig) -> SoakReport:
    """Run one soak to completion (or first violation) and tear down."""
    run = _SoakRun(config)
    try:
        return await run.run()
    finally:
        await run.harness.teardown()
