"""Server membership ops/s as the population grows.

The paper's hello, good-bye and repair are each a small local edit of
``M`` (§3), so a server's rate of membership operations should hardly
fall as the population grows.  This holds ``n`` peers in a sans-IO
:class:`~repro.protocol.ServerEngine` (k=32, d=2, §5 uniform insertion)
for each population and times crash / leave / join / join cycles against
it — the op mix of the end-to-end ``membership_engine`` workload::

    PYTHONPATH=src python benchmarks/ext/membership_scaling.py

The populations (n = 1k, 10k, 100k) are timed in interleaved rounds, so
a drift in the host's speed lands on all of them alike; it prints each
one's median ops/s over the rounds and its ratio to the previous one's
(each step is 10x the peers).  The run takes well under a minute.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

from repro.core import CoordinationServer
from repro.protocol import (
    ConnectionLost,
    JoinRequest,
    LeaveRequest,
    MessageReceived,
    ServerEngine,
)

POPULATIONS = (1_000, 10_000, 100_000)
CYCLES = 5_000
ROUNDS = 5
K, D, SEED = 32, 2, 0
_JOIN = MessageReceived(JoinRequest(reply_to=0))


class HeldPopulation:
    """A ``ServerEngine`` holding ``population`` peers, and the ids its
    driver holds."""

    def __init__(self, population: int) -> None:
        self.population = population
        self.engine = ServerEngine(CoordinationServer(
            K, D, np.random.default_rng(SEED), insert_mode="uniform"))
        self.live = [self.engine.handle(_JOIN)[0].node_id
                     for _ in range(population)]
        self._draws = np.random.default_rng([SEED, 1])

    def _pick(self, draw: float) -> int:
        live = self.live
        index = int(draw * len(live))
        live[index], live[-1] = live[-1], live[index]
        return live.pop()

    def ops_per_s(self, cycles: int) -> float:
        """Events per second over ``cycles`` crash/leave/join/join
        cycles; the victims are drawn uniformly."""
        engine, live = self.engine, self.live
        draws = self._draws.random(2 * cycles).tolist()
        start = perf_counter()
        for cycle in range(cycles):
            engine.handle(ConnectionLost(self._pick(draws[2 * cycle])))
            leaver = self._pick(draws[2 * cycle + 1])
            engine.handle(MessageReceived(LeaveRequest(leaver), sender=leaver))
            live.append(engine.handle(_JOIN)[0].node_id)
            live.append(engine.handle(_JOIN)[0].node_id)
        elapsed = perf_counter() - start
        if len(engine.core.registry) != self.population:
            raise AssertionError("the population drifted")
        return 4 * cycles / elapsed


def main(populations=POPULATIONS, cycles: int = CYCLES,
         rounds: int = ROUNDS) -> None:
    """Print each population's median ops/s over ``rounds`` interleaved
    rounds of ``cycles`` cycles, and its ratio to the previous
    population's."""
    held = [HeldPopulation(n) for n in populations]
    rates = [[] for _ in held]
    for _ in range(rounds):
        for population, measured in zip(held, rates):
            measured.append(population.ops_per_s(cycles))
    medians = [median(measured) for measured in rates]
    print(f"{'n':>9}  {'ops/s':>9}  {'ratio':>5}")
    for n, rate, previous in zip(populations, medians, medians[:1] + medians):
        print(f"{n:>9,}  {rate:>9,.0f}  {rate / previous:>5.2f}")


if __name__ == "__main__":
    main()
