"""X7 — the protocols as deployed: repair latency and server load.

The live driver (``ServerNode``/``PeerNode``: keep-alives, complaints,
probes) on the virtual network measures what the matrix-level control
plane cannot:

* repair latency distribution — silent failure to the server's splice,
  which the paper's model abstracts as "the repair interval" and bounds
  every theorem by.  Here it is silence_timeout + probe_timeout, read
  off the virtual clock, independent of N;
* the server's control-plane load — events handled per peer per second,
  flat in N (the "very small data load on the server" claim).
"""

import asyncio

import numpy as np

from repro.net.testing import ChaosConfig, ChaosHarness

from conftest import emit_table, run_once

POPULATIONS = (30, 60, 120)
CRASHES = 6
OBSERVE = 20.0  # seconds of virtual steady-state


async def _run(population: int, seed: int):
    # "innovative" is what swarms run.  "eager" converges here too, each
    # child being sent only what it lacks (120 peers, seed 3: 2 786
    # frames against innovative's 2 784).
    h = ChaosHarness(ChaosConfig(
        peers=population, k=16, d=3, seed=seed, generations=1,
        keepalive_interval=0.2, silence_timeout=0.5, probe_timeout=0.3,
        forward_policy="innovative", seed_burst=8,
    ), record_trace=False)
    try:
        await h.start()
        await h.settle(3.0)
        assert h.check_structure(), h.violations
        # steady-state observation window for load measurement
        control_before = _control_events(h)
        await h.settle(OBSERVE)
        load_per_peer = (
            (_control_events(h) - control_before) / (OBSERVE * population)
        )
        # silently fail a handful of feeding peers, one at a time
        rng = np.random.default_rng(seed + 1)
        latencies = []
        for _ in range(CRASHES):
            feeders = sorted({parent for parent, _, _ in h.data_edges()})
            victim = feeders[int(rng.integers(0, len(feeders)))]
            before = h.server.engine.obs.repairs.value
            t0 = h.clock.time()
            h.isolate(victim)
            if await h.run_until(
                lambda: h.server.engine.obs.repairs.value > before, timeout=5.0
            ):
                latencies.append(h.clock.time() - t0)
            await h.settle(1.0)
        assert h.check_structure(), h.violations
        return latencies, load_per_peer
    finally:
        await h.teardown()


def _control_events(h: ChaosHarness) -> int:
    return h.server.registry.snapshot()["counters"]["engine.events"]


def experiment():
    rows = []
    loads = {}
    for population in POPULATIONS:
        latencies, load = asyncio.run(_run(population, 8000 + population))
        loads[population] = load
        rows.append([
            population,
            float(np.mean(latencies)),
            float(np.max(latencies)),
            len(latencies),
            load,
        ])
    return rows, loads


def test_x7_protocol(benchmark):
    rows, loads = run_once(benchmark, experiment)
    emit_table(
        "x7_protocol",
        ["N", "mean repair latency (s)", "max repair latency (s)",
         "repairs observed", "control msgs / peer / s (steady)"],
        rows,
        title=(
            "X7 — deployed protocol: repair latency and server control load"
            " (silence 0.5s, probe 0.3s, virtual net)"
        ),
    )
    latencies = [row[1] for row in rows]
    # repair latency is set by timers, not by N: flat across populations
    assert max(latencies) - min(latencies) < 0.5
    for latency in latencies:
        assert latency < 2.0
    # steady-state control load per peer is tiny and flat in N
    values = list(loads.values())
    assert all(v < 1.0 for v in values)
