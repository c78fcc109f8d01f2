"""X6 — §7's streaming advice, measured as playback quality.

"If one wants a more consistent bandwidth (e.g., for Internet radio or
video on demand), then a larger d would be a better choice."  At a fixed
total server bandwidth and fixed per-node bandwidth, we sweep how finely
that bandwidth is split into threads (d) and play the stream against
per-generation deadlines under iid failures with periodic repair.  E9
showed loss *variance* falls as 1/d; here that becomes fewer playback
stalls — the user-facing form of the claim.
"""

import numpy as np

from repro.coding import GenerationParams
from repro.core import OverlayNetwork
from repro.sim import PlaybackMonitor, rlnc

from conftest import emit_table, run_once

D_SWEEP = (2, 4, 8)
POPULATION = 40
REPEATS = 3
FAIL_P = 0.02
REPAIR_INTERVAL = 10
SLOTS = 260


def _continuities(d: int, seed: int) -> list[float]:
    # Fixed physical bandwidths: server = 48 units, node = 8 units of
    # which d threads are used; generation geometry scales with d so the
    # content *rate* (bytes per slot of playback) is constant.
    net = OverlayNetwork(k=16 * d // 2, d=d, seed=seed)
    net.grow(POPULATION)
    rng = np.random.default_rng(seed + 1)
    content = bytes(rng.integers(0, 256, size=16_000, dtype=np.uint8))
    sim = rlnc(
        net, content,
        GenerationParams(generation_size=2 * d, payload_size=16_000 // (10 * 2 * d)),
        seed=seed + 2,
    )
    # Every d receives 2d packets/generation at d packets/slot: 2 slots of
    # air-time per generation at full rate.  The same 6-slot window (3x
    # slack) applies to every d — deadlines are equally tight everywhere.
    monitor = PlaybackMonitor(sim=sim, window=6, startup_delay=12)
    dynamics = np.random.default_rng(seed + 3)
    for slot in range(SLOTS):
        if REPAIR_INTERVAL and slot and slot % REPAIR_INTERVAL == 0:
            net.repair_all()
            for node in list(net.working_nodes):
                if dynamics.random() < FAIL_P:
                    net.fail(node)
        monitor.step()
    net.repair_all()
    return list(monitor.continuity_summary().values())


def experiment():
    rows = []
    stats = {}
    for d in D_SWEEP:
        values = []
        for repeat in range(REPEATS):
            values.extend(_continuities(d, 7000 + 13 * d + repeat))
        mean = float(np.mean(values))
        stall_rate = 1.0 - mean
        perfect = float(np.mean([v == 1.0 for v in values]))
        stats[d] = (mean, stall_rate, perfect)
        rows.append([d, mean, stall_rate, perfect])
    return rows, stats


def test_x6_streaming(benchmark):
    rows, stats = run_once(benchmark, experiment)
    emit_table(
        "x6_streaming",
        ["d", "mean continuity", "stall rate", "stall-free viewers"],
        rows,
        title=(
            f"X6 — playback continuity vs d (N={POPULATION}, p={FAIL_P} per "
            f"{REPAIR_INTERVAL}-slot repair interval)"
        ),
    )
    # larger d must not stall more; the largest d should beat the smallest
    assert stats[D_SWEEP[-1]][1] <= stats[D_SWEEP[0]][1] + 0.02
    assert stats[D_SWEEP[-1]][2] >= stats[D_SWEEP[0]][2] - 0.02