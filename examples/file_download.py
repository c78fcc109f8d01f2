#!/usr/bin/env python
"""File distribution: the BitTorrent-style flash crowd of §3.

A 64 KiB "release" goes out to a small seed swarm; a flash crowd of
latecomers arrives during distribution (the Redhat-9 story).  We compare
the RLNC overlay against uncoded store-and-forward flooding on the *same*
overlay to show what coding buys: no coupon-collector tail, and
robustness to the crowd's churn.

Run:  python examples/file_download.py
"""

import numpy as np

from repro.coding import GenerationParams
from repro.core import OverlayNetwork
from repro.sim import rlnc, uncoded
from repro.workloads import flash_crowd_schedule

K, D = 20, 2
SEED_SWARM = 25
CONTENT_BYTES = 65_536
GENERATION = 16
PAYLOAD = 512


def build_overlay(seed: int) -> OverlayNetwork:
    net = OverlayNetwork(k=K, d=D, seed=seed)
    net.grow(SEED_SWARM)
    return net


def run_rlnc(seed: int) -> None:
    rng = np.random.default_rng(seed)
    content = rng.integers(0, 256, size=CONTENT_BYTES, dtype=np.uint8).tobytes()
    net = build_overlay(seed)
    params = GenerationParams(generation_size=GENERATION, payload_size=PAYLOAD)
    sim = rlnc(net, content, params, seed=seed)

    # flash crowd: Gaussian arrival spike centred early in the download
    schedule = flash_crowd_schedule(
        60, peak_rate=3.0, peak_at=15, width=6.0,
        rng=np.random.default_rng(seed + 1),
    )
    for slot, joins in enumerate(schedule):
        for _ in range(joins):
            net.join()
        sim.step()
    report = sim.run_until_complete(max_slots=3_000)

    slots = report.completion_slots()
    print(f"[rlnc]     swarm grew {SEED_SWARM} -> {net.population} peers")
    print(f"[rlnc]     {report.completion_fraction:.0%} complete; "
          f"median slot {sorted(slots)[len(slots) // 2]}, last {max(slots)}")
    ok = all(n.decoded_ok for n in report.nodes if n.completed_at is not None)
    print(f"[rlnc]     all decodes bit-exact: {ok}")
    assert ok


def run_flooding(seed: int) -> None:
    net = build_overlay(seed)
    packet_count = CONTENT_BYTES // PAYLOAD  # same number of pieces
    sim = uncoded(net, packet_count, seed=seed)
    report = sim.run_until_complete(max_slots=3_000)
    print(f"[flooding] {report.completion_fraction:.0%} complete "
          f"after {report.slots} slots; "
          f"{report.duplicate_fraction:.0%} of received pieces were duplicates")


def main() -> None:
    print(f"distributing {CONTENT_BYTES // 1024} KiB "
          f"(k={K}, d={D}, seed swarm {SEED_SWARM})\n")
    run_rlnc(11)
    print()
    run_flooding(11)
    print("\nthe flooding run pays the coupon-collector tax: duplicates "
          "instead of innovation.")


if __name__ == "__main__":
    main()
