#!/usr/bin/env python
"""Quickstart: build an overlay, break it, watch network coding not care.

Walks through the paper's whole pipeline in one minute:

1. build a curtain overlay (server with k threads, nodes clipping d each);
2. inspect its topology and connectivity;
3. fail some nodes and observe the *local* impact (only children suffer);
4. repair and verify full recovery;
5. broadcast an actual file with RLNC and check every peer decodes it
   bit-exactly.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.analysis import delay_profile
from repro.coding import GenerationParams
from repro.core import OverlayNetwork
from repro.sim import rlnc

K = 16          # server bandwidth, in unit threads
D = 3           # per-node bandwidth, in unit threads
PEERS = 50
SEED = 2005     # PODC 2005


def main() -> None:
    # 1. Build the overlay -------------------------------------------------
    net = OverlayNetwork(k=K, d=D, seed=SEED)
    net.grow(PEERS)
    print(f"overlay: k={K} threads, d={D} per node, {net.population} peers")

    profile = delay_profile(net.graph())
    print(f"depth: mean {profile.mean_depth:.1f} hops, max {profile.max_depth}")

    # 2. Everyone has full connectivity d from the server ------------------
    print(f"connectivity histogram: {net.connectivity_histogram()}")

    # 3. Fail three random peers -------------------------------------------
    victims = [net.random_working_node() for _ in range(3)]
    children = set()
    for victim in victims:
        children.update(
            child for child in net.matrix.children_of(victim).values()
            if child is not None
        )
        net.fail(victim)
    print(f"\nfailed {victims}; their direct children: {sorted(children)}")

    harmed = {
        node: connectivity
        for node, connectivity in net.connectivities().items()
        if 0 < connectivity < D
    }
    print(f"peers with reduced connectivity: {harmed}")
    print("note: every harmed peer is a direct child — impact is local (Thm 4)")

    # 4. Repair (splice parents to children) and recover --------------------
    net.repair_all()
    print(f"\nafter repair: {net.connectivity_histogram()}")

    # 5. Broadcast a file with RLNC -----------------------------------------
    rng = np.random.default_rng(SEED)
    content = rng.integers(0, 256, size=24_000, dtype=np.uint8).tobytes()
    params = GenerationParams(generation_size=12, payload_size=250)
    sim = rlnc(net, content, params, seed=SEED)
    report = sim.run_until_complete(max_slots=2_000)

    slots = report.completion_slots()
    print(f"\nbroadcast {len(content)} bytes in {report.slots} slots")
    print(f"completion: {report.completion_fraction:.0%} of peers; "
          f"first done at slot {min(slots)}, last at {max(slots)}")
    ok = all(node.decoded_ok for node in report.nodes)
    print(f"bit-exact decode at every peer: {ok}")
    assert ok


if __name__ == "__main__":
    main()
