#!/usr/bin/env python
"""Self-sustaining swarms (§6): when can the server walk away?

§6 suggests that "in the file download scenario it may be possible
eventually for the server to disconnect itself completely from the
network after the content has been delivered to a small fraction of the
population."  This demo makes the condition precise and shows the
topology dependence:

* the *collective* condition — the swarm's union of coefficient spaces
  spans every generation — is necessary and cheap to check;
* on the acyclic curtain it is NOT sufficient: information only flows
  down the threads, so once the rod goes silent the top rows freeze at
  whatever rank they had;
* on the §6 cyclic random-graph overlay it IS sufficient: mixtures
  circulate and the swarm finishes the distribution among itself.

Run:  python examples/self_sustaining_swarm.py
"""

import numpy as np

from repro.coding import GenerationParams
from repro.core import OverlayNetwork, RandomGraphOverlay
from repro.sim import rlnc

K, D, PEERS = 12, 3, 40
CONTENT_BYTES = 6_000
PARAMS = GenerationParams(generation_size=12, payload_size=125)


def content_bytes(seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=CONTENT_BYTES, dtype=np.uint8).tobytes()


def curtain_run(seed: int) -> None:
    net = OverlayNetwork(k=K, d=D, seed=seed)
    net.grow(PEERS)
    sim = rlnc(net, content_bytes(seed), PARAMS, seed=seed + 1)
    while not sim.swarm_has_full_rank():
        sim.step()
    print(f"[curtain]      swarm holds all DoF at slot {sim.slot} "
          f"({sim.server_packets} server packets) — server detaches")
    sim.detach_server()
    report = sim.run_until_complete(max_slots=800)
    print(f"[curtain]      completion after detach: "
          f"{report.completion_fraction:.0%}  <- the top rows starved")


def random_graph_run(seed: int) -> None:
    overlay = RandomGraphOverlay(k=K, d=D, seed=seed)
    overlay.grow(PEERS)
    sim = rlnc(overlay, content_bytes(seed), PARAMS, seed=seed + 1)
    while not sim.swarm_has_full_rank():
        sim.step()
    print(f"[random graph] swarm holds all DoF at slot {sim.slot} "
          f"({sim.server_packets} server packets) — server detaches")
    sim.detach_server()
    report = sim.run_until_complete(max_slots=800)
    ok = all(n.decoded_ok for n in report.nodes)
    print(f"[random graph] completion after detach: "
          f"{report.completion_fraction:.0%}, bit-exact: {ok}")
    total_dof = sim.behavior.generation_count * PARAMS.generation_size
    print(f"[random graph] the server sent {sim.server_packets} packets for "
          f"{PEERS} peers x {total_dof} DoF each — "
          f"{sim.server_packets / (PEERS * total_dof):.1%} of a unicast load")


def main() -> None:
    print(f"{CONTENT_BYTES} bytes to {PEERS} peers (k={K}, d={D});\n"
          "the server leaves the moment the swarm *collectively* holds "
          "every degree of freedom.\n")
    curtain_run(seed=2005)
    print()
    random_graph_run(seed=2005)
    print("\ncycles are what let a swarm redistribute internally — the §6\n"
          "topology trade-off (log delay, self-sustainability) in action.")


if __name__ == "__main__":
    main()
