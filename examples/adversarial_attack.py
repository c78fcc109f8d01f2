#!/usr/bin/env python
"""Adversarial failures (§5) and data-plane attacks (§7), demonstrated.

Part 1 — the membership attack and its defence:
    a coordinated cohort (adversaries who joined back-to-back) fails
    simultaneously.  Under §3 append ordering they disconnect a large
    slice of the audience; under §5 random row insertion the same attack
    looks like background noise.

Part 2 — data-plane attacks at the same penetration:
    entropy destruction (trivial combinations: valid-looking, silently
    useless) vs jamming (garbage packets that contaminate almost every
    decode after mixing).

Run:  python examples/adversarial_attack.py
"""

import numpy as np

from repro.coding import GenerationParams
from repro.core import OverlayNetwork
from repro.failures import CohortBatchFailures, apply_failures
from repro.sim import NodeRole, rlnc

K, D, N = 16, 2, 300
ATTACK_FRACTION = 0.15


def membership_attack(insert_mode: str, seed: int) -> None:
    net = OverlayNetwork(k=K, d=D, seed=seed, insert_mode=insert_mode)
    net.grow(N)
    apply_failures(net, CohortBatchFailures(ATTACK_FRACTION),
                   np.random.default_rng(seed + 1))
    survivors = net.working_nodes
    connectivity = net.connectivities(survivors)
    disconnected = sum(1 for node in survivors if connectivity[node] == 0)
    mean_loss = np.mean([D - connectivity[node] for node in survivors]) / D
    print(f"  insert_mode={insert_mode:8s}  "
          f"fully disconnected: {disconnected / len(survivors):6.1%}   "
          f"mean bandwidth loss: {mean_loss:6.1%}")


def data_plane_attack(role: NodeRole, seed: int) -> None:
    net = OverlayNetwork(k=K, d=3, seed=seed)
    net.grow(40)
    rng = np.random.default_rng(seed + 1)
    attackers = rng.choice(net.matrix.node_ids, size=6, replace=False)
    roles = {int(a): role for a in attackers}
    content = rng.integers(0, 256, size=8_000, dtype=np.uint8).tobytes()
    sim = rlnc(
        net, content, GenerationParams(generation_size=10, payload_size=200),
        seed=seed + 2, roles=roles,
    )
    report = sim.run_until_complete(max_slots=400)
    received = sum(n.received for n in report.nodes)
    innovative = sum(n.innovative for n in report.nodes)
    print(f"  {role.value:8s}  completion {report.completion_fraction:6.1%}   "
          f"innovation efficiency {innovative / received:6.1%}   "
          f"poisoned decodes {report.poisoned_fraction:6.1%}")


def main() -> None:
    print(f"Part 1 — coordinated cohort failure "
          f"({ATTACK_FRACTION:.0%} of {N} peers fail at once):")
    membership_attack("append", seed=42)
    membership_attack("uniform", seed=42)
    print("  -> §5's random row insertion turns the attack into noise.\n")

    print("Part 2 — data-plane attacks (6 of 40 peers malicious):")
    data_plane_attack(NodeRole.ENTROPY_ATTACKER, seed=77)
    data_plane_attack(NodeRole.JAMMER, seed=77)
    print("  -> entropy attacks starve innovation but never corrupt;")
    print("     jamming corrupts decodes silently — the open problem of §7")
    print("     (homomorphic signatures) is what it would take to stop it.")


if __name__ == "__main__":
    main()
