"""E11 — §7 attacks on the data plane.

Three attacker behaviours at increasing penetration, all on the same
overlay geometry and content:

* failure attack — attackers just go dark (roles: failed nodes);
* entropy destruction — attackers replay trivial combinations; valid
  packets, silently destroyed innovation.  Measured by the swarm's
  innovation efficiency and completion within a fixed budget;
* jamming — attackers inject garbage claiming to be combinations; after
  mixing it contaminates almost every downstream decode.

The paper's ordering: failure < entropy (harder to detect) < jamming
(catastrophic without homomorphic signatures).
"""

import numpy as np

from repro.coding import GenerationParams
from repro.core import OverlayNetwork
from repro.sim import NodeRole, rlnc

from conftest import emit_table, run_once

K, D, N = 14, 3, 45
GENERATION = 10
PAYLOAD = 64
BUDGET = 250
FRACTIONS = (0.0, 0.1, 0.2)


def _run(fraction: float, kind: str, seed: int):
    net = OverlayNetwork(k=K, d=D, seed=seed)
    net.grow(N)
    rng = np.random.default_rng(seed + 1)
    roles = {}
    count = int(round(fraction * N))
    attackers = [int(i) for i in rng.choice(net.matrix.node_ids, size=count,
                                            replace=False)]
    if kind == "failure":
        for node in attackers:
            net.fail(node)
    elif kind == "entropy":
        roles = {node: NodeRole.ENTROPY_ATTACKER for node in attackers}
    elif kind == "jam":
        roles = {node: NodeRole.JAMMER for node in attackers}
    content = bytes(rng.integers(0, 256, size=GENERATION * PAYLOAD,
                                 dtype=np.uint8))
    sim = rlnc(
        net, content, GenerationParams(GENERATION, PAYLOAD),
        seed=seed + 2, roles=roles,
    )
    report = sim.run_until_complete(max_slots=BUDGET)
    received = sum(n.received for n in report.nodes)
    innovative = sum(n.innovative for n in report.nodes)
    efficiency = innovative / received if received else 1.0
    return report.completion_fraction, efficiency, report.poisoned_fraction


def experiment():
    rows = []
    outcomes = {}
    for kind in ("failure", "entropy", "jam"):
        for fraction in FRACTIONS:
            if fraction == 0.0 and kind != "failure":
                continue  # the clean point is shared
            completion, efficiency, poisoned = _run(
                fraction, kind, 1100 + int(fraction * 100)
            )
            outcomes[(kind, fraction)] = (completion, efficiency, poisoned)
            rows.append([kind, fraction, completion, efficiency, poisoned])
    return rows, outcomes


def test_e11_attacks(benchmark):
    rows, outcomes = run_once(benchmark, experiment)
    emit_table(
        "e11_attacks",
        ["attack", "attacker fraction", "completion", "innovation efficiency",
         "poisoned fraction"],
        rows,
        title=f"E11 — §7 attacks (k={K}, d={D}, N={N}, {BUDGET}-slot budget)",
    )
    clean = outcomes[("failure", 0.0)]
    assert clean[0] == 1.0 and clean[2] == 0.0
    # entropy attacks destroy innovation efficiency relative to clean
    assert outcomes[("entropy", 0.2)][1] < clean[1]
    # jamming contaminates most completed decodes at 20% penetration
    assert outcomes[("jam", 0.2)][2] > 0.5
    # failure attacks never poison anything — they only slow things down
    for fraction in FRACTIONS:
        assert outcomes[("failure", fraction)][2] == 0.0
