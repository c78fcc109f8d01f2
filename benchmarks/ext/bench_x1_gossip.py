"""X1 — ablation: decentralised gossip joins vs server-selected joins.

§7: "the role of the server can be decreased still further or even
eliminated"; §3: "the specifics of the protocol are less important than
the topological structure".  Three join protocols over the same
population:

* server — §3's uniform thread selection (the baseline);
* gossip-greedy — downstream-biased walk, clip the first d threads
  found.  Locality builds deep narrow braids: full connectivity at rest
  but catastrophic loss under a batch failure.  The *uniformity* of
  selection is load-bearing;
* gossip-mixed — same walk, but oversample 3·d threads and clip a random
  subset.  De-biasing restores the server's robustness with no server.

This is exactly the paper's point read back: the protocol specifics do
not matter *as long as the resulting topology stays uniformly random*.
"""

import numpy as np

from repro.analysis import delay_profile
from repro.core import OverlayNetwork
from repro.failures import RandomBatchFailures, apply_failures

from conftest import emit_table, run_once

from .gossip import GossipJoinProtocol, selection_bias

K, D, N = 16, 3, 400
FAIL_FRACTION = 0.1


def _measure(mode: str, seed: int):
    net = OverlayNetwork(k=K, d=D, seed=seed)
    net.grow(10)  # bootstrap population
    history = None
    if mode == "server":
        net.grow(N - 10)
    else:
        if mode == "gossip-greedy":
            gossip = GossipJoinProtocol(net, walk_length=6)
        else:  # gossip-mixed
            gossip = GossipJoinProtocol(net, walk_length=6, oversample=3.0,
                                        choose="random")
        gossip.grow(N - 10)
        history = gossip.history
    full = sum(1 for c in net.connectivities().values() if c == D)
    depth = delay_profile(net.graph()).mean_depth
    bias = selection_bias(history, K) if history else 0.0
    apply_failures(net, RandomBatchFailures(FAIL_FRACTION),
                   np.random.default_rng(seed + 1))
    survivors = net.working_nodes
    connectivities = net.connectivities(survivors)
    loss = float(np.mean([(D - connectivities[n]) / D for n in survivors]))
    return full / N, depth, bias, loss


def experiment():
    rows = []
    for mode in ("server", "gossip-greedy", "gossip-mixed"):
        fulls, depths, biases, losses = zip(
            *(_measure(mode, 2000 + r) for r in range(3))
        )
        rows.append([
            mode,
            float(np.mean(fulls)),
            float(np.mean(depths)),
            float(np.mean(biases)),
            float(np.mean(losses)),
        ])
    return rows


def test_x1_gossip(benchmark):
    rows = run_once(benchmark, experiment)
    emit_table(
        "x1_gossip",
        ["join protocol", "full-connectivity fraction", "mean depth",
         "selection bias (TV)", f"loss/thread @ {FAIL_FRACTION:.0%} batch"],
        rows,
        title=f"X1 — gossip vs server joins (k={K}, d={D}, N={N})",
    )
    by_mode = {row[0]: row for row in rows}
    # every protocol gives everyone full connectivity at rest
    for row in rows:
        assert row[1] == 1.0
    # greedy gossip forfeits the robustness theorem...
    assert by_mode["gossip-greedy"][4] > 3.0 * by_mode["server"][4]
    # ...de-biased gossip restores it
    assert abs(by_mode["gossip-mixed"][4] - by_mode["server"][4]) < 0.05
