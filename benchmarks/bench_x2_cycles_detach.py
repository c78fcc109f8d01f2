"""X2 — ablation: acyclic curtain vs §6 cyclic random graph, end to end.

Same population, same content, same codec, two topologies:

* completion time (the delay story of E6, now measured on the real data
  plane rather than hop counts);
* goodput efficiency (cycles can recirculate non-innovative mixtures —
  §6's "small loss of throughput");
* §6's self-sustainability: detach the server once the swarm
  collectively holds every degree of freedom.  The cyclic swarm finishes
  alone; the acyclic curtain starves its top and cannot.
"""

import numpy as np

from repro.coding import GenerationParams
from repro.core import OverlayNetwork, RandomGraphOverlay
from repro.sim import rlnc

from conftest import emit_table, run_once

K, D, N = 12, 3, 120
GENERATION, PAYLOAD = 10, 100
CONTENT = 3_000


def _content(seed):
    rng = np.random.default_rng(seed)
    return bytes(rng.integers(0, 256, size=CONTENT, dtype=np.uint8))


def _efficiency(report):
    received = sum(n.received for n in report.nodes)
    innovative = sum(n.innovative for n in report.nodes)
    return innovative / received if received else 1.0


def experiment():
    content = _content(31)
    params = GenerationParams(GENERATION, PAYLOAD)

    # curtain
    net = OverlayNetwork(k=K, d=D, seed=32)
    net.grow(N)
    curtain = rlnc(net, content, params, seed=33)
    curtain_report = curtain.run_until_complete(max_slots=2000)

    # random graph
    overlay = RandomGraphOverlay(k=K, d=D, seed=32)
    overlay.grow(N)
    cyclic = rlnc(overlay, content, params, seed=33)
    cyclic_report = cyclic.run_until_complete(max_slots=2000)

    rows = [
        ["curtain (acyclic)",
         max(curtain_report.completion_slots()),
         _efficiency(curtain_report),
         curtain_report.completion_fraction],
        ["random graph (cyclic)",
         max(cyclic_report.completion_slots()),
         _efficiency(cyclic_report),
         cyclic_report.completion_fraction],
    ]

    # self-sustainability after detach
    detach_rows = []
    net2 = OverlayNetwork(k=K, d=D, seed=34)
    net2.grow(40)
    sim2 = rlnc(net2, content, params, seed=35)
    while not sim2.swarm_has_full_rank():
        sim2.step()
    sim2.detach_server()
    report2 = sim2.run_until_complete(max_slots=800)
    detach_rows.append(["curtain (acyclic)", sim2.server_detach_slot,
                        report2.completion_fraction])

    overlay3 = RandomGraphOverlay(k=K, d=D, seed=34)
    overlay3.grow(40)
    sim3 = rlnc(overlay3, content, params, seed=35)
    while not sim3.swarm_has_full_rank():
        sim3.step()
    sim3.detach_server()
    report3 = sim3.run_until_complete(max_slots=800)
    detach_rows.append(["random graph (cyclic)", sim3.server_detach_slot,
                        report3.completion_fraction])
    return rows, detach_rows


def test_x2_cycles_detach(benchmark):
    rows, detach_rows = run_once(benchmark, experiment)
    emit_table(
        "x2_cycles",
        ["topology", "last completion slot", "innovation efficiency",
         "completion"],
        rows,
        title=f"X2a — data-plane delay/throughput (k={K}, d={D}, N={N})",
    )
    emit_table(
        "x2_detach",
        ["topology", "server detached at slot", "completion after detach"],
        detach_rows,
        title="X2b — §6 self-sustainability: server detaches at collective full rank",
    )
    curtain, cyclic = rows
    # cyclic topology completes (much) faster at this depth
    assert cyclic[1] < curtain[1]
    # both fully complete with the server attached
    assert curtain[3] == 1.0 and cyclic[3] == 1.0
    # detach: the cyclic swarm self-sustains, the acyclic one cannot
    assert detach_rows[1][2] == 1.0
    assert detach_rows[0][2] < 1.0
