"""Cross-simulator equivalence goldens for the unified runtime migration.

The five slotted data-plane loops (curtain RLNC, random-graph RLNC,
store-and-forward flooding, rarest-first, streaming playback) were
captured on fixed seeds *before* they were migrated onto
:mod:`repro.sim.runtime`.  These tests re-run the same scenarios through
:func:`repro.sim.rlnc` and :func:`repro.sim.uncoded` and assert the
reports are field-identical, so the refactor is provably
behaviour-neutral on the paths the paper's claims depend on.

Regenerate (only when a behaviour change is intended)::

    PYTHONPATH=src python tests/test_runtime_goldens.py --capture
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).parent / "goldens"


def _content(size: int, seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def _node_rows(report) -> list[dict]:
    return [
        {
            "node_id": n.node_id,
            "rank": n.rank,
            "needed": n.needed,
            "completed_at": n.completed_at,
            "received": n.received,
            "innovative": n.innovative,
            "decoded_ok": n.decoded_ok,
        }
        for n in report.nodes
    ]


def _broadcast_dump(report) -> dict:
    return {
        "slots": report.slots,
        "server_packets": report.server_packets,
        "attempted": report.link_stats.attempted,
        "delivered": report.link_stats.delivered,
        "completion_fraction": report.completion_fraction,
        "nodes": _node_rows(report),
    }


def _flooding_dump(report) -> dict:
    return {
        "slots": report.slots,
        "completion_fraction": report.completion_fraction,
        "mean_unique_fraction": report.mean_unique_fraction,
        "duplicate_fraction": report.duplicate_fraction,
        "completion_slots": sorted(report.completion_slots()),
    }


# ----------------------------------------------------------------------
# Scenarios — geometry/seeds are frozen; do not edit without recapturing.


def scenario_curtain() -> dict:
    """Curtain RLNC with loss, outages, and both §7 attacker roles."""
    from repro.coding.generation import GenerationParams
    from repro.core import OverlayNetwork
    from repro.sim import LossModel, NodeRole, OutageModel, rlnc

    net = OverlayNetwork(k=8, d=2, seed=101)
    nodes = net.grow(24)
    sim = rlnc(
        net,
        _content(4096, 202),
        GenerationParams(generation_size=16, payload_size=64),
        seed=303,
        loss=LossModel(0.1),
        outage=OutageModel(onset=0.01, recovery=0.3),
        roles={nodes[5]: NodeRole.ENTROPY_ATTACKER, nodes[11]: NodeRole.JAMMER},
    )
    report = sim.run_until_complete(max_slots=400)
    return _broadcast_dump(report)


def scenario_curtain_detach() -> dict:
    """Curtain RLNC exercising server detach + swarm-rank probing."""
    from repro.coding.generation import GenerationParams
    from repro.core import OverlayNetwork
    from repro.sim import rlnc

    net = OverlayNetwork(k=6, d=2, seed=11)
    net.grow(12)
    sim = rlnc(
        net,
        _content(2048, 12),
        GenerationParams(generation_size=8, payload_size=64),
        seed=13,
    )
    while not sim.swarm_has_full_rank() and sim.slot < 200:
        sim.step()
    detach_slot = sim.slot
    sim.detach_server()
    report = sim.run_until_complete(max_slots=400)
    dump = _broadcast_dump(report)
    dump["detach_slot"] = detach_slot
    return dump


def scenario_graph() -> dict:
    """Random-graph (§6, cyclic) RLNC broadcast under loss."""
    from repro.coding.generation import GenerationParams
    from repro.core.random_graph import RandomGraphOverlay
    from repro.sim import LossModel, rlnc

    overlay = RandomGraphOverlay(k=8, d=2, seed=77)
    overlay.grow(20)
    sim = rlnc(
        overlay,
        _content(4096, 78),
        GenerationParams(generation_size=16, payload_size=64),
        seed=79,
        loss=LossModel(0.05),
    )
    report = sim.run_until_complete(max_slots=400)
    return _broadcast_dump(report)


def scenario_store_forward() -> dict:
    """Uncoded random flooding with loss and one failed node."""
    from repro.core import OverlayNetwork
    from repro.sim import LossModel, uncoded

    net = OverlayNetwork(k=6, d=2, seed=55)
    nodes = net.grow(16)
    net.fail(nodes[7])
    sim = uncoded(net, 12, seed=56, loss=LossModel(0.05))
    report = sim.run_until_complete(max_slots=600)
    return _flooding_dump(report)


def scenario_rarest_first() -> dict:
    """Rarest-first flooding on the same geometry as store-forward."""
    from repro.core import OverlayNetwork
    from repro.sim import LossModel, RarestFirstBehavior, uncoded

    net = OverlayNetwork(k=6, d=2, seed=55)
    nodes = net.grow(16)
    net.fail(nodes[7])
    sim = uncoded(net, 12, seed=56, loss=LossModel(0.05),
                  behavior=RarestFirstBehavior)
    report = sim.run_until_complete(max_slots=600)
    return _flooding_dump(report)


def scenario_session_churn() -> dict:
    """run_session with failures/repairs/joins/leaves and attackers."""
    from repro.sim import NodeRole, RngStreams, SessionConfig, run_session
    from repro.sim import session

    def rlnc_with_attackers(net, *args, **kwargs):
        # Two of the 20 initial nodes replay trivial combinations, drawn
        # by shuffling them with the session's "roles" stream.
        nodes = sorted(net.matrix.node_ids)
        RngStreams(909).get("roles").shuffle(nodes)
        roles = dict.fromkeys(nodes[:2], NodeRole.ENTROPY_ATTACKER)
        return plain_rlnc(net, *args, roles=roles, **kwargs)

    plain_rlnc = session.rlnc
    session.rlnc = rlnc_with_attackers
    try:
        result = run_session(
            SessionConfig(
                k=8,
                d=2,
                population=20,
                content_size=2048,
                generation_size=8,
                payload_size=64,
                loss_rate=0.05,
                fail_probability=0.05,
                repair_interval=20,
                join_rate=1,
                leave_probability=0.02,
                max_slots=400,
                seed=909,
            )
        )
    finally:
        session.rlnc = plain_rlnc
    dump = _broadcast_dump(result.report)
    dump["failures_injected"] = result.failures_injected
    dump["repairs_performed"] = result.repairs_performed
    dump["joins"] = result.joins
    dump["graceful_leaves"] = result.graceful_leaves
    dump["joined_at"] = {str(k): v for k, v in sorted(result.joined_at.items())}
    return dump


def scenario_streaming() -> dict:
    """Playback monitor continuity over a lossy curtain broadcast."""
    from repro.coding.generation import GenerationParams
    from repro.core import OverlayNetwork
    from repro.sim import LossModel, PlaybackMonitor, rlnc

    net = OverlayNetwork(k=6, d=2, seed=21)
    net.grow(12)
    sim = rlnc(
        net,
        _content(4096, 22),
        GenerationParams(generation_size=8, payload_size=64),
        seed=23,
        loss=LossModel(0.1),
    )
    monitor = PlaybackMonitor(sim, window=12, startup_delay=8)
    monitor.run(160)
    return {
        "slots": sim.slot,
        "continuity": {
            str(k): v for k, v in sorted(monitor.continuity_summary().items())
        },
    }


SCENARIOS = {
    "curtain": scenario_curtain,
    "curtain_detach": scenario_curtain_detach,
    "graph": scenario_graph,
    "store_forward": scenario_store_forward,
    "rarest_first": scenario_rarest_first,
    "session_churn": scenario_session_churn,
    "streaming": scenario_streaming,
}


def capture() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, build in SCENARIOS.items():
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(build(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


class TestGoldenEquivalence:
    """Each simulator must reproduce its pre-refactor seeded run exactly."""

    def _check(self, name: str) -> None:
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        current = json.loads(json.dumps(SCENARIOS[name]()))
        assert current == golden

    def test_curtain(self):
        self._check("curtain")

    def test_curtain_detach(self):
        self._check("curtain_detach")

    def test_graph(self):
        self._check("graph")

    def test_store_forward(self):
        self._check("store_forward")

    def test_rarest_first(self):
        self._check("rarest_first")

    def test_session_churn(self):
        self._check("session_churn")

    def test_streaming(self):
        self._check("streaming")


if __name__ == "__main__":
    import sys

    if "--capture" in sys.argv:
        capture()
    else:
        print(__doc__)
