"""Snapshot goldens: every node's registry, byte for byte.

Two seed-0 runs on the virtual network — the ``baseline`` chaos
scenario and one ``smallgen`` rep of the end-to-end benchmark's
geometry — each snapshotted over every node's registry as the run
ends (before teardown), plus one seeded slotted-simulator run with
``attach_obs``.  The node snapshots are pinned as the exact JSON text
the exporters would write; the simulator's only as names and kinds,
because ``sim.slot_seconds`` is wall-clock.  The GF backend's info
gauge is named after the host's backend, so it is pinned as
``gf.backend.<backend>``.

Regenerate (only when a snapshot change is intended)::

    PYTHONPATH=src:benchmarks python tests/test_obs_goldens.py --capture
"""

from __future__ import annotations

import asyncio
import json
import sys
from dataclasses import replace
from pathlib import Path

from repro.gf.kernels import BACKEND
from repro.obs import Registry, snapshot_obj

GOLDEN = Path(__file__).parent / "goldens" / "obs_snapshots.json"


def _portable(snapshot: dict) -> dict:
    """``snapshot`` with the backend's info gauge renamed in place."""
    for sections in snapshot["registries"].values():
        sections["gauges"] = {
            ("gf.backend.<backend>" if name == f"gf.backend.{BACKEND}"
             else name): value
            for name, value in sections["gauges"].items()
        }
    return snapshot


async def _snapshot_at_end(harness, run) -> dict:
    try:
        await run(harness)
        nodes = [harness.server, *harness.peers]
        return _portable(snapshot_obj(
            {node.registry.name: node.registry for node in nodes}))
    finally:
        await harness.teardown()


def _baseline() -> dict:
    from repro.net.testing import ChaosHarness, get_scenario

    spec = get_scenario("baseline")
    return asyncio.run(_snapshot_at_end(
        ChaosHarness(replace(spec.config, seed=0)), spec.run))


def _smallgen() -> dict:
    from ext.calls_per_packet import chaos_config
    from repro.net.testing import ChaosHarness

    async def run(harness):
        await harness.start()
        assert await harness.run_until(harness.converged)

    return asyncio.run(_snapshot_at_end(
        ChaosHarness(chaos_config("smallgen", 0), record_trace=False), run))


def _sim_names() -> dict:
    """The slotted simulator's instruments: names by kind."""
    from repro.coding import GenerationParams
    from repro.core import OverlayNetwork
    from repro.sim import rlnc

    net = OverlayNetwork(k=4, d=2, seed=0)
    net.grow(8)
    sim = rlnc(net, bytes(range(256)) * 2, GenerationParams(8, 64), seed=0)
    registry = Registry("sim")
    sim.attach_obs(registry)
    sim.run_until_complete(max_slots=200)
    return {kind: sorted(values)
            for kind, values in registry.snapshot().items()}


def _capture() -> str:
    goldens = {
        "baseline@0": _baseline(),
        "smallgen@0": _smallgen(),
        "sim": _sim_names(),
    }
    return json.dumps(goldens, indent=1) + "\n"


def _pinned() -> dict:
    return json.loads(GOLDEN.read_text())


def _text(obj) -> str:
    return json.dumps(obj, indent=1)


def test_baseline_snapshot_unchanged():
    assert _text(_baseline()) == _text(_pinned()["baseline@0"])


def test_smallgen_snapshot_unchanged():
    assert _text(_smallgen()) == _text(_pinned()["smallgen@0"])


def test_sim_instrument_names_unchanged():
    assert _sim_names() == _pinned()["sim"]


if __name__ == "__main__":
    if sys.argv[1:] == ["--capture"]:
        GOLDEN.write_text(_capture())
    else:
        sys.stdout.write(_capture())
