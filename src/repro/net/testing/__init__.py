"""Deterministic in-memory testing rig for the live transport.

Three layers:

* :mod:`~repro.net.testing.virtualnet` — a :class:`VirtualNetwork` of
  in-memory pipes with scripted per-link faults, driven by a
  :class:`VirtualClock`; the server/peer nodes run on it unmodified via
  :class:`VirtualTransport`.
* :mod:`~repro.net.testing.scenarios` — a :class:`ChaosHarness` and a
  registry of named chaos scenarios asserting the §3-§6 protocol
  invariants end to end.
* :mod:`~repro.net.testing.swarm` — the same machinery sized for
  1k-10k peer rounds (quantum clock, batched joins, no trace) and the
  soak runner built on top of them.
"""

from .scenarios import (
    SCENARIOS,
    ChaosConfig,
    ChaosHarness,
    Scenario,
    ScenarioResult,
    get_scenario,
    run_scenario,
    run_scenario_sync,
    trace_digest,
)
from .soak import TRACE_SHAPES, SoakConfig, SoakReport, run_soak
from .swarm import SwarmConfig, SwarmHarness, SwarmReport, run_swarm_round
from .virtualnet import LinkFaults, VirtualClock, VirtualNetwork, VirtualTransport

__all__ = [
    "ChaosConfig",
    "ChaosHarness",
    "LinkFaults",
    "SCENARIOS",
    "Scenario",
    "ScenarioResult",
    "SoakConfig",
    "SoakReport",
    "SwarmConfig",
    "SwarmHarness",
    "SwarmReport",
    "VirtualClock",
    "VirtualNetwork",
    "VirtualTransport",
    "TRACE_SHAPES",
    "get_scenario",
    "run_soak",
    "run_scenario",
    "run_scenario_sync",
    "run_swarm_round",
    "trace_digest",
]
