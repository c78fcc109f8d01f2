"""repro — peer-to-peer broadcast overlays with network coding.

A from-scratch Python implementation of *Building Scalable and Robust
Peer-to-Peer Overlay Networks for Broadcasting using Network Coding*
(Jain, Lovász, Chou — PODC 2005): the curtain-rod overlay construction
(hello / good-bye / repair protocols over the thread matrix ``M``), a
practical RLNC data plane (Chou–Wu–Jain), a packet-level simulator,
adversarial failure models, every baseline the paper argues against, and
the analytic machinery of its theorems.

Quick start::

    from repro import OverlayNetwork
    net = OverlayNetwork(k=32, d=4, seed=7)
    net.grow(1000)
    net.fail(net.random_working_node())
    print(net.connectivity_histogram())

Subpackages:

* :mod:`repro.core` — overlay construction/maintenance (the contribution).
* :mod:`repro.coding` — RLNC codec (encoder, recoder, decoder).
* :mod:`repro.gf` — GF(2⁸) arithmetic and linear algebra.
* :mod:`repro.sim` — packet-level broadcast simulation.
* :mod:`repro.analysis` — connectivity, defects, delay, expansion.
* :mod:`repro.theory` — drift function, Theorem 4/5 bounds, collapse.
* :mod:`repro.failures` — iid/adversarial failures, §7 attacks.
* :mod:`repro.baselines` — chains, striped trees, Edmonds packings,
  erasure striping, uncoded flooding.
* :mod:`repro.workloads` — arrival schedules and named scenarios.
* :mod:`repro.metrics` — recording and table rendering.
"""

from .core import (
    SERVER,
    CoordinationServer,
    OverlayNetwork,
    RandomGraphOverlay,
    ThreadMatrix,
)
from .coding import Decoder, GenerationParams, Recoder, SourceEncoder
from .sim import BroadcastSimulation, SessionConfig, run_session

__version__ = "1.0.0"

__all__ = [
    "SERVER",
    "BroadcastSimulation",
    "CoordinationServer",
    "Decoder",
    "GenerationParams",
    "OverlayNetwork",
    "RandomGraphOverlay",
    "Recoder",
    "SessionConfig",
    "SourceEncoder",
    "ThreadMatrix",
    "__version__",
    "run_session",
]
