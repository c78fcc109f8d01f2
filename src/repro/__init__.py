"""repro — peer-to-peer broadcast overlays with network coding.

A from-scratch Python implementation of *Building Scalable and Robust
Peer-to-Peer Overlay Networks for Broadcasting using Network Coding*
(Jain, Lovász, Chou — PODC 2005): the curtain-rod overlay construction
(hello / good-bye / repair protocols over the thread matrix ``M``), a
practical RLNC data plane (Chou–Wu–Jain), a live asyncio deployment of
both, a packet-level simulator, adversarial failure models, every
baseline the paper argues against, and the analytic machinery of its
theorems.

Quick start::

    from repro.core import OverlayNetwork
    net = OverlayNetwork(k=32, d=4, seed=7)
    net.grow(1000)
    net.fail(net.random_working_node())
    print(net.connectivity_histogram())

This module re-exports nothing: importing a subpackage loads that
subpackage and the layers below it, never the ones above (the order is
the one ``tools/check_layering.py`` enforces).

The deployment, bottom up:

* :mod:`repro.gf` — GF(2⁸) arithmetic and linear algebra.
* :mod:`repro.coding` — RLNC codec (encoder, recoder, decoder, wire).
* :mod:`repro.core` — overlay construction/maintenance (the contribution).
* :mod:`repro.protocol` — sans-IO control-plane engines (server, peer).
* :mod:`repro.dataplane` — sans-IO data-plane engines (source, relay).
* :mod:`repro.obs` — metrics registry, flight recorder, exporters.
* :mod:`repro.net` — asyncio drivers over TCP; ``net.testing`` is the
  virtual-network chaos/swarm/soak harness.

The experiments' library, above it:

* :mod:`repro.analysis` — connectivity, defects, delay, spectral gap.
* :mod:`repro.metrics` — summary statistics and table rendering.
* :mod:`repro.workloads` — arrival schedules and churn traces.
* :mod:`repro.theory` — drift function, Theorem 4/5 bounds, collapse.
* :mod:`repro.sim` — packet-level broadcast simulation and sessions.
* :mod:`repro.baselines` — chains, striped trees, Edmonds packings,
  erasure striping, uncoded flooding.
* :mod:`repro.failures` — iid/adversarial failures, §7 attacks.
"""

__version__ = "1.0.0"
