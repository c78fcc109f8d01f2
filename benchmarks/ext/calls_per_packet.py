"""Python calls per delivered packet, counted exactly, site by site.

Every relay in the paper (§1) receives on its ``d`` incoming threads,
recodes, and sends down each outgoing thread, so one hop's cost bounds
the decoded bytes per second a core can carry.  At small generations
that cost is Python dispatch, not GF arithmetic, and a call count
measures it without the host's timing drift: this runs one seed-0
:class:`~repro.net.testing.ChaosHarness` rep in one of the end-to-end
benchmark's virtual geometries, and counts every ``"call"`` event
(coroutine resumes included) that :func:`sys.setprofile` sees while
the harness runs until every peer decodes -- the benchmark's timed
region, after ``start()`` -- per packet the peers received meanwhile
(``dataplane.packets_in`` summed over peers)::

    PYTHONPATH=src python benchmarks/ext/calls_per_packet.py [--geometry smallgen|bulk] [--quick]

It prints the total and the share into ``src/repro``, then the part no
``benchmarks/e2e`` ledger row names split three ways -- asyncio's
event loop, the virtual network (``repro/net/testing``) and the driver
glue (``net/peer.py``, ``net/server.py``) -- then one row per call site
(file and function) with its calls per packet, heaviest first;
``--quick`` prints the first 25 rows.  Two runs of one seed
agree to the digit.  ``TestDataplaneCost`` in
``tests/test_protocol_engine.py`` pins the ``src/repro`` share with
:func:`count_calls`, and ``TestCallsPerPacketGeometries`` there checks
that :func:`chaos_config` still builds the e2e workloads' configs.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
from collections import Counter
from typing import NamedTuple

import repro
from repro.net.testing import ChaosConfig, ChaosHarness

#: The virtual workloads of ``benchmarks/e2e/workloads.py``: its
#: broadcast settings plus each geometry (a test holds the copy to it).
_BROADCAST = dict(
    peers=8, k=8, d=2, silence_timeout=10, keepalive_interval=2,
    probe_timeout=5, send_interval=0.01, deadline=600,
)
GEOMETRIES = {
    "smallgen": dict(generation_size=8, payload_size=64, generations=64),
    "bulk": dict(generation_size=64, payload_size=1024, generations=8),
}
_PACKAGE = os.path.dirname(repro.__file__) + os.sep
_ASYNCIO = os.path.dirname(asyncio.__file__) + os.sep

#: The loop remainder's three parts: label -> path prefixes.
REMAINDER = {
    "asyncio": (_ASYNCIO,),
    "repro/net/testing": (os.path.join(_PACKAGE, "net", "testing") + os.sep,),
    "drivers": tuple(os.path.join(_PACKAGE, "net", name)
                     for name in ("peer.py", "server.py")),
}


class CallCount(NamedTuple):
    """Calls over one rep, by site, and the packets it delivered."""

    sites: Counter  # (file, function) -> calls
    packets: int

    def per_packet(self, inside_only: bool = False) -> float:
        return sum(
            calls for (path, _), calls in self.sites.items()
            if not inside_only or path.startswith(_PACKAGE)
        ) / self.packets

    def remainder(self) -> dict[str, float]:
        """Calls per packet in each part of :data:`REMAINDER`."""
        return {
            label: sum(calls for (path, _), calls in self.sites.items()
                       if path.startswith(prefixes)) / self.packets
            for label, prefixes in REMAINDER.items()
        }


def _peer_packets(peers) -> int:
    return sum(
        peer.registry.counter("dataplane.packets_in").value
        for peer in peers)


async def _rep(config: ChaosConfig, sites: Counter) -> int:
    harness = ChaosHarness(config, record_trace=False)

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            sites[code.co_filename, code.co_name] += 1

    try:
        await harness.start()
        before = _peer_packets(harness.peers)
        sys.setprofile(profile)
        try:
            converged = await harness.run_until(harness.converged)
        finally:
            sys.setprofile(None)
        if not converged:
            raise AssertionError("the rep did not converge")
        return _peer_packets(harness.peers) - before
    finally:
        await harness.teardown()


def chaos_config(geometry: str, seed: int) -> ChaosConfig:
    """The e2e workload's config for ``geometry`` (a :data:`GEOMETRIES`
    key) at ``seed``."""
    return ChaosConfig(seed=seed, **_BROADCAST, **GEOMETRIES[geometry])


def count_calls(geometry: str, seed: int = 0) -> CallCount:
    """Count one rep of ``geometry`` (a :data:`GEOMETRIES` key)."""
    sites: Counter = Counter()
    packets = asyncio.run(_rep(chaos_config(geometry, seed), sites))
    return CallCount(sites, packets)


def _label(path: str, function: str) -> str:
    if path.startswith(_PACKAGE):
        path = "repro/" + path[len(_PACKAGE):]
    else:
        path = os.path.basename(path)
    return f"{path}:{function}"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--geometry", choices=sorted(GEOMETRIES),
                        default="smallgen")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="print only the 25 heaviest sites")
    args = parser.parse_args(argv)
    count = count_calls(args.geometry, args.seed)
    print(f"{args.geometry} seed {args.seed}: {count.packets} packets, "
          f"{count.per_packet(inside_only=True):.1f} calls into src/repro "
          f"and {count.per_packet():.1f} in total per packet")
    print("remainder per packet: " + ", ".join(
        f"{label} {calls:.1f}" for label, calls in count.remainder().items()))
    rows = count.sites.most_common(25 if args.quick else None)
    width = max(len(_label(*site)) for site, _ in rows)
    print(f"{'site':<{width}}  {'repro':>6}  {'total':>6}")
    for (path, function), calls in rows:
        ours = calls if path.startswith(_PACKAGE) else 0
        print(f"{_label(path, function):<{width}}  "
              f"{ours / count.packets:>6.2f}  {calls / count.packets:>6.2f}")


if __name__ == "__main__":
    main()
