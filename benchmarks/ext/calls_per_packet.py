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

    PYTHONPATH=src python benchmarks/ext/calls_per_packet.py [--geometry smallgen|bulk|swarm] [--quick]

It prints the total, the share into ``src/repro`` and the event loop's
``call_soon`` calls, then the part no ``benchmarks/e2e`` ledger row
names split three ways -- asyncio's event loop, the virtual network
(``repro/net/testing``) and the driver glue (``net/peer.py``,
``net/server.py``) -- then one row per call site (file and function)
with its calls per packet, heaviest first; ``--quick`` prints the first
25 rows.  ``--geometry swarm`` counts the same per membership op
(peers joined plus peers killed) over one 300-peer
:class:`~repro.net.testing.SwarmHarness` round, the ``swarm_churn``
workload's round at its ``--quick`` size (about 1.5 s), and then over
one 1 200-peer round (``--quick`` skips it), one column pair per
population, so a site whose per-op cost grows with the swarm shows
beside one that does not.  Two runs of one seed agree to the digit.  ``TestDataplaneCost`` and
``TestSwarmCallCost`` in ``tests/test_protocol_engine.py`` pin the
``src/repro`` share and the ``call_soon`` count with
:func:`count_calls` and :func:`count_swarm_calls`, and
``TestCallsPerPacketGeometries`` there checks that :func:`chaos_config`
still builds the e2e workloads' configs.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import os
import sys
from collections import Counter
from typing import NamedTuple

import repro
from repro.net.testing import (
    ChaosConfig,
    ChaosHarness,
    SwarmConfig,
    SwarmHarness,
)

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
#: The populations of the membership rounds ``--geometry swarm`` counts
#: (``--quick``: the first only).
SWARM_PEERS = (300, 1200)
_PACKAGE = os.path.dirname(repro.__file__) + os.sep
_ASYNCIO = os.path.dirname(asyncio.__file__) + os.sep
#: The event loop's scheduling entry point, as a call site.
_CALL_SOON = (os.path.join(_ASYNCIO, "base_events.py"), "call_soon")

#: The loop remainder's three parts: label -> path prefixes.
REMAINDER = {
    "asyncio": (_ASYNCIO,),
    "repro/net/testing": (os.path.join(_PACKAGE, "net", "testing") + os.sep,),
    "drivers": tuple(os.path.join(_PACKAGE, "net", name)
                     for name in ("peer.py", "server.py")),
}


class CallCount(NamedTuple):
    """Calls over one rep, by site, and the events it is divided by:
    packets delivered, or membership ops."""

    sites: Counter  # (file, function) -> calls
    events: int

    def per_event(self, inside_only: bool = False) -> float:
        return sum(
            calls for (path, _), calls in self.sites.items()
            if not inside_only or path.startswith(_PACKAGE)
        ) / self.events

    def call_soon(self) -> float:
        """``loop.call_soon`` calls per event: the loop callbacks the
        code schedules itself."""
        return self.sites[_CALL_SOON] / self.events

    def remainder(self) -> dict[str, float]:
        """Calls per event in each part of :data:`REMAINDER`."""
        return {
            label: sum(calls for (path, _), calls in self.sites.items()
                       if path.startswith(prefixes)) / self.events
            for label, prefixes in REMAINDER.items()
        }


@contextlib.contextmanager
def _counting(sites: Counter):
    """Count every ``"call"`` event into ``sites`` while the block runs."""

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            sites[code.co_filename, code.co_name] += 1

    sys.setprofile(profile)
    try:
        yield
    finally:
        sys.setprofile(None)


def _peer_packets(peers) -> int:
    return sum(peer.dataplane.obs.packets_in for peer in peers)


async def _rep(config: ChaosConfig, sites: Counter) -> int:
    harness = ChaosHarness(config, record_trace=False)
    try:
        await harness.start()
        before = _peer_packets(harness.peers)
        with _counting(sites):
            converged = await harness.run_until(harness.converged)
        if not converged:
            raise AssertionError("the rep did not converge")
        return _peer_packets(harness.peers) - before
    finally:
        await harness.teardown()


async def _swarm_rep(config: SwarmConfig, sites: Counter) -> int:
    harness = SwarmHarness(config)
    try:
        with _counting(sites):
            report = await harness.run_round()
        if not report.ok:
            raise AssertionError(report.summary())
        return report.joined + report.killed
    finally:
        await harness.teardown()


def chaos_config(geometry: str, seed: int) -> ChaosConfig:
    """The e2e workload's config for ``geometry`` (a :data:`GEOMETRIES`
    key) at ``seed``."""
    return ChaosConfig(seed=seed, **_BROADCAST, **GEOMETRIES[geometry])


def count_calls(geometry: str, seed: int = 0) -> CallCount:
    """Count one rep of ``geometry`` (a :data:`GEOMETRIES` key), per
    delivered packet."""
    sites: Counter = Counter()
    packets = asyncio.run(_rep(chaos_config(geometry, seed), sites))
    return CallCount(sites, packets)


def count_swarm_calls(peers: int, seed: int = 0) -> CallCount:
    """Count one ``peers``-peer swarm round, per membership op."""
    sites: Counter = Counter()
    ops = asyncio.run(_swarm_rep(
        SwarmConfig(peers=peers, seed=seed), sites))
    return CallCount(sites, ops)


def _label(path: str, function: str) -> str:
    if path.startswith(_PACKAGE):
        path = "repro/" + path[len(_PACKAGE):]
    else:
        path = os.path.basename(path)
    return f"{path}:{function}"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--geometry", choices=[*sorted(GEOMETRIES), "swarm"],
                        default="smallgen")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="print only the 25 heaviest sites, and count "
                        "only the first swarm population")
    args = parser.parse_args(argv)
    if args.geometry == "swarm":
        unit = "op"
        counts = [
            (f"n={peers}: ", "membership ops",
             count_swarm_calls(peers, args.seed))
            for peers in SWARM_PEERS[:1 if args.quick else None]]
    else:
        unit = "packet"
        counts = [("", "packets", count_calls(args.geometry, args.seed))]
    for where, what, count in counts:
        print(f"{args.geometry} seed {args.seed}: {where}{count.events} "
              f"{what}, {count.per_event(inside_only=True):.1f} calls into "
              f"src/repro, {count.per_event():.1f} in total and "
              f"{count.call_soon():.2f} call_soon per {unit}")
        print(f"remainder per {unit}: " + ", ".join(
            f"{label} {calls:.1f}"
            for label, calls in count.remainder().items()))
    # The largest population's heaviest sites, each beside its cost at
    # every population counted.
    rows = counts[-1][2].sites.most_common(25 if args.quick else None)
    width = max(len(_label(*site)) for site, _ in rows)
    print(f"{'site':<{width}}" + "".join(
        f"  {'repro':>6}  {'total':>6}" for _ in counts))
    for site, _ in rows:
        line = f"{_label(*site):<{width}}"
        for _, _, count in counts:
            calls = count.sites[site]
            ours = calls if site[0].startswith(_PACKAGE) else 0
            line += (f"  {ours / count.events:>6.2f}"
                     f"  {calls / count.events:>6.2f}")
        print(line)


if __name__ == "__main__":
    main()
