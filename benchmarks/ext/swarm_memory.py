"""Where a swarm's memory goes: traced bytes per peer at the join peak.

A :class:`~repro.net.testing.SwarmHarness` round holds the most at the
moment its last join wave is in and the churn is about to start: every
peer is connected, every pump and parked read is alive.  This runs one
round per population under :mod:`tracemalloc`, takes a snapshot when
``churn()`` starts (and stops tracing there, so the rest of the round
runs at full speed), and charges every live allocation to the module
whose line made it::

    PYTHONPATH=src python benchmarks/ext/swarm_memory.py [--quick]

The groups are the virtual transport (``net.testing.virtualnet``), the
two ends of a data connection (``net.streams``, ``net.framing``), the
instruments (``obs``), the codec (``coding``), asyncio's own lines
(``asyncio``: the tasks and futures the event loop makes), and
everything else; they sum to the traced total.  It prints KB (1 000 B)
per peer at n = 500 and 2 000 (``--quick``: 500 only), in well under a
minute, and exits non-zero when, at any of them, the traced total per
peer exceeds :data:`CEILING_KB_PER_PEER` or the ``obs`` group exceeds
:data:`OBS_CEILING_KB_PER_PEER`.
"""

from __future__ import annotations

import argparse
import asyncio
import pathlib
import sys
import tracemalloc

from repro.net.testing import SwarmConfig, SwarmHarness

POPULATIONS = (500, 2_000)
QUICK_POPULATIONS = (500,)
GROUPS = (
    "net.testing.virtualnet", "net.streams", "net.framing", "obs",
    "coding", "asyncio", "other",
)
#: Traced KB per peer at the join peak above which the run fails.
CEILING_KB_PER_PEER = 30.0
#: The same for the ``obs`` group alone: a node's instruments are ints
#: on the objects that count, not an object and a closure per name.
OBS_CEILING_KB_PER_PEER = 2.0


def group_of(filename: str) -> str:
    """The ledger group charged for an allocation made in ``filename``."""
    path = pathlib.PurePath(filename).as_posix()
    if "/repro/" in path:
        module = path.rsplit("/repro/", 1)[1][:-len(".py")].replace("/", ".")
        if module in GROUPS:
            return module
        package = module.split(".", 1)[0]
        if package in GROUPS:
            return package
    elif "/asyncio/" in path:
        return "asyncio"
    return "other"


class _PeakSnapshot(SwarmHarness):
    """A harness that snapshots the traced heap as the churn starts."""

    snapshot = None
    #: tracemalloc's own count of traced bytes at the snapshot
    traced = 0

    def churn(self, fraction=None):
        if self.snapshot is None:
            self.traced = tracemalloc.get_traced_memory()[0]
            self.snapshot = tracemalloc.take_snapshot()
            tracemalloc.stop()
        return super().churn(fraction)


async def _round(harness: SwarmHarness):
    try:
        return await harness.run_round()
    finally:
        await harness.teardown()


def ledger(peers: int, seed: int = 0) -> dict[str, int]:
    """Traced bytes per group at the join peak of one ``peers`` round,
    and tracemalloc's traced total there under ``"total"``."""
    tracemalloc.start()
    try:
        harness = _PeakSnapshot(SwarmConfig(peers=peers, seed=seed))
        report = asyncio.run(_round(harness))
    finally:
        tracemalloc.stop()
    if not report.ok or harness.snapshot is None:
        raise RuntimeError(f"swarm round failed: {report.summary()}")
    groups = dict.fromkeys(GROUPS, 0)
    for stat in harness.snapshot.statistics("filename"):
        groups[group_of(stat.traceback[0].filename)] += stat.size
    groups["total"] = harness.traced
    return groups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="n = 500 only (the CI lane)")
    args = parser.parse_args(argv)
    populations = QUICK_POPULATIONS if args.quick else POPULATIONS
    columns = (*GROUPS, "total")
    print(f"{'KB/peer':>7}  "
          + "  ".join(f"{c.rsplit('.', 1)[-1]:>10}" for c in columns))
    over = False
    for peers in populations:
        groups = ledger(peers)
        per_peer = {c: groups[c] / peers / 1000 for c in columns}
        print(f"{peers:>7,}  "
              + "  ".join(f"{per_peer[c]:>10.1f}" for c in columns))
        if per_peer["total"] > CEILING_KB_PER_PEER:
            print(f"traced total above {CEILING_KB_PER_PEER} KB per peer")
            over = True
        if per_peer["obs"] > OBS_CEILING_KB_PER_PEER:
            print(f"obs above {OBS_CEILING_KB_PER_PEER} KB per peer")
            over = True
    return int(over)


if __name__ == "__main__":
    sys.exit(main())
