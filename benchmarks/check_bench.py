"""Gate for the two same-run properties ``microbench.py`` measures.

The end-to-end benchmark (``benchmarks/e2e/``) is the perf gate for
throughput; this file gates only what a parent/change comparison of
end-to-end numbers cannot show:

* ``obs_overhead`` — instrumented hot paths must hold a floor fraction
  of their bare throughput, both arms measured in one process so the
  ratio is stable across runner hardware;
* ``scaling`` — all four populations (100 / 1k / 5k / 10k) must report
  positive server-ops/s and slots/s, and the server-op rate at 10k must
  stay within ``SCALING_MAX_DEGRADATION`` of the 100-peer rate
  (sublinear membership cost — the indexed engine state's acceptance
  bar).

Usage (CI runs the quick microbench first)::

    PYTHONPATH=src python benchmarks/microbench.py --quick --out bench_smoke.json
    python benchmarks/check_bench.py bench_smoke.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: (section, key) rates that must be present and positive.
POSITIVE = [
    ("obs_overhead", "slots_per_s"),
    ("obs_overhead", "enqueues_per_s"),
    ("scaling", "server_ops_per_s_n100"),
    ("scaling", "server_ops_per_s_n1000"),
    ("scaling", "server_ops_per_s_n5000"),
    ("scaling", "server_ops_per_s_n10000"),
    ("scaling", "slots_per_s_n100"),
    ("scaling", "slots_per_s_n1000"),
    ("scaling", "slots_per_s_n5000"),
    ("scaling", "slots_per_s_n10000"),
]

#: Sublinear-scaling gate for the indexed engine state: ops/s at 10k
#: peers must stay within this factor of ops/s at 100 peers.  The
#: pre-index linear scans degraded ~100x over that population span
#: (per-op cost O(n)); the indexed paths measure ~2x, so a 10x bar
#: fails a reintroduced scan by an order of magnitude while tolerating
#: noisy runners.
SCALING_MAX_DEGRADATION = 10.0

#: (section, key, floor) same-run ratios.  Observability budget:
#: instrumented hot paths hold >= 0.98 of bare throughput on a quiet
#: machine (CHANGES.md, PR 8, records the run); the CI floor leaves
#: headroom for noisy shared runners.
FLOORS = [
    ("obs_overhead", "relative_throughput_slot_loop", 0.95),
    ("obs_overhead", "relative_throughput_sender", 0.95),
]


def check(results: dict) -> list[str]:
    """Return a list of failure messages (empty = gate passes)."""
    failures: list[str] = []
    for section, key in POSITIVE:
        value = results.get(section, {}).get(key)
        if value is None:
            failures.append(f"{section}.{key}: missing from current run")
        elif not value > 0:
            failures.append(f"{section}.{key}: {value!r} is not positive")
    for section, key, floor in FLOORS:
        value = results.get(section, {}).get(key)
        if value is None:
            failures.append(f"{section}.{key}: missing from current run")
        elif value < floor:
            failures.append(
                f"{section}.{key}: {value:.2f} < floor {floor:.2f}"
            )
    scaling = results.get("scaling", {})
    small = scaling.get("server_ops_per_s_n100")
    large = scaling.get("server_ops_per_s_n10000")
    if small is not None and large is not None and small > 0:
        if large < small / SCALING_MAX_DEGRADATION:
            failures.append(
                f"scaling.server_ops_per_s_n10000: {large:,.0f} is more "
                f"than {SCALING_MAX_DEGRADATION:g}x below the n=100 rate "
                f"{small:,.0f} — membership ops are scaling linearly "
                f"again (a reintroduced registry scan?)"
            )
    return failures


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    results = json.loads(Path(argv[1]).read_text())
    failures = check(results)
    for section, key, floor in FLOORS:
        value = results.get(section, {}).get(key)
        if value is not None:
            print(f"{section}.{key}: {value:.2f} (floor {floor:.2f})")
    if failures:
        print("\nPERF GATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("perf gate ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
