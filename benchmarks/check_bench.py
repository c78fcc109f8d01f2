"""CI perf gate: catch decode/recode regressions against ``BENCH_PR2.json``.

Absolute packets-per-second numbers are meaningless across machines (a
cold CI runner is easily 5x slower than the box that recorded the
baseline), so the gate compares *same-run speedup ratios* instead: each
benchmark section measures its optimised path and its scalar baseline in
one process on one machine, and the ratio of the two is stable across
hardware.  A >10% drop in a ratio means the optimised path genuinely
lost ground relative to the scalar code it is supposed to beat — the
one regression this repo's perf work must never ship.

Speedup ratios drift across hardware too — the *identical* pre-batching
code measured ``decode.speedup_g64`` 3.92 on the machine that recorded
``BENCH_PR2.json`` and 2.90 on another box (cache sizes and BLAS
threading shift the gemm/python balance) — so the gate layers a
measured ``HARDWARE_DRIFT`` allowance under the 10% regression
tolerance.  A genuine regression (batching disabled → ratio ~1.0)
still fails by a wide margin.

Gates (floor = ``RATIO_TOLERANCE * HARDWARE_DRIFT *`` recorded):

* ``decode.speedup_g64``   — batched wire decode vs the seed decoder;
* ``recode.speedup``       — batched random-combination emit vs seed;

plus smoke checks that the PR-6 sections (``wire_batch``,
``recode_batch``, ``net_throughput``) ran, produced positive rates, and
that one batched recode call did not fall behind as many sequential
``emit`` calls; plus the PR-9 ``scaling`` section: all four populations
(100 / 1k / 5k / 10k) must report positive server-ops/s and slots/s, and the
server-op rate at 10k must stay within ``SCALING_MAX_DEGRADATION`` of
the 100-peer rate (sublinear membership cost — the indexed engine
state's acceptance bar).

Usage (CI runs the quick microbench first)::

    PYTHONPATH=src python benchmarks/microbench.py --quick --out bench_smoke.json
    python benchmarks/check_bench.py bench_smoke.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "BENCH_PR2.json"

#: A gated ratio may regress to this fraction of the recorded one.
RATIO_TOLERANCE = 0.9

#: Cross-machine drift allowance for the recorded ratios (see module
#: docstring: identical code measured 26% apart on two boxes).
HARDWARE_DRIFT = 0.75

#: (section, key) speedup ratios gated against BENCH_PR2.json.
GATED_RATIOS = [
    ("decode", "speedup_g64"),
    ("recode", "speedup"),
]

#: (section, key) rates from the PR-6 sections that must be positive.
SMOKE_POSITIVE = [
    ("wire_batch", "encode_frames_per_s"),
    ("wire_batch", "decode_frames_per_s"),
    ("recode_batch", "emits_per_s"),
    ("recode_batch", "wire_emits_per_s"),
    ("net_throughput", "packets_per_s"),
    ("obs_overhead", "slots_per_s"),
    ("obs_overhead", "enqueues_per_s"),
    ("dataplane_overhead", "ops_per_s"),
    ("dataplane_overhead", "ops_per_s_inline"),
    ("scaling", "server_ops_per_s_n100"),
    ("scaling", "server_ops_per_s_n1000"),
    ("scaling", "server_ops_per_s_n5000"),
    ("scaling", "server_ops_per_s_n10000"),
    ("scaling", "slots_per_s_n100"),
    ("scaling", "slots_per_s_n1000"),
    ("scaling", "slots_per_s_n5000"),
    ("scaling", "slots_per_s_n10000"),
]

#: Sublinear-scaling gate for the PR-9 indexed engine state: ops/s at
#: 10k peers must stay within this factor of ops/s at 100 peers.  The
#: pre-index linear scans degraded ~100x over that population span
#: (per-op cost O(n)); the indexed paths measure ~2x, so a 10x bar
#: fails a reintroduced scan by an order of magnitude while tolerating
#: noisy runners.
SCALING_MAX_DEGRADATION = 10.0

#: (section, key, floor) same-run ratios.  ``recode_batch`` must not
#: drop below 1.0 even on a noisy runner (measured ~2x).
SMOKE_FLOORS = [
    ("recode_batch", "speedup", 1.0),
    ("recode_batch", "speedup_wire", 1.0),
    # Observability budget: instrumented hot paths hold >= 0.98 of bare
    # throughput on a quiet machine (CHANGES.md, PR 8, records the run);
    # the CI floor leaves headroom for noisy shared runners.
    ("obs_overhead", "relative_throughput_slot_loop", 0.95),
    ("obs_overhead", "relative_throughput_sender", 0.95),
    # PR-10 sans-IO data-plane budget: the engine-dispatched
    # ingest+pull pair against the pre-refactor inline path
    # (BENCH_PR10.json records 0.97 at a floor of 0.95).  The engine
    # costs a fixed 1-3 us per arrival; the native GF kernels halved
    # the coding work that cost is divided by (g=16 x 256 B: ~95 us ->
    # ~50 us a pair), so the same overhead now reads 0.93-0.96 and the
    # floor moved with the denominator.
    ("dataplane_overhead", "relative_throughput", 0.90),
]


def check(results: dict, baseline: dict) -> list[str]:
    """Return a list of failure messages (empty = gate passes)."""
    failures: list[str] = []
    for section, key in GATED_RATIOS:
        recorded = baseline.get(section, {}).get(key)
        current = results.get(section, {}).get(key)
        if recorded is None:
            continue  # baseline predates this metric; nothing to gate
        if current is None:
            failures.append(f"{section}.{key}: missing from current run")
            continue
        floor = RATIO_TOLERANCE * HARDWARE_DRIFT * recorded
        if current < floor:
            failures.append(
                f"{section}.{key}: {current:.2f} < {floor:.2f} "
                f"(recorded {recorded:.2f}, tolerance {RATIO_TOLERANCE}, "
                f"drift allowance {HARDWARE_DRIFT})"
            )
    for section, key in SMOKE_POSITIVE:
        value = results.get(section, {}).get(key)
        if value is None:
            failures.append(f"{section}.{key}: missing from current run")
        elif not value > 0:
            failures.append(f"{section}.{key}: {value!r} is not positive")
    for section, key, floor in SMOKE_FLOORS:
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
    if not BASELINE.exists():
        print(f"no baseline at {BASELINE}; skipping ratio gate")
        baseline: dict = {}
    else:
        baseline = json.loads(BASELINE.read_text())
    failures = check(results, baseline)
    for section, key in GATED_RATIOS:
        current = results.get(section, {}).get(key)
        recorded = baseline.get(section, {}).get(key)
        if current is not None and recorded is not None:
            print(f"{section}.{key}: {current:.2f} (recorded {recorded:.2f})")
    if failures:
        print("\nPERF GATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("perf gate ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
