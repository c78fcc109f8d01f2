"""Compare two ``result.json`` files: ``compare.py A.json B.json``.

One row per pairing of end-to-end metric and workload: both medians with
their quartiles, the ratio B/A with its base, the run-to-run spread and a
verdict against the bound ``BENCHMARK.json`` fixes for the metric —

``better`` / ``worse``
    B's median differs from A's by more than the bound.
``within-bound``
    it does not.
``unresolved``
    the spread is wider than the bound, so the medians cannot settle it
    (unless every rep of B reads better, or worse, than its rep of A).

The spread is the quartile spread a median of that many reps has from run
to run, predicted from the reps' own quartiles as ``sqrt(pi/2) * IQR /
sqrt(n)`` relative to the median.  When both files ran the same library seeds the
comparison is paired seed by seed and the spread is that of the per-rep
ratios B/A, which cancels the topology each seed draws; otherwise the
two files' own spreads are combined.  Exits non-zero on any ``worse`` or
on a rise in ``failed_frac``.  A against A is the benchmark's own noise
check.
"""

from __future__ import annotations

import json
import math
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
#: The wire ratio is exact on the virtual net, so it is held tighter
#: there than the bound BENCHMARK.json gives it for real sockets.
VIRTUAL_WIRE_BOUND = 0.03
VIRTUAL = ("bulk_virtual", "smallgen_virtual")


def median_spread(values: list[float]) -> float:
    """Predicted run-to-run quartile spread of the median of ``values``,
    relative to it (a median of n has standard error ``1.2533 * sigma /
    sqrt(n)``, and both quartile spreads are 1.349 sigma)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return math.sqrt(math.pi / 2) * (q3 - q1) / (
        abs(median) * math.sqrt(len(values)))


def judge(a: dict, b: dict, better: str, bound: float, pairing):
    """(ratio of medians, spread, verdict) for one metric on one workload.

    ``pairing`` lists, for each rep of A, the index of B's rep that ran
    the same library seed; None when the two ran different seeds."""
    sign = 1.0 if better == "lower" else -1.0
    ratio = b["value"] / a["value"]
    worse_by = sign * (ratio - 1.0)
    if pairing is not None and len(a["values"]) == len(pairing):
        pairs = [(x, b["values"][j]) for x, j in zip(a["values"], pairing)]
        spread = median_spread([y / x for x, y in pairs])
    else:
        pairs = [(x, y) for x in a["values"] for y in b["values"]]
        spread = math.hypot(
            median_spread(a["values"]), median_spread(b["values"]))
    if spread > bound:
        if worse_by < 0 and all(sign * (y - x) < 0 for x, y in pairs):
            return ratio, spread, "better"
        if worse_by > bound and all(sign * (y - x) > 0 for x, y in pairs):
            return ratio, spread, "worse"
        return ratio, spread, "unresolved"
    if worse_by > bound:
        return ratio, spread, "worse"
    if worse_by < -bound:
        return ratio, spread, "better"
    return ratio, spread, "within-bound"


def compare(a: dict, b: dict, spec: dict) -> tuple[list[tuple], bool]:
    """Rows of the comparison table and whether anything got worse."""
    rows, bad = [], False
    for name, run_a in a["workloads"].items():
        run_b = b["workloads"].get(name)
        if run_b is None:
            continue
        if run_b["failed_frac"] > run_a["failed_frac"]:
            rows.append((name, "failed_frac", run_a["failed_frac"],
                         run_b["failed_frac"], "", "", "worse"))
            bad = True
        seeds_a, seeds_b = run_a["library_seeds"], run_b["library_seeds"]
        pairing = (
            [seeds_b.index(seed) for seed in seeds_a]
            if sorted(seeds_a) == sorted(seeds_b) else None
        )
        for metric in spec["end_to_end"]:
            key = metric["name"]
            if key not in run_a["end_to_end"] or key not in run_b["end_to_end"]:
                continue  # not applicable to this workload
            bound = metric["bound"]
            if key == "wire_bytes_per_payload_byte" and name in VIRTUAL:
                bound = VIRTUAL_WIRE_BOUND
            m_a, m_b = run_a["end_to_end"][key], run_b["end_to_end"][key]
            ratio, spread, verdict = judge(
                m_a, m_b, metric["better"], bound, pairing)
            bad |= verdict == "worse"
            rows.append((
                name, f"{key} [{metric['unit']}]",
                f"{m_a['value']:.5g} ({m_a['q1']:.5g}..{m_a['q3']:.5g})",
                f"{m_b['value']:.5g} ({m_b['q1']:.5g}..{m_b['q3']:.5g})",
                f"{ratio:.4f} of {m_a['value']:.5g}",
                f"{spread:.4f}/{bound:.2f}", verdict,
            ))
    return rows, bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    a, b = (json.loads(pathlib.Path(path).read_text()) for path in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, bad = compare(a, b, spec)
    header = ("workload", "metric", "A median (q1..q3)", "B median (q1..q3)",
              "B/A", "spread/bound", "verdict")
    table = [header] + [tuple(str(cell) for cell in row) for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    print(f"A: commit {a['commit']} seed {a['seed']}   "
          f"B: commit {b['commit']} seed {b['seed']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
