"""End-to-end benchmark runner.

``python3 benchmarks/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1``
    runs one workload in this process and prints, as the last line, one
    JSON object ``{"correct", "attempted", "failed", "metrics"}``: every
    end-to-end metric with ``--trace 0`` (tracing off), every per-layer
    metric with ``--trace 1``.

``PYTHONPATH=src python -m benchmarks.e2e.run --seed S [--quick]``
    runs all five workloads, each in its own fresh child process
    (untraced reps, then the traced reps), prints every metric and writes
    ``benchmarks/e2e/out/result.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: nothing to benchmark")
if __package__ in (None, ""):
    # Run as a script: import siblings as ``benchmarks.e2e.*`` so that
    # ``trace.py`` never shadows the standard library's ``trace``.
    sys.path[0] = str(ROOT)
sys.path.insert(0, str(ROOT / "src"))

_import_began = perf_counter()
import numpy as np  # noqa: E402

from benchmarks.e2e.trace import LAYERS, Tracer  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS, Workload, pool_counts  # noqa: E402

IMPORT_S = perf_counter() - _import_began

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
#: What a workload reports for an end-to-end metric it does not measure
#: (the result line must carry every metric on every workload).
NOT_APPLICABLE = 1.0
#: Share of ``--seconds`` the planned reps are sized to fill.
FILL = 0.9
MIN_REPS = 3


# ----------------------------------------------------------------------
# Machine calibration


def calibrate() -> dict[str, float]:
    """Two machine constants, best of three each: memory-bound numpy XOR
    bandwidth and interpreter-bound Python call rate."""
    a = np.ones(64 << 20, dtype=np.uint8)
    b = np.full(64 << 20, 3, dtype=np.uint8)
    xor = pycall = 0.0

    def nothing():
        pass

    for _ in range(3):
        began = perf_counter()
        np.bitwise_xor(a, b, out=a)
        xor = max(xor, a.nbytes / (perf_counter() - began) / 1e9)
        began = perf_counter()
        for _ in range(500_000):
            nothing()
        pycall = max(pycall, 0.5 / (perf_counter() - began))
    return {"machine.xor_GBps": xor, "machine.pycall_Mops": pycall,
            "machine.import_s": IMPORT_S}


# ----------------------------------------------------------------------
# One workload, in this process


def plan(workload: Workload, seed: int, seconds: float, quick: bool) -> list[int]:
    """Library seeds of the run's reps, in order."""
    reps = 1 if quick else max(
        MIN_REPS, int(seconds * FILL / workload.rep_seconds))
    if workload.panel:
        return [(seed + i) % reps for i in range(reps)]
    return [seed + i for i in range(reps)]


def summarise(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def end_to_end(workload: Workload, reps: list) -> dict:
    """Median, quartiles and per-rep values of every native metric."""
    metrics = {
        name: summarise([rep.values[name] for rep in reps])
        for name in workload.native
    }
    metrics["setup_s"] = summarise([rep.setup_s for rep in reps])
    metrics["peak_rss_MB"] = summarise(
        [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024])
    for name, metric in metrics.items():
        metric["unit"] = END_TO_END[name]["unit"]
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer: Tracer, traced: list, untraced: list, ledgers: list,
              pool: tuple[int, int], machine: dict) -> dict:
    """The ledger and the boundary ratios, summed over the traced reps."""
    def total(reps: list, name: str) -> float:
        return sum(rep.counts.get(name, 0) for rep in reps)

    wall = sum(rep.window[1] - rep.window[0] for rep in traced)
    reference = sum(rep.window[1] - rep.window[0] for rep in untraced)
    counts = {name: total(traced, name) for name in traced[0].counts}
    # On real sockets a rep and its traced twin move different numbers
    # of packets, so the overhead is taken per packet; wherever the twins
    # do identical work this is exactly traced wall / untraced wall - 1.
    packets = total(traced, "peer_packets_in")
    work = packets / total(untraced, "peer_packets_in") if packets else 1.0
    layers = {
        name: {key: sum(ledger[name][key] for ledger in ledgers)
               for key in ("self_s", "inclusive_s", "calls", "entries")}
        for name in LAYERS
    }
    values = {}
    for name, row in layers.items():
        values[f"{name}.self_s"] = row["self_s"]
        values[f"{name}.self_frac"] = row["self_s"] / wall
        values[f"{name}.calls"] = row["calls"]
    frames = counts.get("sender.sent", 0) + counts.get("sender.keepalives", 0)
    goodput = [rep.values["goodput_MBps"] for rep in untraced
               if "goodput_MBps" in rep.values]
    values.update({
        "gf.bytes_per_call": _ratio(tracer.gf_bytes, layers["gf"]["calls"]),
        "coding.decoder.innovative_ratio": _ratio(
            counts.get("dataplane.innovative_in", 0),
            counts.get("dataplane.packets_in", 0)),
        "coding.recoder.rows_per_call": _ratio(
            counts.get("dataplane.mixtures_out", 0)
            + counts.get("dataplane.idle_fills", 0),
            layers["coding.recoder"]["entries"]),
        "coding.pool.reuse_ratio": _ratio(pool[1], pool[0]),
        "dataplane.effects_per_event": _ratio(
            counts.get("dataplane.effects", 0),
            counts.get("dataplane.events", 0)),
        "dataplane.idle_fills": counts.get("dataplane.idle_fills", 0),
        "net.framing.bytes_per_frame": _ratio(
            counts.get("sender.bytes_sent", 0), frames),
        "net.streams.frames_per_flush": _ratio(
            frames, counts.get("sender.flushes", 0)),
        "net.streams.dropped": counts.get("sender.dropped", 0),
        "net.streams.queue_depth_max": tracer.queue_depth_max,
        "protocol.us_per_event": 1e6 * _ratio(
            layers["protocol"]["inclusive_s"], layers["protocol"]["entries"]),
        "core.us_per_op": 1e6 * _ratio(
            layers["core"]["inclusive_s"], layers["core"]["entries"]),
        "loop.rounds": counts.get("rounds", 0),
        "loop.us_per_packet": 1e6 * _ratio(wall, packets),
        "trace.overhead_frac": wall / (reference * work) - 1,
        "trace.spans": len(tracer.spans),
        "trace.wall_s": wall,
        **machine,
        "machine.goodput_norm": _ratio(
            statistics.median(goodput) if goodput else 0.0,
            machine["machine.pycall_Mops"]),
    })
    return {
        name: {"value": values[name], "unit": spec["unit"]}
        for name, spec in PER_LAYER.items()
    }


def run_workload(name: str, seed: int, seconds: float, mode: str,
                 quick: bool) -> dict:
    """Run one workload here.  ``mode`` is ``"0"`` (every rep, tracing
    off), ``"1"`` (the traced reps, each after its untraced twin) or
    ``"both"`` (every rep untraced, then the traced reps)."""
    workload = WORKLOADS[name]
    seeds = plan(workload, seed, seconds, quick)
    traced_seeds = seeds[:min(workload.traced_reps, len(seeds))]
    began = perf_counter()
    untraced = []
    for index, rep_seed in enumerate(seeds if mode != "1" else traced_seeds):
        if index >= MIN_REPS and perf_counter() - began > seconds:
            break  # slower box than the sizing one: keep inside the budget
        gc.collect()  # one rep's garbage is not billed to the next
        untraced.append(workload.run(rep_seed, quick))
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "quick": quick,
        "library_seeds": seeds[:len(untraced)],
        "end_to_end": {}, "per_layer": {},
    }
    reps = list(untraced)
    if mode != "1":
        record["end_to_end"] = end_to_end(workload, untraced)
    if mode != "0":
        # Calibration allocates; it runs only after peak RSS was read.
        machine = calibrate()
        tracer = Tracer()
        tracer.install()
        try:
            traced, ledgers = [], []
            leases, reuses = pool_counts()
            for index, rep_seed in enumerate(traced_seeds):
                gc.collect()
                first = tracer.begin_rep(index)
                rep = workload.run(rep_seed, quick)
                ledgers.append(tracer.ledger(first, *rep.window))
                traced.append(rep)
        finally:
            tracer.uninstall()
        pool = tuple(
            after - before
            for after, before in zip(pool_counts(), (leases, reuses)))
        record["per_layer"] = per_layer(
            tracer, traced, untraced[:len(traced)], ledgers, pool, machine)
        tracer.dump(OUT / f"trace_{name}.json")
        reps += traced
    record["ops_attempted"] = sum(rep.attempted for rep in reps)
    record["ops_failed"] = sum(rep.failed for rep in reps)
    record["failed_frac"] = record["ops_failed"] / record["ops_attempted"]
    record["failures"] = [f for rep in reps for f in rep.failures]
    return record


def result_line(record: dict) -> str:
    """The one-line result: every end-to-end metric (a workload reports
    ``NOT_APPLICABLE`` for one it does not measure), every per-layer
    metric, or both."""
    metrics = {}
    if record["end_to_end"]:
        for name, spec in END_TO_END.items():
            measured = record["end_to_end"].get(name)
            metrics[name] = {
                "value": measured["value"] if measured else NOT_APPLICABLE,
                "unit": spec["unit"],
            }
    metrics.update(record["per_layer"])
    return json.dumps({
        "correct": record["ops_failed"] == 0,
        "attempted": record["ops_attempted"],
        "failed": record["ops_failed"],
        "metrics": metrics,
    })


def print_record(record: dict) -> None:
    print(f"== {record['workload']}  seed={record['seed']} "
          f"reps={len(record['library_seeds'])} "
          f"ops_attempted={record['ops_attempted']} "
          f"ops_failed={record['ops_failed']} "
          f"failed_frac={record['failed_frac']:.6f}")
    for failure in record["failures"]:
        print(f"   FAILED: {failure}")
    for name, metric in record["end_to_end"].items():
        print(f"   {name:<36} {metric['value']:>14.6g} {metric['unit']:<7}"
              f" q1={metric['q1']:.6g} q3={metric['q3']:.6g} n={metric['n']}")
    for name, metric in record["per_layer"].items():
        print(f"   {name:<36} {metric['value']:>14.6g} {metric['unit']}")


# ----------------------------------------------------------------------
# All workloads, one child process each


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_all(seed: int, seconds: float, quick: bool, names: list[str]) -> int:
    records = {}
    for name in names:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "both",
        ] + (["--quick"] if quick else [])
        child = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL)
        if child.returncode != 0:
            print(f"{name}: child exited with {child.returncode}",
                  file=sys.stderr)
            return child.returncode
        records[name] = json.loads(
            (OUT / f"detail_{name}.json").read_text())
        print_record(records[name])
    machine = {
        key: records[names[0]]["per_layer"][key]
        for key in ("machine.xor_GBps", "machine.pycall_Mops",
                    "machine.import_s")
    }
    result = {
        "schema": "repro.bench.e2e/1",
        "commit": git_commit(),
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": machine,
        "workloads": records,
    }
    (OUT / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {OUT / 'result.json'}")
    return 1 if any(r["ops_failed"] for r in records.values()) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", choices=("0", "1", "both"))
    parser.add_argument("--quick", action="store_true",
                        help="one rep, small swarm and engine populations")
    args = parser.parse_args(argv)
    if args.trace is None:
        names = [args.workload] if args.workload else list(WORKLOADS)
        return run_all(args.seed, args.seconds, args.quick, names)
    if args.workload is None:
        parser.error("--trace needs --workload")
    OUT.mkdir(exist_ok=True)
    record = run_workload(
        args.workload, args.seed, args.seconds, args.trace, args.quick)
    print_record(record)
    (OUT / f"detail_{args.workload}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
