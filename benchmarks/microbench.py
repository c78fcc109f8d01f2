"""The two perf gates the end-to-end benchmark cannot express.

``benchmarks/e2e/`` (``BENCHMARK.json``) is the repo's performance gate:
goodput, wire efficiency, membership rates and the per-layer ledger are
measured there, parent against change.  Two properties are ratios
*inside* one run, which a parent/change comparison of end-to-end numbers
does not show, so they keep a harness of their own:

* **obs_overhead** — the slot loop and the sender enqueue path with and
  without ``repro.obs`` instrumentation attached, interleaved A/B slices
  in one process; observability must stay close to free on the hot path
  (``check_bench.py`` holds both ratios to a floor);
* **scaling** — membership ops/s on the coordination server and
  slot-loop rates at populations 100 / 1k / 5k / 10k; the gate requires
  the server rate to degrade sublinearly in n (the indexed engine state's
  acceptance curve — ``membership_engine`` in the e2e benchmark runs at
  one population and cannot see the slope).

Usage::

    PYTHONPATH=src python benchmarks/microbench.py --quick    # CI
    PYTHONPATH=src python benchmarks/microbench.py            # full run
    python benchmarks/check_bench.py bench_smoke.json

Output schema: ``{bench_name: {metric: number}}``.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.coding.generation import GenerationParams
from repro.core.overlay import OverlayNetwork
from repro.sim.links import LossModel
from repro.sim.runtime import rlnc

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "bench_smoke.json"


def bench_obs_overhead(quick: bool, trials: int = 5) -> dict[str, float]:
    """Instrumented vs uninstrumented hot paths, same-run A/B.

    Two arms, each measured in ``trials`` interleaved slices with the
    median ratio reported (so load drift on a shared machine cannot
    penalise one arm):

    * ``relative_throughput_slot_loop`` — a seeded E7-style broadcast
      run with ``SlottedRuntime.attach_obs`` (slot-timing histogram +
      three counters per slot) vs the identical run unattached.
    * ``relative_throughput_sender`` — ``PacketSender.enqueue_frame``
      under constant backpressure eviction with the per-node logger
      wired (the instrumented drop path) vs a bare sender.

    Both ratios must stay >= 0.98: the observability layer's hot-path
    budget is <= 2%.
    """
    from statistics import median

    from repro.net.streams import PacketSender
    from repro.obs import Registry

    k, d, n = (4, 2, 8) if quick else (8, 2, 24)
    generation_size, payload_size = (8, 64) if quick else (16, 64)
    rng = np.random.default_rng(404)
    content = bytes(
        rng.integers(0, 256, size=generation_size * payload_size, dtype=np.uint8)
    )
    budget = 200 if quick else 400

    runs_per_slice = 12 if quick else 6

    def _slot_run(instrumented: bool) -> float:
        # One seeded run is a few ms; aggregate a batch per slice so the
        # ratio measures instrumentation, not scheduler noise.
        slots, elapsed = 0, 0.0
        for _ in range(runs_per_slice):
            net = OverlayNetwork(k=k, d=d, seed=404)
            net.grow(n)
            sim = rlnc(
                net, content, GenerationParams(generation_size, payload_size),
                seed=404, loss=LossModel(0.05),
            )
            if instrumented:
                sim.attach_obs(Registry("bench"))
            start = time.perf_counter()
            report = sim.run_until_complete(max_slots=budget)
            elapsed += time.perf_counter() - start
            assert report.completion_fraction == 1.0
            slots += report.slots
        return slots / elapsed

    class _NullWriter:
        """Satisfies PacketSender's writer slot; enqueue never touches it."""

        def write(self, data) -> None:  # pragma: no cover - not reached
            raise AssertionError("enqueue path must not write")

    import logging

    frame = b"\x00" * (5 + 4 + generation_size + payload_size)
    enqueues = 20_000 if quick else 100_000
    # Deployment default: the logger is wired but DEBUG is off, so the
    # per-eviction cost is the None check plus an isEnabledFor bailout.
    # (With --log-level debug each drop builds a LogRecord — that is a
    # diagnostic mode, not the steady-state budget this bench gates.)
    silent = logging.getLogger("repro.bench.obs_overhead")
    silent.addHandler(logging.NullHandler())
    silent.propagate = False
    silent.setLevel(logging.WARNING)

    def _sender_run(instrumented: bool) -> float:
        sender = PacketSender(
            _NullWriter(), column=0, sender_id=1, idle_packet=lambda: None,
            limit=8,
            logger=silent if instrumented else None,
        )
        start = time.perf_counter()
        for _ in range(enqueues):
            sender.enqueue_frame(frame)
        elapsed = time.perf_counter() - start
        assert sender.stats.dropped == enqueues - 8
        sender.close()
        return enqueues / elapsed

    def _ab(run) -> tuple[float, float, float]:
        instrumented_rates, bare_rates, ratios = [], [], []
        run(True), run(False)  # warm both arms
        for _ in range(trials):
            instrumented_rates.append(run(True))
            bare_rates.append(run(False))
            ratios.append(instrumented_rates[-1] / bare_rates[-1])
        return median(instrumented_rates), median(bare_rates), median(ratios)

    metrics: dict[str, float] = {}
    (metrics["slots_per_s"], metrics["slots_per_s_bare"],
     metrics["relative_throughput_slot_loop"]) = _ab(_slot_run)
    (metrics["enqueues_per_s"], metrics["enqueues_per_s_bare"],
     metrics["relative_throughput_sender"]) = _ab(_sender_run)
    return metrics


#: Populations the scaling section sweeps (the PR-9 acceptance curve).
SCALING_POPULATIONS = (100, 1000, 5000, 10000)


def bench_scaling(quick: bool) -> dict[str, float]:
    """Server-ops/s and slot-loop rates at n in {100, 1k, 5k, 10k}.

    The membership loop exercises exactly the paths the indexed engine
    state rewrote — fail detection, repair splices, uniform-insertion
    joins, graceful leaves — at a *held* population (each fail+repair
    splice is balanced by a join, so the op mix runs at size n rather
    than draining the registry).  With the old linear scans the per-op
    cost grew O(n) and ops/s at 10k sat ~100x below ops/s at 100; the
    indexed structures hold the drop to a small factor, which is what
    ``check_bench.py`` gates (``server_ops_per_s_n10000`` within 10x of
    ``server_ops_per_s_n100``).

    The slot loop measures the vectorised data plane at the same
    populations; ``node_slots_per_s`` (slots/s x n) is the
    population-normalised rate and should hold roughly flat.
    """
    cycles = 60 if quick else 300
    slot_budget = 4 if quick else 8
    metrics: dict[str, float] = {}
    for n in SCALING_POPULATIONS:
        net = OverlayNetwork(k=32, d=2, seed=909)
        net.grow(n)
        ops = 0
        start = time.perf_counter()
        for _ in range(cycles):
            victim = net.random_working_node()
            net.fail(victim)
            net.repair(victim)
            net.join()
            net.leave(net.random_working_node())
            net.join()
            ops += 6
        elapsed = time.perf_counter() - start
        metrics[f"server_ops_per_s_n{n}"] = ops / elapsed if elapsed else 0.0
        rng = np.random.default_rng(909)
        content = bytes(rng.integers(0, 256, size=4 * 16, dtype=np.uint8))
        sim = rlnc(
            net, content, GenerationParams(4, 16), seed=909,
            loss=LossModel(0.0),
        )
        start = time.perf_counter()
        report = sim.run_until_complete(max_slots=slot_budget)
        elapsed = time.perf_counter() - start
        slot_rate = report.slots / elapsed if elapsed else 0.0
        metrics[f"slots_per_s_n{n}"] = slot_rate
        metrics[f"node_slots_per_s_n{n}"] = slot_rate * n
    return metrics


def run(quick: bool) -> dict[str, dict[str, float]]:
    return {
        "obs_overhead": bench_obs_overhead(quick),
        "scaling": bench_scaling(quick),
    }


def validate_schema(results: dict) -> None:
    """Assert the stable ``{bench_name: {metric: number}}`` shape."""
    assert isinstance(results, dict) and results
    for bench_name, metrics in results.items():
        assert isinstance(bench_name, str)
        assert isinstance(metrics, dict) and metrics, bench_name
        for metric, value in metrics.items():
            assert isinstance(metric, str), (bench_name, metric)
            assert isinstance(value, (int, float)), (bench_name, metric, value)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes/budgets for CI smoke runs")
    args = parser.parse_args()

    results = run(quick=args.quick)
    validate_schema(results)
    args.out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")

    print(f"wrote {args.out}")
    for bench_name, metrics in sorted(results.items()):
        for metric, value in sorted(metrics.items()):
            print(f"  {bench_name}.{metric}: {value:,.1f}")


if __name__ == "__main__":
    main()
