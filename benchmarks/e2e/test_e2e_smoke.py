"""Smoke test of the e2e benchmark: ``python -m pytest benchmarks/e2e``.

Runs ``--quick`` (one rep, small swarm and engine populations) and checks
the ``result.json`` schema, the metric names ``BENCHMARK.json`` fixes, that
nothing failed and that every ledger sums to its wall time.  Not part of
tier-1 (``testpaths`` stays ``tests``).
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
BROADCAST = {"goodput_MBps", "wire_bytes_per_payload_byte"}
#: The end-to-end metrics each workload measures itself.
NATIVE = {
    "bulk_virtual": BROADCAST,
    "smallgen_virtual": BROADCAST,
    "bulk_live": BROADCAST,
    "swarm_churn": {"join_ops_per_s", "repair_ops_per_s"},
    "membership_engine": {"membership_ops_per_s"},
}
LAYERS = [name[:-len(".self_frac")] for name in PER_LAYER
          if name.endswith(".self_frac")]


def run(*args: str) -> str:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
        capture_output=True, text=True, timeout=280,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture(scope="module")
def result() -> dict:
    run("--quick", "--seed", "3")
    return json.loads((HERE / "out" / "result.json").read_text())


def test_result_schema(result):
    assert result["schema"] == "repro.bench.e2e/1"
    assert result["seed"] == 3 and result["quick"] is True
    for key in ("commit", "nproc", "python", "numpy"):
        assert result[key]
    assert set(result["machine"]) == {
        "machine.xor_GBps", "machine.pycall_Mops", "machine.import_s"}
    assert all(m["value"] > 0 for m in result["machine"].values())
    assert list(result["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    assert set(result["workloads"]) == set(NATIVE)


@pytest.mark.parametrize("name", sorted(NATIVE))
def test_workload_record(result, name):
    record = result["workloads"][name]
    assert record["failed_frac"] == 0 and record["ops_failed"] == 0
    assert record["ops_attempted"] >= 1 and not record["failures"]
    assert set(record["end_to_end"]) == NATIVE[name] | {"setup_s", "peak_rss_MB"}
    for metric in record["end_to_end"].values():
        assert metric["value"] > 0 and metric["n"] == len(metric["values"])
        assert metric["q1"] <= metric["value"] <= metric["q3"]
    layers = record["per_layer"]
    assert list(layers) == PER_LAYER
    fractions = [layers[f"{layer}.self_frac"]["value"] for layer in LAYERS]
    assert min(fractions) >= 0
    assert sum(fractions) == pytest.approx(1.0, abs=1e-6)
    assert sum(
        layers[f"{layer}.self_s"]["value"] for layer in LAYERS
    ) == pytest.approx(layers["trace.wall_s"]["value"], rel=1e-9)
    assert layers["trace.spans"]["value"] > 0
    if name.endswith("_virtual"):
        assert layers["net.streams.dropped"]["value"] == 0
    assert (HERE / "out" / f"trace_{name}.json").is_file()


@pytest.mark.parametrize("trace, names", [("0", END_TO_END), ("1", PER_LAYER)])
def test_result_line(trace, names):
    """The one-workload form ends with the result line the driver reads."""
    line = json.loads(run(
        "--workload", "membership_engine", "--seed", "5", "--seconds", "1",
        "--trace", trace, "--quick",
    ).strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == names
    units = {m["name"]: m["unit"]
             for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, metric in line["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[name]
    if trace == "0":
        assert all(m["value"] > 0 for m in line["metrics"].values())
