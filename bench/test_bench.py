"""Tests of the benchmark itself; run from the repository root with

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

They take about a minute: the traced Boros-Moll pass reaches m near 512, and
the integral workload's near-boundary grid is checked point by point.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_package()

import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# Counts and other values that depend only on the inputs, never on timing.
TIMING_FREE = (".calls", ".fails", ".na", ".inner_steps", ".out_bits_max",
               ".oracle_mismatches", ".non_vacuous_frac", ".rel_err_max",
               "missing_spans", "failed_frac")
SMALL_TRACE = {"theorem1": (1, 30), "separation": (3, 10), "boros_moll": (1, 3),
               "integral": (1, 20)}


def _cli(*args: str, cwd: Path = BENCH.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMALL_TRACE))
def test_traced_counts_repeat_exactly(name):
    workload = workloads.WORKLOADS[name]
    first, second = (run.traced_run(workload, 7, *SMALL_TRACE[name]) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    fixed = [k for k in first["metrics"] if k.endswith(TIMING_FREE)]
    assert {k: first["metrics"][k] for k in fixed} == {k: second["metrics"][k] for k in fixed}
    assert first["metrics"]["trace.missing_spans"]["value"] == 0
    shift_calls = first["metrics"]["poly_ops.shift.calls"]["value"]
    assert (shift_calls == 0) == (name == "separation")


def test_inputs_follow_the_seed():
    for workload in workloads.WORKLOADS.values():
        a, b, c = (workloads.cycle_inputs(workload, seed, 0, workload.size) for seed in (1, 1, 2))
        assert a == b != c


def test_integral_near_grid_passes():
    # The timed integral workload draws its near-boundary inputs from this
    # grid; a failing op there would make its figures depend on the seed.
    integral = workloads.WORKLOADS["integral"]
    failed = {(k, m): dict(outcome.reasons)
              for k in range(integral.NEAR_X) for m in range(integral.NEAR_M)
              for _, outcome in [workloads.run_call(integral, (integral.near_x(k), m))]
              if outcome.failed}
    assert failed == {}


@pytest.mark.parametrize("op, reason", [
    ((-1.0 + 10.0 ** -6, 54), "OverflowError"),
    ((-1.0 + 10.0 ** -6, 57), "ZeroDivisionError"),
    ((-1.0 + 10.0 ** -5.956, 53), "tolerance_miss"),
])
def test_integral_failures_are_counted_not_raised(op, reason):
    # Known failures of the quadrature near x = -1, outside the timed inputs.
    _, outcome = workloads.run_call(workloads.WORKLOADS["integral"], op)
    assert (outcome.ops, outcome.failed, outcome.wrong) == (1, 1, False)
    assert dict(outcome.reasons) == {reason: 1}


def test_untraced_run_prints_every_end_to_end_metric():
    proc = _cli("--workload", "separation", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_fails_without_package_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _cli("--workload", "theorem1", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
