"""Benchmark for ratioshift: seeded workloads through the public API.

Run from the repository root:

    python3 bench/run.py --workload theorem1 --seed 1 --seconds 15 --trace 0

``--trace 0`` runs whole cycles of the workload's calls until ``--seconds``
of call time have passed (and at least 100 latency samples exist), checks
every output outside the timed calls, and reports the end-to-end metrics.
``--trace 1`` runs a fixed, seed-determined set of calls twice, untraced and
then with spans around every layer call, and reports the per-layer metrics;
its counts repeat exactly for a fixed seed. The spans are written to
``bench/out/``. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_SAMPLES = 100  # so that at least 10 latency samples lie beyond p90
QUANTILE_WINDOW = 0.05
SETUP_REPEATS = 15

# A fresh interpreter imports the CLI, which pulls in every module, and
# builds the first cycle of the workload's inputs; it reports the time that
# took from its first statement, and then its reference time, on its core.
SETUP_CODE = (
    "import time; start = time.perf_counter()\n"
    "import sys; sys.path[:0] = sys.argv[1:3]\n"
    "import ratioshift.cli, workloads\n"
    "w = workloads.WORKLOADS[sys.argv[3]]\n"
    "workloads.cycle_inputs(w, int(sys.argv[4]), 0, w.size)\n"
    "took = time.perf_counter() - start\n"
    "print(took, sorted(workloads.calibrate.reference() for _ in range(3))[1])\n"
)


def import_package() -> None:
    """Import ratioshift from this checkout's sources, never from elsewhere."""
    if not (SRC / "ratioshift" / "__init__.py").is_file():
        sys.exit(f"bench: no package sources at {SRC / 'ratioshift'}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import ratioshift

    if Path(ratioshift.__file__).resolve().parent != SRC / "ratioshift":
        sys.exit(f"bench: imported ratioshift from {ratioshift.__file__}, not {SRC}")


def setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """Median set-up time of fresh interpreters, calibrated and as measured."""
    from calibrate import NOMINAL_S

    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), name, str(seed)]
    # Bytecode caches go next to the sources, as for an installed package.
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    subprocess.run(cmd, check=True, timeout=120, capture_output=True, env=env)  # writes them
    calibrated, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True,
                              env=env)
        took, ref = map(float, proc.stdout.split())
        raw.append(took)
        calibrated.append(took * NOMINAL_S / ref)
    return statistics.median(calibrated), statistics.median(raw)


def quantile(samples: list[float], q: float) -> float:
    """The q-quantile, smoothed: the mean of the order statistics whose rank
    lies within QUANTILE_WINDOW of q. One noisy sample cannot move it."""
    ranked = sorted(samples)
    n = len(ranked)
    lo = max(0, math.floor((q - QUANTILE_WINDOW) * n))
    hi = min(n, math.ceil((q + QUANTILE_WINDOW) * n))
    return statistics.fmean(ranked[lo:hi])


def timed_run(workload, seed: int, seconds: float) -> dict:
    from workloads import Tally, cycle_inputs, run_calls

    setup_s, setup_raw_s = setup_seconds(workload.name, seed)
    tally, rates, index = Tally(), [], 0
    while tally.wall_s < seconds or len(tally.latencies_ms) < MIN_SAMPLES:
        busy, passed = tally.busy_s, tally.passed
        run_calls(workload, cycle_inputs(workload, seed, index, workload.size), tally)
        rates.append((tally.passed - passed) / (tally.busy_s - busy))
        index += 1
    latencies = tally.latencies_ms
    print(f"{workload.name}: {tally.attempted} ops in {index} cycles, "
          f"{len(latencies)} latency samples, failures {dict(tally.reasons)}; "
          f"calls took {tally.wall_s:.2f} s as measured, {tally.busy_s:.2f} s calibrated; "
          f"set-up took {setup_raw_s:.4f} s as measured")
    if quantile(latencies, 0.9) == math.inf:
        sys.exit("bench: over 5% of the calls failed, so the p90 latency is unbounded")
    metrics = {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_ms_p50": (quantile(latencies, 0.5), "ms"),
        "op_ms_p90": (quantile(latencies, 0.9), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return result(tally.correct(workload), tally, metrics)


def traced_run(workload, seed: int, cycles: int, size: int) -> dict:
    """Untraced then traced pass over the same calls; per-layer metrics."""
    from layers import WRAPS, layer_metrics
    from spans import Tracer
    from workloads import Tally, cycle_inputs, run_calls

    ops = [op for index in range(cycles) for op in cycle_inputs(workload, seed, index, size)]
    untraced, tally, tracer = Tally(), Tally(), Tracer()
    run_calls(workload, ops, untraced)
    with tracer.installed(WRAPS):
        run_calls(workload, ops, tally, on_call=lambda index: setattr(tracer, "op", index))
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{workload.name}-{seed}.jsonl")
    metrics, mismatches = layer_metrics(tracer, tally.factors)
    metrics["trace_overhead_frac"] = ((tally.busy_s - untraced.busy_s) / untraced.busy_s, "ratio")
    metrics["failed_frac"] = (tally.failed / tally.attempted, "ratio")
    print(f"{workload.name} traced: {tally.attempted} ops, {len(tracer.spans)} spans, "
          f"missing spans {tracer.missing}, shift oracle mismatches {mismatches}, "
          f"failures {dict(tally.reasons)}")
    return result(tally.correct(workload) and mismatches == 0, tally, metrics)


def result(correct: bool, tally, metrics: dict) -> dict:
    return {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.trace:
        doc = traced_run(workload, args.seed, *workload.trace)
    else:
        doc = timed_run(workload, args.seed, args.seconds)
    print(json.dumps(doc, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
