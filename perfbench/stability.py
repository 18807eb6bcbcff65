"""Run one workload N times and print each metric's spread.

Usage (from the root of a source checkout)::

    python3 perfbench/stability.py --workload zoo-cold --runs 10 --seed 1

Each run is an untraced full run of ``run_seconds`` (BENCHMARK.json) with
its own seed (``--seed``, ``--seed``+1, ...).  Before each run a fixed pure-Python loop
is timed in a fresh process: if the calibration loop spreads as much as a
metric, the host drifted, not the program.

For every metric the table shows the median, the first and third quartile
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median,
the figure each bound in BENCHMARK.json is compared against.  The raw runs
are written to ``perfbench/.out/stability-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

#: Fixed pure-Python work, about a second on a 2020s x86 core.
CALIBRATION = (
    "import time\n"
    "t = time.perf_counter()\n"
    "acc = 0\n"
    "for i in range(6_000_000):\n"
    "    acc = (acc * 31 + i) % 1_000_003\n"
    "print(time.perf_counter() - t)\n"
)


def calibrate() -> float:
    done = subprocess.run([sys.executable, "-c", CALIBRATION],
                          capture_output=True, text=True, check=True)
    return float(done.stdout.strip())


def run_once(workload: str, seed: int, seconds: float) -> Dict:
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"run failed ({done.returncode}):\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def spread(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        seconds = json.load(f)["run_seconds"]

    runs, calibrations = [], []
    for i in range(args.runs):
        calibrations.append(calibrate())
        result = run_once(args.workload, args.seed + i, seconds)
        runs.append(result)
        print(f"run {i + 1}/{args.runs} seed {args.seed + i}: "
              f"correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={result['wall_s']:.1f}s "
              f"calibration={calibrations[-1]:.3f}s", flush=True)

    rows = {"calibration_s": spread(calibrations),
            "wall_s": spread([r["wall_s"] for r in runs])}
    for name in runs[0]["metrics"]:
        rows[name] = spread([r["metrics"][name]["value"] for r in runs])
    print(f"\n{args.workload}: {args.runs} runs, {seconds:g}s each")
    print(f"{'metric':<32}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}")
    for name, row in rows.items():
        print(f"{name:<32}{row['median']:>14.6g}{row['q1']:>14.6g}"
              f"{row['q3']:>14.6g}{row['spread']:>9.3f}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}")

    out_dir = os.path.join(BENCH_DIR, ".out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"stability-{args.workload}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seconds": seconds,
                   "calibration_s": calibrations, "runs": runs,
                   "summary": rows}, handle, indent=1)
    print(f"raw runs: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
