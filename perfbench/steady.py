"""Steadiness of the benchmark on this host.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workloads serve_mix solve_iter train \\
        --runs 10 --drift-seconds 90 --out steady.json

Runs each workload ``--runs`` times with seeds 1..N, each run as long
as ``run_seconds`` in ``BENCHMARK.json``, then prints for
every end-to-end metric its median, quartiles, max/min ratio and the
quartile spread as a share of the median (the figure the bounds in
``BENCHMARK.json`` are checked against).  It also times a fixed
128x128 matmul loop for ``--drift-seconds`` and reports the coefficient
of variation of its speed over 0.5 s, 10 s and 20 s windows: the drift
the host itself imposes on any timed phase.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import common

os.environ.update(common.PINNED_ENV)


def run_once(workload: str, seed: int, seconds: int):
    """One untraced benchmark run in a fresh process; its result line."""
    done = subprocess.run(
        [sys.executable, str(common.ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        cwd=common.ROOT, env=common.pinned_env(), capture_output=True,
        text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values):
    """median, quartiles, max/min and quartile spread / median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med, "q1": q1, "q3": q3,
        "max_over_min": max(values) / min(values),
        "spread": (q3 - q1) / med,
    }


def drift(seconds: float):
    """CV of a fixed matmul loop's speed over three window lengths."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((128, 128))
    b = rng.standard_normal((128, 128))
    stamps = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for _ in range(50):
            a @ b
        stamps.append(time.perf_counter())
    result = {"seconds": seconds}
    for window in (0.5, 10.0, 20.0):
        rates, count, edge = [], 0, start + window
        for stamp in stamps:
            count += 50
            if stamp >= edge:
                rates.append(count / window)
                count, edge = 0, edge + window
        if len(rates) >= 2:
            result[f"cv_{window:g}s"] = (statistics.pstdev(rates)
                                         / statistics.mean(rates))
    return result


def main(argv=None) -> int:
    """Run the workloads repeatedly and print their spread."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=["serve_mix", "solve_iter", "train"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--drift-seconds", type=float, default=90.0)
    parser.add_argument("--out", default=None,
                        help="also write the figures as JSON to this path")
    args = parser.parse_args(argv)

    import numpy as np
    import scipy

    with open(common.ROOT / "BENCHMARK.json") as config:
        seconds = json.load(config)["run_seconds"]
    record = {
        "host": {
            "cores": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads": common.PINNED_ENV,
        },
        "seconds": seconds,
        "workloads": {},
    }
    for workload in args.workloads:
        results = [run_once(workload, seed, seconds)
                   for seed in range(1, args.runs + 1)]
        failed = [r["failed"] / r["attempted"] for r in results]
        table = {name: summary([r["metrics"][name]["value"]
                                for r in results])
                 for name in common.END_TO_END_UNITS}
        record["workloads"][workload] = {
            "metrics": table,
            "runs": {name: [r["metrics"][name]["value"] for r in results]
                     for name in common.END_TO_END_UNITS},
            "correct": all(r["correct"] for r in results),
            "failed_share": sorted(set(failed)),
        }
        print(f"{workload}: {args.runs} runs of {seconds} s, correct "
              f"{record['workloads'][workload]['correct']}, failed share "
              f"{sorted(set(failed))}")
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'max/min':>9}{'spread':>8}")
        for name, row in table.items():
            print(f"  {name:<16}{row['median']:>12.4f}{row['q1']:>12.4f}"
                  f"{row['q3']:>12.4f}{row['max_over_min']:>9.3f}"
                  f"{row['spread']:>8.3f}")
        for name, values in record["workloads"][workload]["runs"].items():
            print(f"  {name} runs: " + " ".join(f"{v:.4g}" for v in values))
    if args.drift_seconds > 0:
        record["drift"] = drift(args.drift_seconds)
        print("matmul drift: " + ", ".join(
            f"{k} {v:.4f}" for k, v in record["drift"].items()))
    if args.out:
        with open(args.out, "w") as out:
            json.dump(record, out, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
