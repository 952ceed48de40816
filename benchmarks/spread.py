#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's quartiles.

    python3 benchmarks/spread.py --workload ottrans-moons --seeds 1 2 3 4 5 --seconds 30

For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), and the spread: the distance
between the quartiles as a share of the median.  Runs are sequential, one
process at a time, so they do not compete for the CPU.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect ({result['failed']} of {result['attempted']} failed)")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        if args.trace == 0:
            print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                  flush=True)

    print(f"{'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], None, xs[0])
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:<44} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
