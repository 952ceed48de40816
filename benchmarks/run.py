#!/usr/bin/env python3
"""otmap benchmark: three paper workflows, end to end and per layer.

Run from the repository root:

    python3 benchmarks/run.py --workload otgen-moons --seed 1 --seconds 30 --trace 0

Each run is one process, closed loop, one client.  It fixes the BLAS/OpenMP
thread count before NumPy loads, imports ``otmap`` from ``src/``, pins
itself to one CPU (``harness.pin_cpu``), warms up on a tiny instance, then
runs the whole workflow (set-up, train, evaluate) on independent instances
drawn from the seed for as many whole iterations as fit in ``--seconds``
(at least ``QUALITY_INSTANCES``).  Each iteration repeats its set-up for
``SETUP_WINDOW_S``.  Times are medians over the iterations (``setup_s``
over every set-up call); the final loss is the mean over the first
``QUALITY_INSTANCES`` instances, so it depends on the seed alone.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics of the
traced ones, with the tracing overhead as the difference between the two.
``--smoke`` runs the same code at tiny sizes in about a second.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the machine and a readable table.  An iteration fails when a training
loss or the divergence is not finite or, when traced, when a solve returns
a non-permutation or a worse cost than the reference solver, or when its
results differ from the untraced iteration on the same instance (they must
repeat exactly).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One BLAS thread, set before NumPy loads: results then repeat bit for bit
# (the autoencoder's loss differs between 1 and 2 OpenBLAS threads), and the
# process fits on the one CPU it pins itself to.
BLAS_THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "otmap" / "__init__.py").is_file():
        print(f"error: no otmap package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import otmap

    if Path(otmap.__file__).resolve().parent != (SRC / "otmap").resolve():
        print(f"error: imported otmap from {otmap.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        lines, result = harness.report(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.smoke,
            {"blas_threads": BLAS_THREADS},
        )
    except harness.GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
