"""The FACT-loop benchmark: one workload, one run, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload audit_cold --seed 1 --seconds 18 \\
        --trace 0

Workloads: ``audit_cold``, ``audit_sharded`` and ``serve_release`` (see
``perfbench/README.md``).  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones.  Human-readable lines come first; the
last line of standard output is the result::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

The benchmark runs the ``repro`` package from the checkout's ``src/``;
without it, it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("audit_cold", "audit_sharded", "serve_release")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    # The package reads these to pick stores and fan-out; the benchmark
    # passes both explicitly.
    os.environ.pop("REPRO_STORE", None)
    os.environ.pop("REPRO_N_JOBS", None)

    from perfbench import bench
    from perfbench.workloads import WORK_DIR, WORKLOADS, Tally

    workload = WORKLOADS[args.workload]()
    tally = Tally()
    try:
        metrics, summary = bench.measure(workload, args.seed, args.seconds,
                                         trace=bool(args.trace), tally=tally)
    finally:
        try:
            os.rmdir(WORK_DIR)  # each pass removes its own store
        except OSError:
            pass
    units = {name: unit for name, unit, _ in
             (bench.PER_LAYER if args.trace else bench.END_TO_END)}
    result = bench.report(args.workload, args.seed, metrics, units, summary,
                          tally)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
