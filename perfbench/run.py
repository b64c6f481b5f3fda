"""Run one eitrev benchmark workload and print its metrics.

    python3 perfbench/run.py --workload c1-study --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. The exit code
is 1 when the outputs fail their checks.
"""

import os

# Pinned before numpy loads its BLAS: the stored reference outputs hold at one
# BLAS thread only.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import bench  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=bench.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report = bench.run(bench.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for line in report.lines:
        print(line)
    print(json.dumps(report.result), flush=True)
    return 0 if report.result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
