"""Benchmark of the vconv flow: gen-corpus, analyze, train, convert, evaluate.

    python3 perfbench/run.py --workload flow_clean --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; vconv is imported from `src/`.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced round with --trace 1.  Temporary outputs go
to a `.perfbench-*` directory in the checkout, removed when the run ends.
"""

import os

# one BLAS thread: with two, the first train call pays a thread start-up
# that later calls do not, and the second core stays free for the host
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import time  # noqa: E402

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import bench  # noqa: E402  (imports numpy, scipy and vconv)
from workloads import WORKLOADS  # noqa: E402

IMPORTS_S = time.perf_counter() - _START
ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    print("env " + json.dumps(bench.environment(), sort_keys=True))
    print(f"workload {workload}")
    # a terminated run still removes its temporary directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result = bench.run(workload, args.seed, args.seconds, bool(args.trace),
                           tmp, IMPORTS_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
