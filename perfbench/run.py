"""Benchmark for mvcil, run from the repository root:

    python3 perfbench/run.py --workload pmnist-stream --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py                 # every workload, one process each

It imports mvcil from src/ next to this directory and nothing else; without
that source tree it exits with an error before measuring anything.
"""

import os
import sys

# BLAS reads its thread count once, when numpy loads it: pin it first.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    sys.path.insert(0, SRC)
    import mvcil

    if not os.path.abspath(mvcil.__file__).startswith(SRC + os.sep):
        print(f"mvcil was imported from {mvcil.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import harness

    return harness.main(sys.argv[1:], os.path.abspath(__file__), BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
