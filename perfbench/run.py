"""Benchmark entry point, run from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under test is imported from ``src/`` next to this directory;
without it the run exits with status 2 and prints no result.

BLAS runs on one thread (as set here, before NumPy loads, and inherited
by pool workers and set-up probes): the benchmark times CPU seconds, and
idle BLAS helper threads spin, adding CPU time that depends on how busy
the host is rather than on the work done.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root), str(root / "src")]
    try:
        from perfbench.bench import main
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {root / 'src'}: "
              f"{exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
