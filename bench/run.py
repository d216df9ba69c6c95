#!/usr/bin/env python3
"""Benchmark of mpsl: three workloads timed closed-loop, plus a traced run.

    python3 bench/run.py --workload desk|per_item|eval_robust --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout. It caps the BLAS threads at the usable
CPU count (or lower, if the environment already asks for fewer) before numpy
is imported, and runs mpsl from the checkout's own ``src`` directory. The
last line of standard output is the JSON result; see bench/README.md.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "MPSL_THREADS")


def cap_threads() -> int:
    cap = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            cap = min(cap, int(os.environ[var]))
        except (KeyError, ValueError):
            pass
    cap = max(cap, 1)
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def main() -> int:
    cap_threads()
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import mpsl
    except ImportError as err:
        print(f"error: cannot import mpsl from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    source = Path(mpsl.__file__ or "").resolve().parent
    if source != (ROOT / "src" / "mpsl").resolve():
        print(f"error: mpsl was imported from {source}, not from this checkout", file=sys.stderr)
        return 2
    import harness

    return harness.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
