"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-ape-4096 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace 1``
prints the per-layer metrics of a traced run that is first checked to be
bitwise identical to an untraced run of the same seed. The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it record the environment and the sample counts. The exit code
is 0 only when every run passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: BLAS threads per process (at most nproc). One thread keeps every workload
#: single-threaded, so the CPU clock the benchmark reads
#: (``perfbench.workloads.CLOCK``) counts exactly the program's work.
BLAS_THREADS = 1
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def pin_blas_threads() -> None:
    """Set the BLAS thread count; must run before numpy is imported."""
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: the program's sources are missing ({ROOT / 'src' / 'repro'})",
            file=sys.stderr,
        )
        return 2
    pin_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import measure
    from perfbench.environment import describe
    from perfbench.workloads import NAMES

    args = parse_args(argv, NAMES)

    print(json.dumps({"environment": describe()}), flush=True)
    outcome = measure.Outcome()
    run = measure.run_traced if args.trace else measure.run_untraced
    try:
        run(outcome, args.workload, args.seed, args.seconds)
    except Exception:
        # The run's failure is reported, never a pass: it stays counted in
        # attempted without being counted in passed.
        traceback.print_exc(file=sys.stderr)
    failed = outcome.attempted - outcome.passed
    correct = outcome.attempted > 0 and failed == 0
    print(json.dumps({"samples": outcome.samples}), flush=True)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                }
                if correct
                else {},
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
