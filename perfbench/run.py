#!/usr/bin/env python3
"""Reachability benchmark: run one named workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bfv-control --seed 1 --seconds 10 --trace 0

Workloads: ``bfv-control``, ``chi-orders`` and ``serve-mixed``, the ones
``BENCHMARK.json`` lists, and ``batch-ladder``, which it does not list
because its figures are not steady enough for a bound (see
``perfbench/README.md``).  The last line of standard output is one JSON
object::

    {"correct": true, "attempted": 4, "failed": 0,
     "metrics": {"wall_s": {"value": 38.2, "unit": "s"}, ...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``wall_s``, ``op_p50_ms``, ``peak_rss_mb``); with ``--trace 1`` they are
the per-layer ledger, and the kernel x layer matrix is printed above
the JSON line.  Correctness violations go to standard error and turn
``correct`` false.  The program is imported from ``src/`` of the same
checkout; without it the command exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch output (server caches, logs) of running workloads.
OUT_DIR = os.path.join(ROOT, "perfbench-out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from common import Context
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            "perfbench: unknown workload %r (one of %s)"
            % (args.workload, ", ".join(sorted(WORKLOADS))),
            file=sys.stderr,
        )
        return 2
    workdir = os.path.join(OUT_DIR, "%s-%d" % (args.workload, os.getpid()))
    # Temporary files of the program (supervisor result files) and of the
    # server it starts stay inside the checkout as well.
    scratch = os.path.join(workdir, "tmp")
    os.makedirs(scratch)
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch
    try:
        outcome = WORKLOADS[args.workload](
            Context(
                seed=args.seed,
                seconds=args.seconds,
                trace=bool(args.trace),
                workdir=workdir,
            )
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(OUT_DIR)
        except OSError:
            pass  # another run still uses it
    for problem in outcome.problems:
        print("INCORRECT: %s" % problem, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not outcome.problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
