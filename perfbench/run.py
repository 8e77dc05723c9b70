#!/usr/bin/env python3
"""The repository's benchmark: `batch`, `stream` and `serve` workloads.

Run from the repository root::

    python3 perfbench/run.py --workload batch --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` makes a separate traced run and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the workload's own figures under their descriptive names, the
correctness checks that ran, and the run metadata (git sha or source
digest, nproc, Python, numpy, seed).  Any failed correctness check exits
with code 1.  See NOTES.md for what
each metric means on each workload.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("batch", "stream", "serve")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Keys-for-graphs benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="smallest inputs (for the smoke test)"
    )
    parser.add_argument(
        "--workdir",
        default=None,
        help="scratch directory (default: .perfbench_work in the checkout)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import common
    import tracing

    workdir = Path(args.workdir or ROOT / ".perfbench_work") / f"{args.workload}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
    module = __import__(args.workload)
    try:
        outcome = module.run(args, tracer, workdir)
        outcome.detail["run"] = common.metadata(args.workload, args.seed, args.seconds, bool(args.trace))
        if args.trace:
            tracer.write_chrome_trace(
                workdir.parent / f"trace-{args.workload}-{args.seed}.json"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        for name in common.PER_LAYER:  # layers that did no work on this workload
            outcome.metrics.setdefault(name, 0.0)
    common.emit(outcome, common.PER_LAYER if args.trace else common.END_TO_END)
    if not outcome.correct:
        print(f"FAIL: {outcome.check_failures}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
