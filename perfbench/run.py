"""Benchmark entry point: one workload, one run, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/METRICS.md`` for every metric's definition):

* ``reproduce``   -- fresh ``run all`` processes, warm rounds, cache reloads;
* ``serve-hot``   -- a ``repro cluster`` answering zipf reads from memory;
* ``serve-churn`` -- the same with one op in eight an invalidate + recompute.

With ``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Lines before it
print every metric with its unit, sample count and raw value, and the
raw host-speed probe series.  The run fails (exit 2, no result line)
when the program is missing from the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import HERE, Report, leftover_program_processes  # noqa: E402

WORKLOADS = ("reproduce", "serve-hot", "serve-churn")


def _benchmark_spec() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "cli.py")):
        print("error: run from a checkout root holding src/repro",
              file=sys.stderr)
        return 2
    # The serving clients import the program's client; the probe's
    # inputs are allocated before that import (see serve.run).
    sys.path.insert(1, os.path.join(os.getcwd(), "src"))
    spec = _benchmark_spec()
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    report = Report(args.workload)
    leftover = leftover_program_processes()
    for pid in leftover:
        report.op(False, f"program process {pid} left over before the run")
    tmp_root = os.path.join(os.getcwd(), ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        if args.workload == "reproduce":
            import reproduce
            reproduce.run(report, args.seconds, bool(args.trace), tmp)
        else:
            import serve
            serve.run(report, args.workload, args.seed, args.seconds,
                      bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for pid in leftover_program_processes():
        report.op(False, f"program process {pid} left over after the run")
    if args.trace:
        import layers
        layers.fill(report, args.workload, metrics)
    report.emit([m["name"] for m in metrics])
    return 0


if __name__ == "__main__":
    sys.exit(main())
