#!/usr/bin/env python3
"""perfbench: the repository benchmark.

    python3 perfbench/run.py --workload <oneshot|rescore|batch|relax> \\
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest [--seed <n>]

Run from the root of a checkout. It builds `polar` (and, for
`--trace 1`, the tracer in perfbench/tracer) from source into
$CARGO_TARGET_DIR (default .bench_build), writes the workload's seeded
inputs under .perfbench_work/, measures for --seconds and prints, as
the last stdout line, one JSON object: `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1). It exits 1 if any
answer fails its oracle check or a report check fails. See README.md.
"""

import argparse
import json
import os
import shutil
import sys

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import polar  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402


def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def emit(outcome, table):
    metrics = {}
    for m in table:
        if m["name"] not in outcome.metrics:
            raise SystemExit(f"perfbench: metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": outcome.metrics[m["name"]], "unit": m["unit"]}
    correct = outcome.failed == 0 and not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not os.path.isfile("BENCHMARK.json"):
        raise SystemExit("perfbench: run from the repository root (BENCHMARK.json)")
    if a.selftest:
        import selftest
        return selftest.main(a.seed)
    if not a.workload:
        ap.error("--workload is required")
    if a.seconds is None:
        a.seconds = spec()["run_seconds"]
    table = spec()["per_layer" if a.trace else "end_to_end"]
    polar_bin, tracer_bin = polar.build(tracer=bool(a.trace))
    oracle = polar.Oracle(polar_bin)
    work = os.path.abspath(os.path.join(".perfbench_work", f"{a.workload}-{a.seed}-{os.getpid()}"))
    try:
        inp = inputs.MAKE[a.workload](work, a.seed)
        if a.trace:
            names = [m["name"] for m in table]
            outcome = traced.run(a.workload, polar_bin, tracer_bin, oracle, inp, a.seconds, work, names)
        else:
            outcome = workloads.RUN[a.workload](polar_bin, oracle, inp, a.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return emit(outcome, table)


if __name__ == "__main__":
    sys.exit(main())
