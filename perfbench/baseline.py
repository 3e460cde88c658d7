#!/usr/bin/env python3
"""Record the benchmark's baseline: run every workload once per seed with
tracing off and once traced, and write the medians, quartiles and
spreads (IQR / median) of every metric to a JSON file.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/results/baseline.json

Run from the root of a checkout, like run.py. A spread above a third of
the metric's bound is flagged: the benchmark counts as steady when no
end-to-end spread is flagged.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one(workload, seed, seconds, trace):
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    lines = r.stdout.strip().splitlines()
    res = json.loads(lines[-1]) if lines else None
    if r.returncode != 0 or not res or not res["correct"]:
        print(f"{workload} seed {seed}: exit {r.returncode}, result {res}\n{r.stderr[-2000:]}",
              file=sys.stderr, flush=True)
        return None
    return {k: v["value"] for k, v in res["metrics"].items()}


def stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def host():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpus": os.cpu_count(), "cpu": model, "system": platform.platform()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", default=os.path.join(HERE, "results", "baseline.json"))
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seeds_of(a.seeds)
    out = {
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "host": host(),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    steady = True
    for w in names:
        runs = [one(w, s, seconds, 0) for s in seeds]
        if None in runs:
            steady = False
            out["workloads"][w] = {"failed_seeds": [s for s, r in zip(seeds, runs) if r is None]}
            runs = [r for r in runs if r is not None]
            if len(runs) < 2:
                continue
        e2e = {}
        for m in spec["end_to_end"]:
            st = stats([r[m["name"]] for r in runs])
            st["flag"] = st["spread"] >= bounds[m["name"]] / 3
            if st["flag"]:
                steady = False
            e2e[m["name"]] = st
            print(f"{w:8s} {m['name']:18s} median {st['median']:12.5g}  spread {st['spread']:.4f}"
                  f"  bound {bounds[m['name']]}{'  > bound/3' if st['flag'] else ''}", flush=True)
        entry = out["workloads"].setdefault(w, {})
        entry["end_to_end"] = e2e
        layers = one(w, seeds[0], seconds, 1)
        if layers is None:
            steady = False
        else:
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = layers
            print(f"{w:8s} traced: overhead ratio {layers['trace.overhead_ratio']:.3f}", flush=True)
    os.makedirs(os.path.dirname(a.out), exist_ok=True)
    with open(a.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"wrote {a.out}; {'steady' if steady else 'NOT steady'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
