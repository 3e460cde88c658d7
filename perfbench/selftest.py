"""The benchmark's own test (`run.py --selftest`):

1. equal seeds give byte-identical inputs (every PQR file, the rescore
   key stream, the batch manifest), and another seed gives other bytes;
2. the naive oracle of a posed file equals that of its canonical shape,
   which is what lets the oracle be computed once per shape;
3. the counts later issues may cite as exact repeat exactly between two
   runs of the same seed: Born/E_pol pair, far and node counts, plan
   entry counts, the rescore and batch hit/patch/miss counts and the
   relax patched/rebuilt counts;
4. every rescore request class takes the cache path it stands for
   (hot poses hit, jittered copies are patched).
"""

import filecmp
import os
import shutil

import inputs
import polar
import traced
import workloads
from polar import log

STEPS = 40  # rescore steps per count run


def tree(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for n in names:
            p = os.path.join(dirpath, n)
            out[os.path.relpath(p, root)] = p
    return out


def same_bytes(a, b):
    ta, tb = tree(a), tree(b)
    return ta.keys() == tb.keys() and all(
        filecmp.cmp(ta[k], tb[k], shallow=False) for k in ta
    )


def make(workload, root, seed):
    inp = inputs.MAKE[workload](root, seed)
    if workload == "rescore":
        stream = inp.stream_for(0)
        inp.steps = [
            [(kind, os.path.basename(p)) for kind, p in stream.step()]
            for _ in range(STEPS)
        ]
    return inp


def check_inputs(work, seed):
    ok = True
    for w in inputs.WORKLOADS:
        a = make(w, os.path.join(work, f"{w}-a"), seed)
        b = make(w, os.path.join(work, f"{w}-b"), seed)
        c = make(w, os.path.join(work, f"{w}-c"), seed + 1)
        same = same_bytes(a.root, b.root) and getattr(a, "steps", None) == getattr(b, "steps", None)
        differs = not same_bytes(a.root, c.root)
        log(f"inputs {w:8s}: equal seeds byte-identical {same}, next seed differs {differs}")
        ok &= same and differs
    return ok


def check_oracle_invariance(polar_bin, work, seed):
    """Naive E_pol of posed copies against the canonical shape."""
    oracle = polar.Oracle(polar_bin)
    ok = True
    cases = [
        (inputs.globule(inputs.ONESHOT_SIZES[0], 1000, "zd00"), "zd00"),
        (inputs.complex_(3000, "cold0").jittered(5000, "cold0_j0"), "cold0_j0"),
    ]
    for mol, label in cases:
        base = oracle.naive_of_file(_write(work, mol, label + "_canon"))
        for k in range(3):
            posed = mol.posed(inputs.Pose(_rng(seed, k)), f"{label}_pose{k}")
            e = oracle.naive_of_file(_write(work, posed, posed.name))
            rel = abs(e - base) / abs(base)
            good = rel < 1e-8  # the CLI prints 4 decimals
            log(f"oracle {label} pose {k}: naive {e:.6f} vs canonical {base:.6f} (rel {rel:.1e}) {good}")
            ok &= good
    return ok


def _rng(seed, k):
    import random
    return random.Random(f"selftest/{seed}/{k}")


def _write(work, mol, name):
    path = os.path.join(work, name + ".pqr")
    with open(path, "wb") as f:
        f.write(mol.pqr())
    return path


def tracer_counts(tracer_bin, work, tag, seed):
    root = os.path.join(work, f"counts-{tag}")
    one = inputs.oneshot(os.path.join(root, "o"), seed)
    res = inputs.rescore(os.path.join(root, "r"), seed)
    bat = inputs.batch(os.path.join(root, "b"), seed)
    small = sorted(one.order, key=lambda p: one.files[p][1])[:3]
    lines = [f"solve {p}" for p in small]
    lines += [f"plan {res.stream_for(0).hot[0][2]}", f"plan {bat.jobs[0]}"]
    script = os.path.join(root, "script.txt")
    with open(script, "w") as f:
        f.write("\n".join(lines) + "\n")
    out = os.path.join(root, "trace.json")
    r = polar.run([tracer_bin, script, out])
    if r.rc != 0:
        raise RuntimeError(f"tracer failed: {r.err}")
    counts = []
    for s in traced.spans_of(out):
        if s["name"] in ("born", "epol", "plan.build", "octree.build", "surface"):
            c = {k: v for k, v in s["counts"].items() if k != "epol_kcal"}
            counts.append((s["name"], sorted(c.items())))
    return counts


def rescore_counts(polar_bin, work, tag, seed):
    stream = inputs.rescore(os.path.join(work, f"rescore-{tag}"), seed).stream_for(0)
    srv, _ = workloads.start_warm_server(polar_bin, stream)
    try:
        rows, _ = workloads.rescore_loop(srv, stream, steps=STEPS)
        report, rc = srv.drain()
    finally:
        srv.kill()
    outcome = [
        (r["kind"], r["reply"].get("status"), r["reply"].get("cache_hit"), r["reply"].get("patched"))
        for r in rows
    ]
    keys = ("cache_hits", "cache_patched", "cache_misses", "cache_evictions", "reconciles")
    return rc, {k: report.get(k) for k in keys}, outcome


def batch_counts(polar_bin, work, tag, seed):
    inp = inputs.batch(os.path.join(work, f"batch-{tag}"), seed)
    r = polar.run([polar_bin, "batch", "--threads", workloads.THREADS, "--profile", "json",
                   "--manifest", inp.manifest])
    rep = r.last_json()
    keys = ("cache_hits", "cache_patched", "cache_misses", "cache_evictions", "failed")
    return r.rc, {k: rep[k] for k in keys}, [(x["name"], x["cache_hit"]) for x in rep["rows"]]


def relax_counts(polar_bin, work, tag, seed):
    inp = inputs.relax(os.path.join(work, f"relax-{tag}"), seed)
    r = polar.run([polar_bin, "minimize", inp.file, "--max-iters", str(inputs.RELAX_ITERS),
                   "--parallel", "--threads", workloads.THREADS, "--profile", "json"])
    rep = r.last_json()
    rows = [(x["patched"], x["rebuilt"], x["reused"], x["energy_evals"]) for x in rep["rows"]]
    return r.rc, {"patched": rep["total_patched"], "rebuilt": rep["total_rebuilt"]}, rows


def check_counts(polar_bin, tracer_bin, work, seed):
    ok = True
    for name, fn, args in (
        ("tracer work/plan", tracer_counts, (tracer_bin,)),
        ("rescore", rescore_counts, (polar_bin,)),
        ("batch", batch_counts, (polar_bin,)),
        ("relax", relax_counts, (polar_bin,)),
    ):
        a = fn(*args, work, "a", seed)
        b = fn(*args, work, "b", seed)
        good = a == b
        summary = a[1] if isinstance(a, tuple) else f"{len(a)} span count sets"
        log(f"counts {name:16s}: repeat exactly {good}; {summary}")
        ok &= good
        if name == "rescore":
            ok &= check_classes(a[2])
    return ok


def check_classes(outcome):
    """Each rescore request class takes the cache path it stands for:
    hot poses hit, jittered copies are patched, cold poses are not
    patched (a server that merges concurrent misses may answer the
    second of a cold pair from the cache)."""
    want = {
        "hot": lambda hit, patched: hit and not patched,
        "patched": lambda hit, patched: patched and not hit,
        "cold": lambda hit, patched: not patched,
    }
    ok = True
    for kind, test in want.items():
        rows = [(hit, patched) for k, _, hit, patched in outcome if k == kind]
        good = sum(1 for hit, patched in rows if test(hit, patched))
        log(f"classes {kind:8s}: {good} of {len(rows)} requests take their cache path")
        ok &= good == len(rows) > 0
    return ok


def main(seed):
    polar_bin, tracer_bin = polar.build(tracer=True)
    work = os.path.abspath(os.path.join(".perfbench_work", f"selftest-{os.getpid()}"))
    os.makedirs(work, exist_ok=True)
    try:
        results = {
            "inputs": check_inputs(work, seed),
            "oracle": check_oracle_invariance(polar_bin, work, seed),
            "counts": check_counts(polar_bin, tracer_bin, work, seed),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for k, v in results.items():
        print(f"selftest {k}: {'ok' if v else 'FAILED'}")
    return 0 if all(results.values()) else 1
