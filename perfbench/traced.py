"""The traced run: the workload once more through the CLI for the
program's own reports (ServeReport, BatchReport, GradientReport, the
serve replies), then an in-process replay of the same inputs by
perfbench/tracer with a span around every public call, from which the
per-layer metrics are derived. Layers a workload does not reach report
0. The replay also runs with span recording off: the ratio of the wall
times with and without spans is `trace.overhead_ratio`."""

import json
import os
import random

import inputs
import polar
import workloads
from polar import log, median

CACHE_MB, WORKERS = 256, 2
RESCORE_REPLAY_MAX = 300  # requests replayed in-process
RELAX_FRAMES = 8
GRAD_CALLS = 5
# Replays with spans off and on, alternating which goes first, so a slow
# spell of the host does not land on one side only; the overhead is the
# median of the pairs' ratios.
TRACE_PAIRS = 3


def spans_of(path):
    with open(path) as f:
        spans = json.load(f)["spans"]
    return self_times(spans)


def self_times(spans):
    child_time = {}
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["dur"]
    # Spans of one thread nest without overlap, so a span's children
    # cover exactly the sum of their durations.
    for s in spans:
        s["self"] = s["dur"] - child_time.get(s["id"], 0.0)
    return spans


class Spans:
    def __init__(self, spans):
        self.all = spans
        self.by = {}
        for s in spans:
            self.by.setdefault(s["name"], []).append(s)

    def of(self, name):
        return self.by.get(name, [])

    def self_s(self, name):
        return sum(s["self"] for s in self.of(name))

    def count(self, name, key):
        return sum(s["counts"].get(key) or 0.0 for s in self.of(name))

    def summary(self):
        out = {}
        for name, ss in sorted(self.by.items()):
            out[name] = {
                "calls": len(ss),
                "total_s": sum(s["dur"] for s in ss),
                "self_s": sum(s["self"] for s in ss),
            }
        return out


def ratio(a, b):
    return a / b if b else 0.0


def script_for(workload, inp, o, work):
    """Tracer script lines: the replay, then the probes."""
    if workload == "oneshot":
        return [f"solve {p}" for p in inp.order]
    if workload == "rescore":
        # Replay the first server lifetime: its warm-up, then its loop.
        hot = o.extra["hot"]
        rows = [r for r in o.extra["rows"] if r["life"] == 0 and r["reply"].get("status") == "ok"]
        rows = rows[:RESCORE_REPLAY_MAX]
        lines = [f"rescore {CACHE_MB} {WORKERS} {p}" for p in hot]
        lines += [f"rescore {CACHE_MB} {WORKERS} {r['path']}" for r in rows]
        cold = next((r["path"] for r in rows if r["kind"] == "cold"), None)
        lines += [f"plan {p}" for p in hot + ([cold] if cold else [])]
        jit = [r["path"] for r in rows if r["kind"] == "patched"]
        if jit:
            # The delta path on the first cold pose and its jittered copies.
            base = inp.jitter_base[jit[0]]
            lines.append(f"frames {base} " + " ".join(p for p in jit if inp.jitter_base[p] == base))
        return lines
    if workload == "batch":
        lines = [f"batch {CACHE_MB} {WORKERS} " + " ".join(inp.jobs)]
        confs = list(dict.fromkeys(inp.jobs))
        lines += [f"plan {p}" for p in confs]
        lines.append(f"psolve {confs[0]} {WORKERS}")
        return lines
    # relax: the minimize replay, then probes on the same molecule.
    key = inp.files[inp.file][0]
    canon = inp.shapes[key]
    pose = inputs.Pose(random.Random("relax-probe"))
    base = os.path.join(work, "relax_probe.pqr")
    with open(base, "wb") as f:
        f.write(canon.posed(pose, "relax_probe").pqr())
    frames = []
    for i in range(RELAX_FRAMES):
        path = os.path.join(work, f"relax_frame{i}.pqr")
        with open(path, "wb") as f:
            f.write(canon.jittered(7000 + i, "f").posed(pose, "f").pqr())
        frames.append(path)
    return [
        f"minimize {inp.file} {inputs.RELAX_ITERS} {WORKERS}",
        f"grad {base} {GRAD_CALLS} {WORKERS}",
        f"frames {base} " + " ".join(frames),
    ]


def per_layer(workload, o, sp, overhead, names):
    m = dict.fromkeys(names, 0.0)
    parse = [s["dur"] for s in sp.of("molecule.parse")]
    m["molecule.parse_ms"] = 1e3 * median(parse)
    m["surface.s"] = sp.self_s("surface")
    m["surface.qpoints"] = sp.count("surface", "qpoints")
    m["surface.qpoints_per_s"] = ratio(m["surface.qpoints"], m["surface.s"])
    m["octree.build_s"] = sp.self_s("octree.build")
    m["octree.nodes"] = sp.count("octree.build", "nodes")
    m["octree.refresh_s"] = sp.self_s("octree.refresh")
    for layer in ("born", "epol"):
        m[f"{layer}.s"] = sp.self_s(layer)
        m[f"{layer}.pair_ops"] = sp.count(layer, "pair_ops")
        m[f"{layer}.far_ops"] = sp.count(layer, "far_ops")
        m[f"{layer}.ops_per_s"] = ratio(
            m[f"{layer}.pair_ops"] + m[f"{layer}.far_ops"], m[f"{layer}.s"]
        )
    m["born.nodes_visited"] = sp.count("born", "nodes_visited")
    m["plan.build_s"] = sp.self_s("plan.build")
    m["plan.bytes_per_atom"] = ratio(sp.count("plan.build", "bytes"), sp.count("plan.build", "atoms"))
    for k in ("born_near_entries", "born_far_entries", "epol_entries"):
        m[f"plan.{k}"] = sp.count("plan.build", k)
    m["plan.delta_s"] = sp.self_s("plan.delta")
    m["plan.patch_s"] = sp.self_s("plan.patch")
    m["exec.born_s"] = sp.count("exec", "born_s")
    m["exec.epol_s"] = sp.count("exec", "epol_s")
    m["exec.born_entries_per_s"] = ratio(sp.count("exec", "born_entries"), m["exec.born_s"])
    m["exec.epol_entries_per_s"] = ratio(sp.count("exec", "epol_entries"), m["exec.epol_s"])
    m["exec.gb_per_s_computed"] = ratio(
        sp.count("exec", "bytes") / 1e9, m["exec.born_s"] + m["exec.epol_s"]
    )
    grads = [s["dur"] for s in sp.of("grad")]
    m["grad.ms_per_call"] = 1e3 * median(grads)
    m["grad.entries_per_s"] = ratio(sp.count("grad", "epol_entries"), sum(grads))
    par = sp.of("exec.parallel") + sp.of("grad.parallel")
    m["runtime.steals"] = sum(s["counts"].get("steals") or 0.0 for s in par)
    m["runtime.imbalance"] = max((s["counts"].get("imbalance") or 0.0 for s in par), default=0.0)

    if workload == "relax":
        rep = o.extra["reports"][0]
        evals = sum(r["energy_evals"] for r in rep["rows"])
        m["minimize.evals_per_iter"] = ratio(evals, rep["iters"])
        m["minimize.patched"] = rep["total_patched"]
        m["minimize.rebuilt"] = rep["total_rebuilt"]
        m["plan.rebuilds"] = rep["total_rebuilt"]
        m["plan.patch_frac"] = ratio(
            rep["total_patched"], rep["total_patched"] + rep["total_rebuilt"]
        )
        m["grad.share"] = median([ratio(r["grad_seconds"], r["wall_s"]) for r in o.extra["reports"]])
    elif workload == "batch":
        rep = o.extra["reports"][0]
        m["batch.hit_rate"] = ratio(rep["cache_hits"], rep["jobs"])
        m["batch.misses"] = rep["cache_misses"]
        m["batch.patched"] = rep["cache_patched"]
        m["batch.evictions"] = rep["cache_evictions"]
        m["batch.cache_mb_held"] = rep["cache_bytes_held"] / 2**20
        m["batch.arena_reuses"] = rep["arena_reuses"]
    elif workload == "rescore":
        rows = o.extra["rows"]
        reps = o.extra["reports"]
        rep = {k: sum(r[k] for r in reps) for k in
               ("cache_hits", "cache_patched", "cache_misses", "shed")}
        rep["peak_queue_depth"] = max(r["peak_queue_depth"] for r in reps)
        ok = [r for r in rows if r["reply"].get("status") == "ok"]
        wall = lambda rs: [r["reply"]["wall_ms"] for r in rs]
        hit = [r for r in ok if r["reply"]["cache_hit"]]
        patched = [r for r in ok if r["reply"].get("patched")]
        miss = [r for r in ok if not r["reply"]["cache_hit"] and not r["reply"].get("patched")]
        m["serve.server_ms_p50"] = median(wall(ok))
        m["serve.wire_ms_p50"] = median([1e3 * r["latency_s"] - r["reply"]["wall_ms"] for r in ok])
        m["serve.hit_ms_p50"] = median(wall(hit))
        m["serve.patch_ms_p50"] = median(wall(patched))
        m["serve.miss_ms_p50"] = median(wall(miss))
        served = rep["cache_hits"] + rep["cache_patched"] + rep["cache_misses"]
        m["serve.hit_rate"] = ratio(rep["cache_hits"], served)
        m["serve.plan_builds"] = rep["cache_misses"]
        m["serve.build_dedup"] = ratio(len({r["path"] for r in miss}), len(miss))
        m["serve.peak_queue_depth"] = rep["peak_queue_depth"]
        m["serve.shed"] = rep["shed"]
        jittered = [r for r in ok if r["kind"] == "patched"]
        m["plan.rebuilds"] = sum(1 for r in jittered if not r["reply"].get("patched"))
        m["plan.patch_frac"] = ratio(len(jittered) - m["plan.rebuilds"], len(jittered))

    m["trace.overhead_ratio"] = overhead
    return m


def check_replay(workload, inp, o, sp, oracle):
    """The replay's own answers go through the oracle check too."""
    naive = oracle.resolve(inp.shapes)
    if workload == "oneshot":
        paths = inp.order
        roots = sp.of("oneshot.file")
    elif workload == "rescore":
        ok = [r for r in o.extra["rows"] if r["life"] == 0 and r["reply"].get("status") == "ok"]
        paths = o.extra["hot"] + [r["path"] for r in ok[:RESCORE_REPLAY_MAX]]
        roots = sp.of("serve.request")
    else:
        return
    if len(roots) != len(paths):
        o.fail(f"replay answered {len(roots)} of {len(paths)} items")
    for path, s in zip(paths, roots):
        o.answer(s["counts"].get("epol_kcal"), naive[inp.files[path][0]])


def run(workload, polar_bin, tracer_bin, oracle, inp, seconds, work, names):
    o = workloads.RUN[workload](polar_bin, oracle, inp, seconds)
    script = os.path.join(work, "trace_script.txt")
    with open(script, "w") as f:
        f.write("\n".join(script_for(workload, inp, o, work)) + "\n")
    ratios = []
    for i in range(TRACE_PAIRS):
        wall = {}
        for mode in ("off", "on") if i % 2 == 0 else ("on", "off"):
            out = os.path.join(work, f"trace-{mode}.json")
            flags = ["--no-spans"] if mode == "off" else []
            r = polar.run([tracer_bin, script, out] + flags)
            if r.rc != 0:
                raise RuntimeError(f"tracer exited {r.rc}: {r.err.strip()}")
            with open(out) as f:
                doc = json.load(f)
            wall[mode] = doc["wall_s"]
            if mode == "on":
                spans = doc["spans"]
        ratios.append(ratio(wall["on"], wall["off"]))
    sp = Spans(self_times(spans))
    check_replay(workload, inp, o, sp, oracle)
    o.metrics = per_layer(workload, o, sp, median(ratios), names)
    keep = os.path.abspath(os.path.join(".perfbench_out", f"trace-{workload}.json"))
    os.makedirs(os.path.dirname(keep), exist_ok=True)
    with open(keep, "w") as f:
        json.dump({"workload": workload, "layers": sp.summary(), "metrics": o.metrics}, f, indent=1)
    log(f"span summary written to {keep}")
    return o
