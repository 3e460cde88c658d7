"""Running the `polar` CLI: build, spawn with timing and peak RSS, parse
answers, and the cached naive oracle."""

import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time

import inputs

ENERGY_RE = re.compile(r"^E_pol = (-?[0-9.]+(?:e-?[0-9]+)?) kcal/mol", re.M)
NAIVE_RE = re.compile(r"^naive  = (-?[0-9.]+(?:e-?[0-9]+)?) kcal/mol", re.M)
MINIMIZE_RE = re.compile(r"^E_pol (-?[0-9.]+) -> (-?[0-9.]+) kcal/mol in (\d+) iters", re.M)

# An answer fails its oracle check beyond this relative error. The octree
# error at eps 0.9 stays below 1 % on the library shapes.
REL_ERR_LIMIT = 0.025


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(tracer=False):
    """Build `polar` (and the tracer) from the checkout; return paths."""
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates/cli")):
        raise SystemExit("perfbench: run from the root of a polar-energy checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmds = [["cargo", "build", "--release", "--offline", "-p", "polar-cli"]]
    if tracer:
        cmds.append(
            ["cargo", "build", "--release", "--offline",
             "--manifest-path", "perfbench/tracer/Cargo.toml"]
        )
    for cmd in cmds:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")
    rel = os.path.join(target_dir(), "release")
    return os.path.abspath(os.path.join(rel, "polar")), os.path.abspath(
        os.path.join(rel, "perfbench-tracer")
    )


class Run:
    """One finished child process."""

    def __init__(self, rc, out, err_lines, wall, rss_mb):
        self.rc, self.out, self.err_lines = rc, out, err_lines
        self.wall, self.rss_mb = wall, rss_mb

    @property
    def err(self):
        return "".join(line for _, line in self.err_lines)

    def stderr_at(self, prefix):
        """Seconds from spawn until the first stderr line with `prefix`."""
        for t, line in self.err_lines:
            if line.startswith(prefix):
                return t
        return None

    def last_json(self):
        lines = self.out.strip().splitlines()
        return json.loads(lines[-1]) if lines else None


def run(argv):
    """Run to completion; stderr lines are timestamped as they arrive."""
    t0 = time.perf_counter()
    p = subprocess.Popen(
        argv, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    err_lines = []

    def pump():
        for line in p.stderr:
            err_lines.append((time.perf_counter() - t0, line))

    th = threading.Thread(target=pump)
    th.start()
    out = p.stdout.read()
    th.join()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    p.stderr.close()
    return Run(p.returncode, out, err_lines, wall, ru.ru_maxrss / 1024.0)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def pct(xs, q):
    """Percentile by linear interpolation (q in 0..100)."""
    if not xs:
        return 0.0
    s = sorted(xs)
    k = (len(s) - 1) * q / 100.0
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


class Oracle:
    """Naive O(n^2) E_pol per canonical shape, via `polar energy --naive`,
    cached in the checkout by (shape bytes, polar binary). A posed file's
    oracle is its canonical shape's: the naive sums are invariant under
    the poses `inputs.Pose` draws (`run.py --selftest` checks this)."""

    def __init__(self, polar, cache_dir=".perfbench_cache"):
        self.polar = polar
        self.dir = os.path.abspath(cache_dir)
        os.makedirs(self.dir, exist_ok=True)
        self.path = os.path.join(self.dir, "oracle.json")
        with open(polar, "rb") as f:
            self.binary = hashlib.sha256(f.read()).hexdigest()[:16]
        try:
            with open(self.path) as f:
                self.cache = json.load(f)
        except (OSError, ValueError):
            self.cache = {}

    def naive_of_file(self, path):
        r = run([self.polar, "energy", path, "--naive"])
        m = NAIVE_RE.search(r.out)
        if r.rc != 0 or not m:
            raise RuntimeError(f"oracle failed on {path}: rc {r.rc}\n{r.err}")
        return float(m.group(1))

    def resolve(self, shapes):
        """Naive energy for every shape key in `shapes` (key -> Mol)."""
        need = {}
        keys = {}
        for key, mol in shapes.items():
            data = mol.pqr()
            ck = f"{inputs.sha(data)[:24]}-{self.binary}"
            keys[key] = ck
            if ck not in self.cache:
                need[ck] = data
        pending = list(need.items())
        # Two processes at a time: the naive sums are the slow part.
        while pending:
            batch, pending = pending[:2], pending[2:]
            paths = []
            for ck, data in batch:
                path = os.path.join(self.dir, ck + ".pqr")
                with open(path, "wb") as f:
                    f.write(data)
                paths.append((ck, path))
            results = {}

            def naive(ck, path):
                results[ck] = self.naive_of_file(path)

            threads = [threading.Thread(target=naive, args=cp) for cp in paths]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            for ck, path in paths:
                os.remove(path)
                if ck not in results:
                    raise RuntimeError(f"oracle failed for shape {ck}")
                self.cache[ck] = results[ck]
        if need:
            tmp = self.path + ".tmp"
            with open(tmp, "w") as f:
                json.dump(self.cache, f)
            os.replace(tmp, self.path)
        return {key: self.cache[ck] for key, ck in keys.items()}
