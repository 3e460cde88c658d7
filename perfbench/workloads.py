"""The four workloads, driven through the `polar` CLI only, with tracing
off. Each returns a `Outcome` with its answers, end-to-end metrics and
the program's own reports for the traced run to reuse."""

import json
import os
import selectors
import socket
import subprocess
import threading
import time

import inputs
from polar import (
    ENERGY_RE, MINIMIZE_RE, REL_ERR_LIMIT, log, median, pct, run,
)

THREADS = "2"
# setup_s is the median of several set-up samples per run, taken
# between the timed units rather than all at the start, so that a slow
# spell of a shared host moves them as much as it moves the timed work.
SETUP_EVERY = 4  # oneshot: one warm-up invocation before every 4th file


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []  # relative error of every checked answer
        self.problems = []  # failed global checks (reports, exit codes)
        self.metrics = {}
        self.extra = {}

    def answer(self, energy, naive):
        """Check one E_pol answer against its oracle."""
        self.attempted += 1
        if energy is None:
            self.failed += 1
            return
        err = abs(energy - naive) / abs(naive)
        self.errors.append(err)
        if err > REL_ERR_LIMIT:
            self.failed += 1

    def fail(self, what):
        self.problems.append(what)
        log(f"check failed: {what}")

    def finish(self, setup_s, rss_mb, rate, atom_rate, latencies_s):
        """Fill the ten end-to-end metrics. The rates are totals over the
        timed units (files, server lives, batch or minimize runs) divided
        by their summed wall time. This host's speed flips between a
        fast and a slow mode from one process to the next; a total moves
        in proportion to the share of slow time, where a median of a few
        units jumps from one mode to the other."""
        self.metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb,
            "ok_frac": (self.attempted - self.failed) / max(self.attempted, 1),
            "epol_rel_err_max": max(self.errors, default=0.0),
            "atoms_per_s": atom_rate,
            "latency_p50_ms": 1e3 * pct(latencies_s, 50),
            "latency_p90_ms": 1e3 * pct(latencies_s, 90),
            "requests_per_s": rate,
            "jobs_per_s": rate,
            "iters_per_s": rate,
        }


def timed_units(seconds, unit, min_units=1):
    """Call `unit()` until another call would end past `seconds`; at least
    `min_units` calls, and none after a call returns False (a failed
    answer is counted, not retried)."""
    t0 = time.perf_counter()
    done = 0
    while unit():
        done += 1
        elapsed = time.perf_counter() - t0
        if done >= min_units and elapsed + elapsed / done > seconds:
            return


# ---------------------------------------------------------------- oneshot

def oneshot(polar, oracle, inp, seconds):
    o = Outcome()
    setup, walls, rss, got = [], [], [], []

    def one_pass():
        for k, path in enumerate(inp.order):
            if k % SETUP_EVERY == 0:
                setup.append(run([polar, "energy", inp.warmup]).wall)
            r = run([polar, "energy", path])
            m = ENERGY_RE.search(r.out)
            walls.append(r.wall)
            rss.append(r.rss_mb)
            got.append((path, float(m.group(1)) if r.rc == 0 and m else None))
        return all(e is not None for _, e in got)

    timed_units(seconds, one_pass)
    naive = oracle.resolve(inp.shapes)
    atoms = 0
    per_file = {}
    for (path, e), t in zip(got, walls):
        key, n = inp.files[path]
        o.answer(e, naive[key])
        atoms += n
        per_file.setdefault(path, []).append(t)
    # A file's latency is its mean over the passes. The p90 of single
    # runs falls between runs of the two largest files, and a median of
    # three runs jumps between the host's two speeds; both spread more
    # between seeds. Timed wall = the file processes' walls; the
    # warm-ups between them are set-up.
    wall = sum(walls) or float("inf")
    latencies = [sum(ts) / len(ts) for ts in per_file.values()]
    o.finish(median(setup), max(rss), len(walls) / wall, atoms / wall, latencies)
    return o


# ---------------------------------------------------------------- rescore

class Server:
    """A `polar serve` child plus two client connections."""

    def __init__(self, polar):
        self.t0 = time.perf_counter()
        self.p = subprocess.Popen(
            [polar, "serve", "--addr", "127.0.0.1:0", "--threads", THREADS,
             "--profile", "json"],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        first = self.p.stdout.readline()
        if not first.startswith("listening on "):
            raise RuntimeError(f"serve did not announce its address: {first!r}")
        host, port = first.split()[-1].rsplit(":", 1)
        # Ready = the stderr banner after the listener is up.
        while True:
            line = self.p.stderr.readline()
            if not line or line.startswith("serve:"):
                break
        # Keep reading stderr so the server never blocks on a full pipe.
        self.pump = threading.Thread(target=self.p.stderr.read)
        self.pump.start()
        self.conns = []
        for _ in range(2):
            s = socket.create_connection((host, int(port)))
            self.conns.append((s, s.makefile("r", encoding="utf-8")))
        self.sel = selectors.DefaultSelector()
        self.n = 0

    def roundtrip(self, paths):
        """Send one request per connection at once; return each reply
        with its client-side latency in seconds."""
        sent = {}
        for c, path in enumerate(paths):
            self.n += 1
            line = json.dumps({"id": f"r{self.n}", "file": path}) + "\n"
            sent[c] = time.perf_counter()
            self.conns[c][0].sendall(line.encode())
        replies = {}
        for c in sent:
            self.sel.register(self.conns[c][0], selectors.EVENT_READ, c)
        while len(replies) < len(sent):
            for key, _ in self.sel.select():
                c = key.data
                line = self.conns[c][1].readline()
                replies[c] = (json.loads(line), time.perf_counter() - sent[c])
                self.sel.unregister(self.conns[c][0])
        return [replies[c] for c in range(len(paths))]

    def vm_hwm_mb(self):
        with open(f"/proc/{self.p.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def drain(self):
        s, rf = self.conns[0]
        s.sendall(b'{"cmd":"drain"}\n')
        reply = json.loads(rf.readline())
        for s, rf in self.conns:
            rf.close()
            s.close()
        self.p.stdout.read()
        self.p.wait()
        self.pump.join()
        self.p.stdout.close()
        self.p.stderr.close()
        return reply.get("report", {}), self.p.returncode

    def kill(self):
        if self.p.poll() is None:
            self.p.kill()
            self.p.wait()


def start_warm_server(polar, stream):
    """Start a server and run the warm-up pass over the stream's hot
    poses; setup time is from launch until the last warm-up reply."""
    srv = Server(polar)
    for _, _, path in stream.hot:
        rep, _ = srv.roundtrip([path])[0]
        if rep.get("status") != "ok":
            raise RuntimeError(f"warm-up request failed: {rep}")
    return srv, time.perf_counter() - srv.t0


def rescore_loop(srv, stream, seconds=None, steps=None):
    """Run lockstep steps for `seconds`, ending on a whole stream block
    (or run exactly `steps` steps)."""
    rows = []
    t0 = time.perf_counter()
    done = 0
    while (steps is not None and done < steps) or (
        steps is None
        and (time.perf_counter() - t0 < seconds or not stream.block_done())
    ):
        reqs = stream.step()
        for (kind, path), (rep, lat) in zip(reqs, srv.roundtrip([p for _, p in reqs])):
            rows.append({"kind": kind, "path": path, "reply": rep, "latency_s": lat})
        done += 1
    return rows, time.perf_counter() - t0


SERVER_LIVES = 5


def rescore(polar, oracle, inp, seconds):
    """Five server lifetimes, each set up, warmed and then driven for a
    fifth of the time: peak RSS is the median of five. Before each
    lifetime one more server is set up, warmed and drained at once, so
    setup_s is the median of ten starts."""
    o = Outcome()
    setups, hwms, reports, rows, walls = [], [], [], [], []
    for life in range(SERVER_LIVES):
        stream = inp.stream_for(life)
        if life == 0:
            o.extra["hot"] = [path for _, _, path in stream.hot]
        for setup_only in (True, False):
            srv = None
            try:
                srv, s = start_warm_server(polar, stream)
                setups.append(s)
                if not setup_only:
                    seg, w = rescore_loop(srv, stream, seconds=seconds / SERVER_LIVES)
                    rows += [dict(r, life=life) for r in seg]
                    walls.append(w)
                    hwms.append(srv.vm_hwm_mb())
                report, rc = srv.drain()
            finally:
                if srv:
                    srv.kill()
            if not setup_only:
                reports.append(report)
            if rc != 0:
                o.fail(f"polar serve exited {rc}")
            if not report.get("reconciles"):
                o.fail("ServeReport does not reconcile")
    naive = oracle.resolve(inp.shapes)
    oks = atoms = 0
    for row in rows:
        rep = row["reply"]
        ok = rep.get("status") == "ok" and rep.get("epol_kcal") is not None
        key, n = inp.files[row["path"]]
        o.answer(rep["epol_kcal"] if ok else None, naive[key])
        if ok:
            oks += 1
            atoms += n
    wall = sum(walls) or float("inf")
    o.finish(
        median(setups),
        median(hwms),
        oks / wall,
        atoms / wall,
        [r["latency_s"] for r in rows],
    )
    o.extra.update(rows=rows, reports=reports)
    return o


# ------------------------------------------------------------------ batch

def batch(polar, oracle, inp, seconds):
    o = Outcome()
    base = [polar, "batch", "--threads", THREADS, "--profile", "json", "--manifest"]
    setup, runs = [], []

    def one_run():
        setup.append(run(base + [inp.warmup_manifest]).wall)
        runs.append(run(base + [inp.manifest]))
        return runs[-1].rc == 0

    timed_units(seconds, one_run, 3)
    naive = oracle.resolve(inp.shapes)
    by_name = {os.path.splitext(os.path.basename(p))[0]: p for p in inp.files}
    reports = []
    jobs = atoms = 0
    for r in runs:
        try:
            rep = r.last_json()
        except ValueError:
            rep = None
        if r.rc != 0 or not rep:
            o.fail(f"polar batch exited {r.rc}")
            o.attempted += len(inp.jobs)
            o.failed += len(inp.jobs)
            continue
        reports.append(rep)
        if rep["failed"] != 0:
            o.fail(f"BatchReport.failed = {rep['failed']}")
        for row in rep["rows"]:
            key, n = inp.files[by_name[row["name"]]]
            ok = row.get("error") is None and row.get("epol_kcal") is not None
            o.answer(row["epol_kcal"] if ok else None, naive[key])
            jobs += 1
            atoms += n
    walls = [r.wall for r in runs]
    wall = sum(walls) or float("inf")
    o.finish(median(setup), max(r.rss_mb for r in runs), jobs / wall, atoms / wall, walls)
    o.extra.update(reports=reports)
    return o


# ------------------------------------------------------------------ relax

def relax(polar, oracle, inp, seconds):
    o = Outcome()
    iters = inputs.RELAX_ITERS
    argv = [polar, "minimize", inp.file, "--max-iters", str(iters),
            "--parallel", "--threads", THREADS, "--profile", "json"]
    runs = []

    def one_run():
        runs.append(run(argv))
        return runs[-1].rc == 0

    timed_units(seconds, one_run, 3)
    naive = oracle.resolve(inp.shapes)[inp.files[inp.file][0]]
    n_atoms = inp.files[inp.file][1]
    setups, per_iter, reports = [], [], []
    for r in runs:
        setup = r.stderr_at("cold plan in")
        m = MINIMIZE_RE.search(r.out)
        try:
            rep = r.last_json()
        except ValueError:
            rep = None
        if r.rc != 0 or setup is None or not m or not rep:
            o.fail(f"polar minimize exited {r.rc}")
            o.answer(None, naive)
            continue
        energies = [row["energy_kcal"] for row in rep["rows"]]
        descent = all(b <= a for a, b in zip(energies, energies[1:]))
        capped = rep["iters"] == iters and not rep["converged"] and not rep["stalled"]
        if not descent:
            o.fail("relax energy rose between iterations")
        if not capped:
            o.fail(f"relax stopped after {rep['iters']} of {iters} iterations")
        o.answer(float(m.group(1)) if descent and capped else None, naive)
        reports.append(rep)
        setups.append(setup)
        per_iter.append((r.wall - setup) / rep["iters"])
    # A run's iterations are timed from its `cold plan in` line to exit.
    # Every run makes the same number, so the mean over runs is the
    # summed time over the summed iterations.
    iter_s = (sum(per_iter) / len(per_iter) if per_iter else 0.0) or float("inf")
    o.finish(median(setups), max(r.rss_mb for r in runs), 1 / iter_s, n_atoms / iter_s, per_iter)
    o.extra.update(reports=reports)
    return o


RUN = {"oneshot": oneshot, "rescore": rescore, "batch": batch, "relax": relax}
