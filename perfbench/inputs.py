"""Seeded inputs of the four workloads: PQR files, the rescore key stream
and the batch manifest.

Molecule *shapes* come from a fixed library (generator seeds below), and
``--seed`` picks everything else: each molecule's pose (one of the 24
rotations and reflections that map the surface quadrature's icosahedron
onto itself, plus a translation on the 0.001 A grid the PQR format
writes), the order files are scored in, the rescore request stream, the
batch manifest order (the order of the rescore stream is fixed; see
``RescoreStream``). This is on purpose: the
octree error at eps 0.9 is a chaotic function of the shape (a 0.05 A
jitter moves it by +-30 %, a general rotation by more), so a seed that
drew new shapes would make ``epol_rel_err_max`` and the per-file work
differ from seed to seed by more than any regression bound. Under these
poses the work counts move by hundredths of a percent, the errors stay
put, and the naive oracle of a posed file equals that of its canonical
shape (``run.py --selftest`` checks it), so the spread between seeds
measures the host and not the inputs.

Coordinates are kept as integers in milli-Angstrom so that posing is
exact and equal seeds give byte-identical files.
"""

import hashlib
import json
import math
import os
import random

# Why each workload exists; BENCHMARK.json carries the short form.
WHY = {
    "oneshot": (
        "16 ZDock-sized globules (1k-8k atoms), one `polar energy` process "
        "each: prepare and the recursive Born/E_pol traversals do all the "
        "work and nothing is reused; plan-cache or serve changes must read "
        "no change here"
    ),
    "rescore": (
        "closed loop over 2 connections to `polar serve`: ~70% hot-pose "
        "cache hits, ~15% cold poses sent on both connections at once, "
        "~15% jittered copies of the latest cold pose (patched); plan-execute, "
        "cache lookup and the wire dominate, misses make the tail"
    ),
    "batch": (
        "`polar batch` over 5 interleaved 2k-atom conformations whose "
        "plans add up to ~1.8x the 256 MB cache: the same plan cache as "
        "rescore under capacity pressure, so plan bytes become evictions"
    ),
    "relax": (
        "`polar minimize --parallel` on a 1.5k-atom globule to a fixed "
        "iteration cap: the gradient kernel, apply_frame refresh and plan "
        "delta/patch do the work; cache and serve do none"
    ),
}

WORKLOADS = tuple(WHY)

DENSITY = 0.08  # atoms per A^3, packed protein matter
# (radius, fraction) of H, C, N, O, S in an average protein.
COMPOSITION = ((1.20, 0.50), (1.70, 0.32), (1.55, 0.085), (1.52, 0.09), (1.80, 0.005))

# 1k to 8k atoms, denser at small sizes like the ZDock suite; ~38k atoms
# per pass, so a 25-second run makes three passes.
ONESHOT_SIZES = tuple(round(1000 * 8 ** ((i / 15) ** 2.5)) for i in range(16))
RESCORE_RECEPTOR, RESCORE_LIGAND = 850, 150
RESCORE_HOT, RESCORE_COLD_POOL = 2, 3
JITTER_MILLI = 15  # per-coordinate jitter bound; |d| <= 0.026 A per jittered copy
BATCH_ATOMS, BATCH_CONFORMATIONS, BATCH_REPEATS = 2000, 5, 4
RELAX_ATOMS, RELAX_ITERS = 1500, 15


class Mol:
    """Atoms as (x, y, z) in milli-A, charge in 1e-4 e, radius in 1e-4 A."""

    def __init__(self, name, xyz, charge, radius):
        self.name, self.xyz, self.charge, self.radius = name, xyz, charge, radius

    def __len__(self):
        return len(self.xyz)

    def pqr(self):
        out = [f"REMARK perfbench {self.name}\n"]
        for i, ((x, y, z), q, r) in enumerate(zip(self.xyz, self.charge, self.radius)):
            out.append(
                f"ATOM  {(i + 1) % 100000:>5} X    UNK     1    "
                f"{_fixed(x, 3):>8} {_fixed(y, 3):>8} {_fixed(z, 3):>8} "
                f"{_fixed(q, 4):>8} {_fixed(r, 4):>7}\n"
            )
        out.append("END\n")
        return "".join(out).encode()

    def posed(self, pose, name):
        return Mol(name, [pose.apply(p) for p in self.xyz], self.charge, self.radius)

    def jittered(self, seed, name):
        rng = random.Random(seed)
        j = JITTER_MILLI
        xyz = [
            (x + rng.randint(-j, j), y + rng.randint(-j, j), z + rng.randint(-j, j))
            for x, y, z in self.xyz
        ]
        return Mol(name, xyz, self.charge, self.radius)


def _fixed(v, digits):
    """Exact decimal text of the integer ``v / 10**digits``."""
    sign = "-" if v < 0 else ""
    whole, frac = divmod(abs(v), 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def globule(n, lib_seed, name="globule"):
    """Packed globular pseudo-protein of exactly ``n`` atoms: a jittered
    lattice at protein density, kept centre-out, with zero-mean charges
    and radii drawn by protein composition."""
    rng = random.Random(lib_seed)
    a = (1.0 / DENSITY) ** (1.0 / 3.0)
    r_fill = 1.4 * (3.0 * n / (4.0 * math.pi * DENSITY)) ** (1.0 / 3.0) + 3.0
    cells = math.ceil(r_fill / a)
    cand = []
    span = range(-cells, cells + 1)
    for ix in span:
        for iy in span:
            for iz in span:
                p = tuple(
                    (i + rng.uniform(-0.3, 0.3)) * a for i in (ix, iy, iz)
                )
                d = math.sqrt(p[0] ** 2 + p[1] ** 2 + p[2] ** 2)
                if d <= r_fill:
                    cand.append((d, p))
    cand.sort()
    xyz = [tuple(round(c * 1000) for c in p) for _, p in cand[:n]]
    q = [rng.uniform(-0.5, 0.5) for _ in range(n)]
    mean = sum(q) / n
    charge = [round((v - mean) * 1e4) for v in q]
    radius = []
    for _ in range(n):
        u, acc = rng.random(), 0.0
        for r, f in COMPOSITION:
            acc += f
            if u < acc:
                break
        radius.append(round(r * 1e4))
    return Mol(name, xyz, charge, radius)


def complex_(lib_seed, name):
    """Receptor globule with a ligand globule in contact along +x."""
    rec = globule(RESCORE_RECEPTOR, lib_seed, "rec")
    lig = globule(RESCORE_LIGAND, lib_seed + 7919, "lig")
    reach = lambda m: max(math.sqrt(x * x + y * y + z * z) for x, y, z in m.xyz)
    dx = round(reach(rec) + reach(lig) + 2500)
    xyz = rec.xyz + [(x + dx, y, z) for x, y, z in lig.xyz]
    return Mol(name, xyz, rec.charge + lig.charge, rec.radius + lig.radius)


class Pose:
    """Axis reflections + a cyclic axis permutation + an integer
    translation: the rigid motions under which the icosahedral surface
    quadrature, and so the naive oracle, is invariant."""

    def __init__(self, rng, reach_milli=30000):
        self.shift = rng.randrange(3)
        self.sign = tuple(rng.choice((-1, 1)) for _ in range(3))
        self.t = tuple(rng.randint(-reach_milli, reach_milli) for _ in range(3))

    def apply(self, p):
        k = self.shift
        q = (p[k % 3], p[(k + 1) % 3], p[(k + 2) % 3])
        return tuple(s * c + t for s, c, t in zip(self.sign, q, self.t))


def sha(data):
    return hashlib.sha256(data).hexdigest()


class Inputs:
    """Everything one workload run reads, written under ``root``.

    ``files`` maps each written path to the canonical shape it poses;
    ``shapes`` maps a shape key to its canonical molecule, from which the
    oracle is computed (see ``polar.Oracle``).
    """

    def __init__(self, root):
        self.root = root
        self.shapes = {}
        self.files = {}
        os.makedirs(root, exist_ok=True)

    def write(self, mol, shape_key, canonical):
        path = os.path.join(self.root, mol.name + ".pqr")
        with open(path, "wb") as f:
            f.write(mol.pqr())
        self.shapes[shape_key] = canonical
        self.files[path] = (shape_key, len(mol))
        return path


def oneshot(root, seed):
    rng = random.Random(f"oneshot/{seed}")
    inp = Inputs(root)
    order = list(range(len(ONESHOT_SIZES)))
    rng.shuffle(order)
    paths = {}
    for i in sorted(order):
        n = ONESHOT_SIZES[i]
        canon = globule(n, 1000 + i, f"zd{i:02d}_{n}")
        paths[i] = inp.write(canon.posed(Pose(rng), canon.name), canon.name, canon)
    inp.order = [paths[i] for i in order]
    # Warm-up file for setup_s: the smallest globule in another pose.
    small = globule(ONESHOT_SIZES[0], 1000, "zd00_1000")
    inp.warmup = inp.write(small.posed(Pose(rng), "warmup"), small.name, small)
    return inp


class RescoreStream:
    """Lockstep key stream of one server lifetime: each step is one
    request per connection.

    Every 20-step block has the same shape (``BLOCK``): ``C`` sends a new
    pose of a cold-pool complex on both connections at once (concurrent
    misses on one key), ``P`` sends a jittered copy of the latest cold
    pose on one connection and a hot pose on the other, ``H`` sends two
    hot poses. That is 70 % hot, 15 % patched and 15 % cold requests.
    Each cold pose is followed by exactly two jittered copies, as a
    docking refinement step would send them: the first is patched from
    the cold pose's plan, the second from the first's (the server
    patches from the latest same-topology plan), and the two jitters
    together move an atom by at most ``3 * sqrt(3) * JITTER_MILLI``
    = 0.078 A, inside the 0.1 A re-planning tolerance. Hot poses are
    taken round-robin. No step has two requests that insert different
    plans, and the hot set is never the least recently used, so the
    order the two workers finish in never changes the cache's state:
    the outcome of every request, the hit/patch/miss counts and the
    answers repeat exactly, for every seed (``run.py --selftest`` checks
    this and that every jittered request is patched). ``--seed`` picks
    the poses only."""

    BLOCK = "CPHHPHHCPHHPHHCPHPHH"

    def __init__(self, inp, seed, life):
        self.inp = inp
        self.pose_rng = random.Random(f"rescore/{seed}/{life}")
        self.life = life
        self.hot = []
        for k in range(RESCORE_HOT):
            canon = complex_(2000 + 10 * k, f"hot{k}")
            pose = Pose(self.pose_rng)
            name = f"hot{k}_l{life}"
            self.hot.append((canon, pose, inp.write(canon.posed(pose, name), canon.name, canon)))
        self.cold = [complex_(3000 + 10 * c, f"cold{c}") for c in range(RESCORE_COLD_POOL)]
        self.n = {"C": 0, "P": 0, "H": 0}
        self.latest = None  # (pool index, pose, path) of the latest cold pose
        self.jitters = 0  # jittered copies sent of it so far
        self.steps = 0

    def block_done(self):
        return self.steps % len(self.BLOCK) == 0

    def _next(self, kind):
        i = self.n[kind]
        self.n[kind] += 1
        if kind == "H":
            return ("hot", self.hot[i % RESCORE_HOT][2])
        if kind == "C":
            c = i % RESCORE_COLD_POOL
            canon = self.cold[c]
            name = f"{canon.name}_l{self.life}_p{i}"
            pose = Pose(self.pose_rng)
            path = self.inp.write(canon.posed(pose, name), canon.name, canon)
            self.latest, self.jitters = (c, pose, path), 0
            return ("cold", path)
        c, pose, base = self.latest
        m = self.jitters
        self.jitters += 1
        jit = self.cold[c].jittered(5000 + 100 * c + m, f"{self.cold[c].name}_j{m}")
        name = f"{os.path.splitext(os.path.basename(base))[0]}_j{m}"
        path = self.inp.write(jit.posed(pose, name), jit.name, jit)
        self.inp.jitter_base[path] = base
        return ("patched", path)

    def step(self):
        """The next step's (kind, path) per connection."""
        kind = self.BLOCK[self.steps % len(self.BLOCK)]
        self.steps += 1
        if kind == "C":
            c = self._next("C")
            return [c, c]
        if kind == "H":
            return [self._next("H"), self._next("H")]
        pair = [self._next("P"), self._next("H")]
        return pair if self.n["P"] % 2 else pair[::-1]


def rescore(root, seed):
    inp = Inputs(root)
    inp.jitter_base = {}  # jittered file -> the cold pose file it jitters
    inp.stream_for = lambda life: RescoreStream(inp, seed, life)
    return inp


def batch(root, seed):
    rng = random.Random(f"batch/{seed}")
    inp = Inputs(root)
    confs = []
    for c in range(BATCH_CONFORMATIONS):
        canon = globule(BATCH_ATOMS, 4000 + c, f"conf{c}")
        confs.append(inp.write(canon.posed(Pose(rng), canon.name), canon.name, canon))
    # Interleave: each round visits every conformation once, in a
    # seeded order, so a conformation's repeats are far apart.
    jobs, entries = [], []
    for r in range(BATCH_REPEATS):
        rnd = list(confs)
        rng.shuffle(rnd)
        jobs += rnd
        for p in rnd:
            stem = os.path.splitext(os.path.basename(p))[0]
            entries.append({"name": f"{stem}_r{r}", "file": os.path.basename(p)})
    inp.jobs = jobs
    inp.manifest = os.path.join(root, "manifest.json")
    with open(inp.manifest, "w") as f:
        json.dump({"jobs": entries}, f, indent=1)
    inp.warmup_manifest = os.path.join(root, "warmup.json")
    with open(inp.warmup_manifest, "w") as f:
        json.dump({"jobs": [{"file": os.path.basename(confs[0])}]}, f)
    return inp


def relax(root, seed):
    rng = random.Random(f"relax/{seed}")
    inp = Inputs(root)
    canon = globule(RELAX_ATOMS, 6000, "relax")
    inp.file = inp.write(canon.posed(Pose(rng), "relax"), canon.name, canon)
    return inp


MAKE = {"oneshot": oneshot, "rescore": rescore, "batch": batch, "relax": relax}
