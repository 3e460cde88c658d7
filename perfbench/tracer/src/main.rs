//! Traced in-process replay of one perfbench workload.
//!
//! `perfbench-tracer <script> <out.json> [--no-spans]` reads a script
//! written by `perfbench/run.py`, one operation per line, and calls the
//! public functions each `polar` entry point calls, in the same order,
//! with a span around every call. Spans (name, start, end, parent, item)
//! and the work counts the library reports at that call are kept in
//! memory and written as one JSON document at the end, with the wall
//! time of the whole script; the Python side derives self times and the
//! per-layer metrics from them. With `--no-spans` the same calls run
//! with span recording off and only the wall time is written: the ratio
//! of the two wall times is the cost of tracing.
//!
//! Script operations (paths must not contain whitespace):
//!
//! ```text
//! solve <file>                         polar energy: parse, surface, octrees, Born, E_pol
//! plan <file>                          parse, surface, octrees, plan build, plan execute
//! psolve <file> <workers>              plan execute on the work-stealing pool
//! frames <base> <frame>...             apply_frame, delta, patch or rebuild, execute
//! grad <file> <calls> <workers>        gradient_with_plan, serial and parallel
//! minimize <file> <iters> <workers>    polar minimize: prepare, cold plan, minimize
//! batch <cache_mb> <workers> <file>... polar batch: parse every job, BatchEngine::run
//! rescore <cache_mb> <workers> <file>  one serve request: parse, ServeEngine::rescore
//! ```

use polar_gb::{
    BatchEngine, BatchJob, GbParams, GbSolver, InteractionPlan, MinimizeConfig, PlanDelta,
    ReplanConfig, ServeEngine, SolveReport, WorkCounts,
};
use polar_molecule::{io, Molecule};
use polar_octree::OctreeConfig;
use polar_surface::SurfaceConfig;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

type Res<T> = Result<T, Box<dyn std::error::Error>>;

struct Span {
    id: usize,
    parent: Option<usize>,
    item: usize,
    name: &'static str,
    start: f64,
    end: f64,
    counts: Vec<(&'static str, f64)>,
}

/// In-memory span recorder: `enter` opens a span under the innermost
/// open one, `exit` closes it and attaches the counts measured inside.
/// A disabled recorder makes both no-ops.
struct Tracer {
    enabled: bool,
    t0: Instant,
    wall_s: f64,
    spans: Vec<Span>,
    open: Vec<usize>,
    item: usize,
}

impl Tracer {
    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            wall_s: f64::NAN,
            spans: Vec::new(),
            open: Vec::new(),
            item: 0,
        }
    }

    fn enter(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return 0;
        }
        if self.open.is_empty() {
            self.item += 1;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            item: self.item,
            name,
            start: self.t0.elapsed().as_secs_f64(),
            end: f64::NAN,
            counts: Vec::new(),
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize, counts: &[(&'static str, f64)]) {
        if !self.enabled {
            return;
        }
        let end = self.t0.elapsed().as_secs_f64();
        assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
        let span = &mut self.spans[id];
        span.end = end;
        span.counts.extend_from_slice(counts);
    }

    /// Time `f` as one closed span with the counts it returns.
    fn leaf<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> T,
        counts: impl FnOnce(&T) -> Vec<(&'static str, f64)>,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.enter(name);
        let out = f();
        let c = counts(&out);
        self.exit(id, &c);
        out
    }

    fn to_json(&self) -> String {
        let mut s = format!("{{\"wall_s\":{},\"spans\":[", num(self.wall_s));
        for (k, sp) in self.spans.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\":{},\"parent\":{parent},\"item\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"counts\":{{",
                sp.id,
                sp.item,
                sp.name,
                num(sp.start),
                num(sp.end)
            );
            for (j, (key, v)) in sp.counts.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{key}\":{}", num(*v));
            }
            s.push_str("}}");
        }
        s.push_str("]}");
        s
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn work(w: &WorkCounts) -> Vec<(&'static str, f64)> {
    vec![
        ("pair_ops", w.pair_ops as f64),
        ("far_ops", w.far_ops as f64),
        ("nodes_visited", w.nodes_visited as f64),
    ]
}

fn load(t: &mut Tracer, path: &str) -> Res<Molecule> {
    let mol = t.leaf(
        "molecule.parse",
        || io::load(Path::new(path)),
        |m| match m {
            Ok(m) => vec![("atoms", m.len() as f64)],
            Err(_) => Vec::new(),
        },
    )?;
    Ok(mol)
}

/// `GbSolver::for_molecule`, split at its two layers.
fn prepare(t: &mut Tracer, mol: &Molecule) -> GbSolver {
    let qpoints = t.leaf(
        "surface",
        || mol.surface(&SurfaceConfig::coarse()),
        |q| vec![("qpoints", q.len() as f64)],
    );
    t.leaf(
        "octree.build",
        || {
            GbSolver::from_parts(
                mol.name.clone(),
                mol.positions(),
                mol.radii(),
                mol.charges(),
                qpoints,
                &OctreeConfig::default(),
            )
        },
        |s| {
            vec![(
                "nodes",
                (s.tree_a.node_count() + s.tree_q.node_count()) as f64,
            )]
        },
    )
}

fn build_plan(t: &mut Tracer, solver: &GbSolver, p: &GbParams) -> InteractionPlan {
    t.leaf(
        "plan.build",
        || solver.plan(p),
        |plan| plan_counts(plan, solver),
    )
}

fn plan_counts(plan: &InteractionPlan, solver: &GbSolver) -> Vec<(&'static str, f64)> {
    let s = plan.stats();
    vec![
        ("born_near_entries", s.born_near_entries as f64),
        ("born_far_entries", s.born_far_entries as f64),
        (
            "epol_entries",
            (s.epol_near_entries + s.epol_far_entries) as f64,
        ),
        ("bytes", plan.memory_bytes() as f64),
        ("atoms", solver.n_atoms() as f64),
    ]
}

/// Plan execute; the Born/E_pol split comes from the solve report's
/// own stage timers, since both stages run inside one public call.
fn execute(t: &mut Tracer, solver: &GbSolver, plan: &InteractionPlan, p: &GbParams) -> Res<f64> {
    let (res, _) = t.leaf(
        "exec",
        || solver.solve_with_plan_report(plan, p),
        |r| match r {
            Ok((_, rep)) => exec_counts(rep, plan),
            Err(_) => Vec::new(),
        },
    )?;
    Ok(res.epol_kcal)
}

fn exec_counts(rep: &SolveReport, plan: &InteractionPlan) -> Vec<(&'static str, f64)> {
    let s = plan.stats();
    let stage_s = |name: &str| {
        rep.stages
            .iter()
            .find(|st| st.name == name)
            .map_or(0.0, |st| st.wall_seconds)
    };
    vec![
        ("born_s", stage_s("born")),
        ("epol_s", stage_s("epol")),
        (
            "born_entries",
            (s.born_near_entries + s.born_far_entries) as f64,
        ),
        (
            "epol_entries",
            (s.epol_near_entries + s.epol_far_entries) as f64,
        ),
        ("bytes", plan.memory_bytes() as f64),
        ("epol_kcal", rep.epol_kcal),
    ]
}

fn op_solve(t: &mut Tracer, file: &str) -> Res<()> {
    let root = t.enter("oneshot.file");
    let p = GbParams::default();
    let mol = load(t, file)?;
    let solver = prepare(t, &mol);
    let (born, _) = t.leaf("born", || solver.born_radii(&p), |(_, w)| work(w));
    let (e, _) = t.leaf(
        "epol",
        || solver.epol(&born, &p),
        |(e, w)| {
            let mut c = work(w);
            c.push(("epol_kcal", *e));
            c
        },
    );
    t.exit(root, &[("epol_kcal", e), ("atoms", mol.len() as f64)]);
    Ok(())
}

fn op_plan(t: &mut Tracer, file: &str) -> Res<()> {
    let root = t.enter("probe.plan");
    let p = GbParams::default();
    let mol = load(t, file)?;
    let solver = prepare(t, &mol);
    let plan = build_plan(t, &solver, &p);
    let e = execute(t, &solver, &plan, &p)?;
    t.exit(root, &[("epol_kcal", e)]);
    Ok(())
}

fn op_psolve(t: &mut Tracer, file: &str, workers: usize) -> Res<()> {
    let root = t.enter("probe.parallel");
    let p = GbParams::default();
    let mol = load(t, file)?;
    let solver = prepare(t, &mol);
    let plan = build_plan(t, &solver, &p);
    t.leaf(
        "exec.parallel",
        || solver.solve_with_plan_parallel_report(&plan, &p, workers),
        |r| match r {
            Ok((_, rep)) => steal_counts(rep),
            Err(_) => Vec::new(),
        },
    )?;
    t.exit(root, &[]);
    Ok(())
}

fn steal_counts(rep: &SolveReport) -> Vec<(&'static str, f64)> {
    match &rep.steal {
        Some(s) => vec![
            ("steals", s.total_steals as f64),
            ("imbalance", s.imbalance),
            ("workers", s.workers as f64),
        ],
        None => Vec::new(),
    }
}

/// The delta path every moving-geometry entry point takes: move the
/// prepared solver in place, classify the plan, then patch or rebuild.
fn op_frames(t: &mut Tracer, base: &str, frames: &[&str]) -> Res<()> {
    let root = t.enter("probe.frames");
    let p = GbParams::default();
    let cfg = ReplanConfig::default();
    let mol = load(t, base)?;
    let mut solver = prepare(t, &mol);
    let mut plan = build_plan(t, &solver, &p);
    execute(t, &solver, &plan, &p)?;
    for f in frames {
        let frame = load(t, f)?;
        let pos = frame.positions();
        let moved = t.leaf(
            "octree.refresh",
            || solver.apply_frame(&pos, cfg.slack, cfg.tolerance),
            |r| vec![("escaped", if r.is_err() { 1.0 } else { 0.0 })],
        );
        match moved {
            Ok(delta) => {
                let d = t.leaf(
                    "plan.delta",
                    || plan.delta(&solver, &p, &delta, &cfg),
                    |d| {
                        let kind = match d {
                            PlanDelta::Reusable => 0.0,
                            PlanDelta::Patchable(_) => 1.0,
                            PlanDelta::Rebuild(_) => 2.0,
                        };
                        vec![("kind", kind)]
                    },
                );
                match d {
                    PlanDelta::Reusable => {}
                    PlanDelta::Patchable(set) => {
                        t.leaf(
                            "plan.patch",
                            || plan.patch(&solver, &p, &set),
                            |r| match r {
                                Ok(s) => vec![
                                    ("dirty_born", s.dirty_born as f64),
                                    ("dirty_epol", s.dirty_epol as f64),
                                ],
                                Err(_) => Vec::new(),
                            },
                        )?;
                    }
                    PlanDelta::Rebuild(_) => {
                        solver.resync_geometry();
                        plan = build_plan(t, &solver, &p);
                    }
                }
            }
            Err(_) => {
                solver = prepare(t, &frame);
                plan = build_plan(t, &solver, &p);
            }
        }
        execute(t, &solver, &plan, &p)?;
    }
    t.exit(root, &[]);
    Ok(())
}

fn op_grad(t: &mut Tracer, file: &str, calls: usize, workers: usize) -> Res<()> {
    let root = t.enter("probe.grad");
    let p = GbParams::default();
    let mol = load(t, file)?;
    let solver = prepare(t, &mol);
    let plan = build_plan(t, &solver, &p);
    let s = plan.stats();
    let entries = (s.epol_near_entries + s.epol_far_entries) as f64;
    for _ in 0..calls {
        t.leaf(
            "grad",
            || solver.gradient_with_plan(&plan, &p),
            |r| match r {
                Ok(g) => vec![
                    ("epol_entries", entries),
                    ("pair_ops", g.work_grad.pair_ops as f64),
                ],
                Err(_) => Vec::new(),
            },
        )?;
    }
    t.leaf(
        "grad.parallel",
        || solver.gradient_with_plan_parallel_report(&plan, &p, workers),
        |r| match r {
            Ok((_, rep)) => steal_counts(rep),
            Err(_) => Vec::new(),
        },
    )?;
    t.exit(root, &[]);
    Ok(())
}

/// `polar minimize`: prepare, cold plan, start energy, then the
/// minimizer, whose inner layers are reached only through its report.
fn op_minimize(t: &mut Tracer, file: &str, iters: usize, workers: usize) -> Res<()> {
    let root = t.enter("relax.run");
    let p = GbParams::default();
    let mol = load(t, file)?;
    let mut solver = prepare(t, &mol);
    let mut plan = build_plan(t, &solver, &p);
    execute(t, &solver, &plan, &p)?;
    let cfg = MinimizeConfig {
        max_iters: iters,
        n_workers: workers,
        ..MinimizeConfig::default()
    };
    let out = t.leaf(
        "minimize",
        || polar_gb::minimize(&mut solver, &mut plan, &p, &cfg),
        |r| match r {
            Ok(o) => {
                let rep = &o.report;
                let evals: u64 = rep.rows.iter().map(|r| r.energy_evals).sum();
                vec![
                    ("iters", rep.iters as f64),
                    ("energy_evals", evals as f64),
                    ("patched", rep.total_patched as f64),
                    ("rebuilt", rep.total_rebuilt as f64),
                    ("reused", rep.total_reused as f64),
                    ("grad_s", rep.grad_seconds),
                    ("wall_s", rep.wall_s),
                ]
            }
            Err(_) => Vec::new(),
        },
    )?;
    t.exit(root, &[("epol_kcal", out.energy_kcal)]);
    Ok(())
}

/// `polar batch`: every manifest job's file is parsed, then one
/// `BatchEngine::run` does routing, builds and execution.
fn op_batch(t: &mut Tracer, cache_mb: usize, workers: usize, files: &[&str]) -> Res<()> {
    let root = t.enter("batch.manifest");
    let mut jobs = Vec::with_capacity(files.len());
    for f in files {
        jobs.push(BatchJob::new(load(t, f)?, GbParams::default()));
    }
    let mut engine = BatchEngine::new(cache_mb << 20, workers);
    t.leaf(
        "batch.run",
        || engine.run(&jobs),
        |(_, r)| {
            vec![
                ("jobs", r.jobs as f64),
                ("failed", r.failed as f64),
                ("hits", r.cache_hits as f64),
                ("patched", r.cache_patched as f64),
                ("misses", r.cache_misses as f64),
                ("evictions", r.cache_evictions as f64),
                ("bytes_held", r.cache_bytes_held as f64),
                ("arena_reuses", r.arena_reuses as f64),
            ]
        },
    );
    t.exit(root, &[]);
    Ok(())
}

/// One `polar serve` request minus the wire: parse the named file and
/// rescore it on the shared engine.
fn op_rescore(t: &mut Tracer, engine: &ServeEngine, file: &str) -> Res<()> {
    let root = t.enter("serve.request");
    let job = BatchJob::new(load(t, file)?, GbParams::default());
    let solve = t.leaf(
        "serve.rescore",
        || engine.rescore("default", &job, None),
        |r| match r {
            Ok(s) => vec![
                ("cache_hit", if s.cache_hit { 1.0 } else { 0.0 }),
                ("patched", if s.patched { 1.0 } else { 0.0 }),
                ("plan_s", s.plan_seconds),
                ("exec_s", s.exec_seconds),
                ("epol_kcal", s.result.epol_kcal),
            ],
            Err(_) => Vec::new(),
        },
    )?;
    t.exit(root, &[("epol_kcal", solve.result.epol_kcal)]);
    Ok(())
}

fn parse_usize(s: Option<&&str>, what: &str) -> Res<usize> {
    let s = s.ok_or_else(|| format!("missing {what}"))?;
    Ok(s.parse()?)
}

fn run(script: &str, spans: bool) -> Res<Tracer> {
    let mut t = Tracer::new(spans);
    let mut serve: Option<ServeEngine> = None;
    for (ln, line) in script.lines().enumerate() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let Some((&op, args)) = f.split_first() else {
            continue;
        };
        let need = |k: usize| -> Res<()> {
            if args.len() < k {
                return Err(format!("line {}: {op} needs {k} arguments", ln + 1).into());
            }
            Ok(())
        };
        match op {
            "solve" => {
                need(1)?;
                op_solve(&mut t, args[0])?
            }
            "plan" => {
                need(1)?;
                op_plan(&mut t, args[0])?
            }
            "psolve" => {
                need(2)?;
                op_psolve(&mut t, args[0], parse_usize(args.get(1), "workers")?)?
            }
            "frames" => {
                need(2)?;
                op_frames(&mut t, args[0], &args[1..])?
            }
            "grad" => {
                need(3)?;
                let calls = parse_usize(args.get(1), "calls")?;
                op_grad(&mut t, args[0], calls, parse_usize(args.get(2), "workers")?)?
            }
            "minimize" => {
                need(3)?;
                let iters = parse_usize(args.get(1), "iters")?;
                op_minimize(&mut t, args[0], iters, parse_usize(args.get(2), "workers")?)?
            }
            "batch" => {
                need(3)?;
                let mb = parse_usize(args.first(), "cache_mb")?;
                op_batch(&mut t, mb, parse_usize(args.get(1), "workers")?, &args[2..])?
            }
            "rescore" => {
                need(3)?;
                let mb = parse_usize(args.first(), "cache_mb")?;
                let workers = parse_usize(args.get(1), "workers")?;
                let engine = serve.get_or_insert_with(|| ServeEngine::new(mb << 20, None, workers));
                op_rescore(&mut t, engine, args[2])?
            }
            other => return Err(format!("line {}: unknown op {other:?}", ln + 1).into()),
        }
    }
    t.wall_s = t.t0.elapsed().as_secs_f64();
    Ok(t)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let spans = match (argv.len(), argv.get(2).map(String::as_str)) {
        (2, None) => true,
        (3, Some("--no-spans")) => false,
        _ => {
            eprintln!("usage: perfbench-tracer <script> <out.json> [--no-spans]");
            std::process::exit(2);
        }
    };
    let result = std::fs::read_to_string(&argv[0])
        .map_err(|e| -> Box<dyn std::error::Error> { format!("{}: {e}", argv[0]).into() })
        .and_then(|script| run(&script, spans))
        .and_then(|t| Ok(std::fs::write(&argv[1], t.to_json())?));
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
