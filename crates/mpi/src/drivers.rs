//! The distributed GB drivers — the paper's Fig. 4 algorithm.
//!
//! `OCT_MPI` is `P` ranks × 1 thread; `OCT_MPI+CILK` is `P` ranks × `p`
//! work-stealing threads. Each rank runs its segments through
//! [`polar_gb::exec::StageExec`], the executor the shared-memory solver
//! uses, so one rank of `p` threads splits its work exactly as
//! `OCT_CILK` on `p` workers does. Steps follow Fig. 4 exactly:
//!
//! 1. every rank holds the full octrees (replicated data; memory is
//!    accounted per rank),
//! 2. rank *i* runs `APPROX-INTEGRALS` for the *i*-th segment of `T_Q`
//!    leaves (node-based work division),
//! 3. partial integrals combine with `allreduce_sum`,
//! 4. rank *i* runs `PUSH-INTEGRALS-TO-ATOMS` for the *i*-th segment of
//!    atoms,
//! 5. Born radius segments combine with `allgather`,
//! 6. rank *i* computes the energy due to the *i*-th segment of `T_A`
//!    leaves,
//! 7. the partial energies combine with a scalar allreduce.

use crate::comm::Universe;
use crate::network::NetworkModel;
use polar_gb::born::octree::BornPartials;
use polar_gb::energy::octree::EpolCtx;
use polar_gb::exec::{StageExec, Traversal};
use polar_gb::partition::even_segments;
use polar_gb::report::{
    CommReport, PlanReport, SolveReport, StageReport, StealReport, TreeDepthStats,
};
use polar_gb::{GbParams, GbSolver, InteractionPlan, WorkCounts};
use polar_runtime::StealStats;

/// Configuration of a distributed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributedConfig {
    /// Number of MPI-style ranks (`P`).
    pub ranks: usize,
    /// Threads inside each rank (`p`): 1 ⇒ `OCT_MPI`, >1 ⇒ `OCT_MPI+CILK`.
    pub threads_per_rank: usize,
    /// Solver approximation parameters.
    pub params: GbParams,
    /// Interconnect model for simulated communication time.
    pub network: NetworkModel,
    /// Execute a pre-built [`InteractionPlan`]'s flat lists instead of
    /// the recursive traversals (rank *i* takes segment *i* of the
    /// plan's leaf lists). The plan is built once, before the ranks
    /// spawn, and counts toward each rank's replicated memory.
    pub use_plan: bool,
}

impl DistributedConfig {
    /// Pure distributed (`OCT_MPI`): one thread per rank.
    pub fn oct_mpi(ranks: usize, params: GbParams) -> Self {
        DistributedConfig {
            ranks,
            threads_per_rank: 1,
            params,
            network: NetworkModel::lonestar4_infiniband(),
            use_plan: false,
        }
    }

    /// Hybrid (`OCT_MPI+CILK`): `ranks` processes of `threads` workers.
    pub fn oct_mpi_cilk(ranks: usize, threads: usize, params: GbParams) -> Self {
        DistributedConfig {
            ranks,
            threads_per_rank: threads,
            params,
            network: NetworkModel::lonestar4_infiniband(),
            use_plan: false,
        }
    }

    /// Total parallelism `P·p` (the paper compares configurations at equal
    /// core counts).
    pub fn total_cores(&self) -> usize {
        self.ranks * self.threads_per_rank
    }
}

/// Result of a distributed run.
#[derive(Debug, Clone)]
pub struct DistributedRun {
    /// Final polarization energy (identical on every rank).
    pub epol_kcal: f64,
    /// Born radii, original atom order.
    pub born: Vec<f64>,
    /// Simulated wire seconds per rank.
    pub per_rank_comm_seconds: Vec<f64>,
    /// Payload bytes each rank pushed.
    pub per_rank_bytes_sent: Vec<u64>,
    /// Computation work each rank performed (Born + energy stages).
    pub per_rank_work: Vec<WorkCounts>,
    /// Born-stage work per rank (Steps 2–4).
    pub per_rank_work_born: Vec<WorkCounts>,
    /// Energy-stage work per rank (Step 6).
    pub per_rank_work_epol: Vec<WorkCounts>,
    /// Sum over ranks of replicated input bytes — the §IV.B memory cost.
    pub total_replicated_bytes: u64,
    /// Born-stage wall seconds: slowest rank (the stage's critical path).
    pub born_seconds: f64,
    /// Energy-stage wall seconds: slowest rank.
    pub epol_seconds: f64,
    /// Work-stealing counters concatenated across all per-rank pools
    /// (`None` for pure `OCT_MPI`, which runs no pool).
    pub steal: Option<StealStats>,
    /// Interaction-list statistics when the run executed a plan.
    pub plan_stats: Option<PlanReport>,
}

impl DistributedRun {
    /// Aggregate stage work over ranks — schedule- and `P`-independent:
    /// equals the serial solve's totals for the same molecule and ε.
    pub fn total_work_born(&self) -> WorkCounts {
        self.per_rank_work_born.iter().copied().sum()
    }

    /// Aggregate energy-stage work over ranks.
    pub fn total_work_epol(&self) -> WorkCounts {
        self.per_rank_work_epol.iter().copied().sum()
    }

    /// Build the structured [`SolveReport`] for this run: stage rows with
    /// rank-aggregated work, the simulated-communication section, and the
    /// hybrid pools' steal counters when present.
    pub fn report(&self, solver: &GbSolver, cfg: &DistributedConfig) -> SolveReport {
        let mode = if cfg.threads_per_rank == 1 {
            "oct_mpi"
        } else {
            "oct_mpi_cilk"
        };
        SolveReport {
            molecule: solver.name.clone(),
            mode: mode.to_string(),
            // Only the plan-execute path vectorizes; the recursive
            // per-rank traversals are always scalar strict-fp.
            kernel_mode: if self.plan_stats.is_some() {
                cfg.params.kernel.label().to_string()
            } else {
                polar_gb::KernelMode::Strict.label().to_string()
            },
            n_atoms: solver.n_atoms(),
            n_qpoints: solver.n_qpoints(),
            eps_born: cfg.params.eps_born,
            eps_epol: cfg.params.eps_epol,
            epol_kcal: self.epol_kcal,
            stages: vec![
                StageReport {
                    name: "born".into(),
                    wall_seconds: self.born_seconds,
                    work: self.total_work_born(),
                },
                StageReport {
                    name: "epol".into(),
                    wall_seconds: self.epol_seconds,
                    work: self.total_work_epol(),
                },
            ],
            tree_a: TreeDepthStats::for_tree(&solver.tree_a),
            tree_q: TreeDepthStats::for_tree(&solver.tree_q),
            steal: self.steal.as_ref().map(StealReport::from),
            comm: Some(CommReport {
                ranks: cfg.ranks,
                sim_seconds: self
                    .per_rank_comm_seconds
                    .iter()
                    .cloned()
                    .fold(0.0, f64::max),
                bytes_sent: self.per_rank_bytes_sent.iter().sum(),
                replicated_bytes: self.total_replicated_bytes,
            }),
            plan: self.plan_stats,
            fault: None,
            memory_bytes: solver.memory_bytes() as u64,
        }
    }
}

/// Execute the Fig. 4 algorithm on an in-process rank universe.
pub fn run_distributed(solver: &GbSolver, cfg: &DistributedConfig) -> DistributedRun {
    assert!(cfg.ranks >= 1 && cfg.threads_per_rank >= 1);
    let p = cfg.params;
    // Plan once, ahead of the rank universe: traversal cost is paid a
    // single time and the flat lists are replicated like the octrees.
    let plan = if cfg.use_plan {
        Some(solver.plan(&p))
    } else {
        None
    };
    let plan = plan.as_ref();
    let n_atoms = solver.n_atoms();
    let n_qleaves = solver.tree_q.leaves().len();
    let n_aleaves = solver.tree_a.leaves().len();
    let qleaf_segs = even_segments(n_qleaves, cfg.ranks);
    let atom_segs = even_segments(n_atoms, cfg.ranks);
    let aleaf_segs = even_segments(n_aleaves, cfg.ranks);

    struct RankOut {
        epol: f64,
        born: Vec<f64>,
        comm_s: f64,
        bytes: u64,
        work_born: WorkCounts,
        work_epol: WorkCounts,
        replicated: u64,
        born_s: f64,
        epol_s: f64,
        steal: Option<StealStats>,
    }

    let traversal = plan.map_or(Traversal::Recursive, Traversal::Plan);

    let outs = Universe::run(cfg.ranks, cfg.network, |comm| {
        let rank = comm.rank();
        // Step 1: replicated data (each process has a complete copy;
        // with a plan, its flat lists are replicated too).
        comm.register_replicated_memory(
            solver.memory_bytes() + plan.map_or(0, |pl| pl.memory_bytes()),
        );
        // Every stage runs on this rank's pool of `threads_per_rank`
        // workers (inline for `OCT_MPI`).
        let exec = StageExec::new(solver, &p, traversal, cfg.threads_per_rank);

        // Step 2: APPROX-INTEGRALS over this rank's q-leaf segment.
        let t_born = std::time::Instant::now();
        let mut partials = BornPartials::zeros(&solver.tree_a);
        let born_stage = exec.born_integrals(qleaf_segs[rank].clone(), &mut partials);
        let mut steal = born_stage.steal;

        // Step 3: Allreduce the partial integrals.
        let n_nodes = partials.s_node.len();
        let mut flat = std::mem::take(&mut partials.s_node);
        flat.extend_from_slice(&partials.s_atom);
        comm.allreduce_sum(&mut flat);
        let s_atom = flat.split_off(n_nodes);
        let totals = BornPartials {
            s_node: flat,
            s_atom,
        };

        // Step 4: PUSH-INTEGRALS-TO-ATOMS for this rank's atom segment.
        let my_atoms = atom_segs[rank].clone();
        let mut born_mine = vec![0.0; n_atoms];
        steal.merge(&exec.push(&totals, my_atoms.clone(), &mut born_mine));

        // Step 5: allgather Born radius segments (slot order on the wire,
        // original order in memory).
        let seg_vals: Vec<f64> = my_atoms
            .map(|slot| born_mine[solver.tree_a.order()[slot] as usize])
            .collect();
        let all_slot_vals = comm.allgather(&seg_vals);
        debug_assert_eq!(all_slot_vals.len(), n_atoms);
        let mut born = vec![0.0; n_atoms];
        for (slot, v) in all_slot_vals.into_iter().enumerate() {
            born[solver.tree_a.order()[slot] as usize] = v;
        }
        let born_s = t_born.elapsed().as_secs_f64();

        // Step 6: energy over this rank's T_A leaf segment.
        let t_epol = std::time::Instant::now();
        let ectx = EpolCtx::new(&solver.tree_a, &solver.charges, &born, p.eps_epol);
        let born_slot = solver.born_by_slot(&born);
        let (epol_part, epol_stage) = exec.epol(&ectx, &born_slot, aleaf_segs[rank].clone());
        steal.merge(&epol_stage.steal);
        let epol_s = t_epol.elapsed().as_secs_f64();

        // Step 7: accumulate the final energy.
        let epol = comm.allreduce_scalar(epol_part);

        RankOut {
            epol,
            born,
            comm_s: comm.sim_comm_seconds(),
            bytes: comm.bytes_sent(),
            work_born: born_stage.work,
            work_epol: epol_stage.work,
            replicated: comm.replicated_bytes(),
            born_s,
            epol_s,
            // Pure OCT_MPI runs no pool.
            steal: (cfg.threads_per_rank > 1).then_some(steal),
        }
    });

    let epol_kcal = outs[0].epol;
    for o in &outs {
        debug_assert!((o.epol - epol_kcal).abs() <= 1e-12 * epol_kcal.abs().max(1.0));
    }
    // Concatenate the per-rank pools' steal counters (disjoint workers).
    let steal = outs
        .iter()
        .filter_map(|o| o.steal.as_ref())
        .fold(None::<StealStats>, |acc, s| match acc {
            Some(mut acc) => {
                acc.concat(s);
                Some(acc)
            }
            None => Some(s.clone()),
        });
    DistributedRun {
        epol_kcal,
        born: outs[0].born.clone(),
        per_rank_comm_seconds: outs.iter().map(|o| o.comm_s).collect(),
        per_rank_bytes_sent: outs.iter().map(|o| o.bytes).collect(),
        per_rank_work: outs.iter().map(|o| o.work_born + o.work_epol).collect(),
        per_rank_work_born: outs.iter().map(|o| o.work_born).collect(),
        per_rank_work_epol: outs.iter().map(|o| o.work_epol).collect(),
        total_replicated_bytes: outs.iter().map(|o| o.replicated).sum(),
        born_seconds: outs.iter().map(|o| o.born_s).fold(0.0, f64::max),
        epol_seconds: outs.iter().map(|o| o.epol_s).fold(0.0, f64::max),
        steal,
        plan_stats: plan.map(InteractionPlan::stats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_molecule::generators;
    use polar_octree::OctreeConfig;
    use polar_surface::SurfaceConfig;

    fn solver(n: usize, seed: u64) -> GbSolver {
        let mol = generators::globular("d", n, seed);
        GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default())
    }

    #[test]
    fn distributed_matches_serial_octree_solve() {
        let s = solver(300, 21);
        let p = GbParams::default();
        let serial = s.solve(&p);
        for (ranks, threads) in [(1, 1), (2, 1), (4, 1), (2, 3), (3, 2)] {
            let run = run_distributed(
                &s,
                &DistributedConfig {
                    ranks,
                    threads_per_rank: threads,
                    params: p,
                    network: NetworkModel::lonestar4_infiniband(),
                    use_plan: false,
                },
            );
            assert!(
                (run.epol_kcal - serial.epol_kcal).abs() <= 1e-9 * serial.epol_kcal.abs(),
                "P={ranks} p={threads}: {} vs {}",
                run.epol_kcal,
                serial.epol_kcal
            );
            for (a, b) in run.born.iter().zip(&serial.born) {
                assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0));
            }
        }
    }

    #[test]
    fn node_based_division_keeps_result_independent_of_rank_count() {
        // The paper's key argument for node–node division (§IV.A): the
        // energy (hence the error) does not change with P.
        let s = solver(250, 22);
        let p = GbParams::default();
        let mut energies = Vec::new();
        for ranks in [1, 2, 3, 5] {
            let run = run_distributed(&s, &DistributedConfig::oct_mpi(ranks, p));
            energies.push(run.epol_kcal);
        }
        for w in energies.windows(2) {
            assert!((w[0] - w[1]).abs() <= 1e-9 * w[0].abs(), "{w:?}");
        }
    }

    #[test]
    fn hybrid_replicates_fewer_copies_than_pure_mpi_at_equal_cores() {
        // 6 cores as 6×1 (pure MPI) vs 2×3 (hybrid): memory ratio = 3.
        let s = solver(200, 23);
        let p = GbParams::default();
        let pure = run_distributed(&s, &DistributedConfig::oct_mpi(6, p));
        let hybrid = run_distributed(&s, &DistributedConfig::oct_mpi_cilk(2, 3, p));
        assert_eq!(
            pure.total_replicated_bytes,
            3 * hybrid.total_replicated_bytes
        );
    }

    #[test]
    fn more_ranks_cost_more_communication() {
        let s = solver(200, 24);
        let p = GbParams::default();
        let r2 = run_distributed(&s, &DistributedConfig::oct_mpi(2, p));
        let r6 = run_distributed(&s, &DistributedConfig::oct_mpi(6, p));
        let c2: f64 = r2.per_rank_comm_seconds.iter().sum();
        let c6: f64 = r6.per_rank_comm_seconds.iter().sum();
        assert!(c6 > c2, "{c6} vs {c2}");
        assert!(r2.per_rank_comm_seconds.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn work_is_distributed_across_ranks() {
        let s = solver(400, 25);
        let p = GbParams::default();
        let run = run_distributed(&s, &DistributedConfig::oct_mpi(4, p));
        let total: u64 = run.per_rank_work.iter().map(|w| w.pair_ops).sum();
        assert!(total > 0);
        for w in &run.per_rank_work {
            // No rank is idle; none does everything.
            assert!(w.pair_ops > 0);
            assert!(w.pair_ops < total);
        }
    }

    #[test]
    fn reports_agree_across_serial_parallel_and_mpi() {
        // The acceptance invariant of the observability layer: the same
        // molecule at the same ε reports *identical* stage WorkCounts
        // from the serial solver, the work-stealing parallel solver, and
        // every distributed configuration.
        let s = solver(250, 27);
        let p = GbParams::default();
        let (_, serial) = s.solve_with_report(&p);
        let (_, parallel) = s.solve_parallel_with_report(&p, 3);
        assert_eq!(serial.stage("born").work, parallel.stage("born").work);
        assert_eq!(serial.stage("epol").work, parallel.stage("epol").work);
        for (ranks, threads) in [(1, 1), (3, 1), (2, 2)] {
            let cfg = DistributedConfig {
                ranks,
                threads_per_rank: threads,
                params: p,
                network: NetworkModel::lonestar4_infiniband(),
                use_plan: false,
            };
            let run = run_distributed(&s, &cfg);
            let rep = run.report(&s, &cfg);
            assert_eq!(
                rep.stage("born").work,
                serial.stage("born").work,
                "P={ranks} p={threads}"
            );
            assert_eq!(
                rep.stage("epol").work,
                serial.stage("epol").work,
                "P={ranks} p={threads}"
            );
            assert_eq!(
                rep.mode,
                if threads == 1 {
                    "oct_mpi"
                } else {
                    "oct_mpi_cilk"
                }
            );
            let comm = rep.comm.expect("distributed report has a comm section");
            assert_eq!(comm.ranks, ranks);
            if ranks > 1 {
                assert!(comm.sim_seconds > 0.0);
                assert!(comm.bytes_sent > 0);
            }
            assert_eq!(rep.steal.is_some(), threads > 1);
            // Reports serialize without panicking and round out the row.
            assert!(rep.to_json().contains("\"mode\""));
            // Recursive distributed runs always report strict arithmetic.
            assert_eq!(rep.kernel_mode, "strict");
            assert_eq!(rep.to_csv_row().split(',').count(), 42);
        }
        // One rank of p threads splits its segments exactly as OCT_CILK
        // on p workers does: same bits, same stage work.
        for threads in [2, 3] {
            let (par, par_rep) = s.solve_parallel_with_report(&p, threads);
            let cfg = DistributedConfig::oct_mpi_cilk(1, threads, p);
            let run = run_distributed(&s, &cfg);
            let rep = run.report(&s, &cfg);
            assert_eq!(
                run.epol_kcal.to_bits(),
                par.epol_kcal.to_bits(),
                "p={threads}"
            );
            assert!(bits_equal(&run.born, &par.born), "p={threads}");
            assert_eq!(rep.stage("born").work, par_rep.stage("born").work);
            assert_eq!(rep.stage("epol").work, par_rep.stage("epol").work);
        }
    }

    fn bits_equal(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn planned_distributed_matches_recursive_distributed() {
        // Executing plan segments per rank in strict-fp mode must
        // reproduce the recursive drivers: Born radii bitwise (same
        // accumulation order), energy to machine precision, and the
        // report carries the plan section.
        let s = solver(300, 28);
        let p = GbParams {
            kernel: polar_gb::KernelMode::Strict,
            ..GbParams::default()
        };
        let serial = s.solve(&p);
        for (ranks, threads) in [(1, 1), (3, 1), (2, 2)] {
            let mut cfg = DistributedConfig::oct_mpi_cilk(ranks, threads, p);
            cfg.use_plan = true;
            let run = run_distributed(&s, &cfg);
            if ranks == 1 {
                // One rank replays the serial accumulation order exactly.
                assert_eq!(run.born, serial.born, "p={threads}");
            } else {
                // The allreduce sums rank partials in a different order
                // than the serial sweep — ulp-level, not bitwise.
                for (a, b) in run.born.iter().zip(&serial.born) {
                    assert!(
                        (a - b).abs() <= 1e-12 * b.abs().max(1.0),
                        "P={ranks} p={threads}: {a} vs {b}"
                    );
                }
            }
            assert!(
                (run.epol_kcal - serial.epol_kcal).abs() <= 1e-12 * serial.epol_kcal.abs(),
                "P={ranks} p={threads}: {} vs {}",
                run.epol_kcal,
                serial.epol_kcal
            );
            let rep = run.report(&s, &cfg);
            let plan = rep.plan.expect("planned run reports list stats");
            assert!(plan.born_near_entries > 0 && plan.plan_bytes > 0);
            // The plan's flat lists count as replicated bytes on top of
            // the octrees themselves.
            let mut base = cfg;
            base.use_plan = false;
            let recursive = run_distributed(&s, &base);
            assert!(run.total_replicated_bytes > recursive.total_replicated_bytes);
            // Executing lists re-visits no tree nodes.
            assert_eq!(run.total_work_born().nodes_visited, 0);
            assert_eq!(rep.kernel_mode, "strict");
            assert_eq!(rep.to_csv_row().split(',').count(), 42);
        }
        // One rank of p threads executes the plan exactly as the plan
        // solver on p workers, in both kernel modes.
        for kernel in [polar_gb::KernelMode::Strict, polar_gb::KernelMode::Lane] {
            let p = GbParams { kernel, ..p };
            let plan = s.plan(&p);
            for threads in [2, 3] {
                let (par, par_rep) = s
                    .solve_with_plan_parallel_report(&plan, &p, threads)
                    .unwrap();
                let mut cfg = DistributedConfig::oct_mpi_cilk(1, threads, p);
                cfg.use_plan = true;
                let run = run_distributed(&s, &cfg);
                let rep = run.report(&s, &cfg);
                let what = format!("{kernel:?} p={threads}");
                assert_eq!(run.epol_kcal.to_bits(), par.epol_kcal.to_bits(), "{what}");
                assert!(bits_equal(&run.born, &par.born), "{what}");
                assert_eq!(rep.stage("born").work, par_rep.stage("born").work, "{what}");
                assert_eq!(rep.stage("epol").work, par_rep.stage("epol").work, "{what}");
            }
        }
    }

    #[test]
    fn lane_planned_distributed_tracks_recursive_to_machine_precision() {
        // Default (lane) kernels across the rank universe: the vector
        // near-field re-associates, so Born radii agree to ulp grade and
        // E_pol within the 1e-12 lane contract; the report says "lane".
        let s = solver(300, 28);
        let p = GbParams::default();
        let serial = s.solve(&p);
        for (ranks, threads) in [(1, 1), (3, 1), (2, 2)] {
            let mut cfg = DistributedConfig::oct_mpi_cilk(ranks, threads, p);
            cfg.use_plan = true;
            let run = run_distributed(&s, &cfg);
            for (a, b) in run.born.iter().zip(&serial.born) {
                assert!(
                    (a - b).abs() <= 1e-11 * b.abs().max(1.0),
                    "P={ranks} p={threads}: {a} vs {b}"
                );
            }
            assert!(
                (run.epol_kcal - serial.epol_kcal).abs() <= 1e-12 * serial.epol_kcal.abs(),
                "P={ranks} p={threads}: {} vs {}",
                run.epol_kcal,
                serial.epol_kcal
            );
            let rep = run.report(&s, &cfg);
            assert_eq!(rep.kernel_mode, "lane");
        }
    }

    #[test]
    fn single_rank_single_thread_equals_serial_counts() {
        let s = solver(150, 26);
        let p = GbParams::default();
        let serial = s.solve(&p);
        let run = run_distributed(&s, &DistributedConfig::oct_mpi(1, p));
        assert_eq!(
            run.per_rank_work[0].pair_ops,
            serial.work_born.pair_ops + serial.work_epol.pair_ops
        );
    }
}
