//! High-level GB solver: build once, solve for any ε.
//!
//! [`GbSolver`] owns the two octrees and the quadrature points; its
//! methods implement the serial reference and the shared-memory parallel
//! variant (the paper's `OCT_CILK`, here on `polar-runtime`'s
//! work-stealing pool — the same randomized-stealing discipline as
//! cilk++). Every method runs its stages through [`crate::exec`], which
//! the distributed drivers in `polar-mpi` share; the cluster simulator in
//! `polar-cluster` replays the per-leaf work profiles below.

use crate::born::exact as born_exact;
use crate::born::octree::{BornOctreeCtx, BornPartials, QDipole};
use crate::constants::tau;
use crate::energy::exact as energy_exact;
use crate::energy::gradient::GradientError;
use crate::energy::octree::{epol_for_leaf_segment, EpolCtx};
use crate::exec::{StageExec, Traversal};
use crate::kernels::KernelMode;
use crate::plan::{InteractionPlan, PlanError};
use crate::report::{SolveReport, StageReport, StealReport, TreeDepthStats};
use crate::stats::WorkCounts;
use polar_geom::{MathMode, Vec3};
use polar_molecule::Molecule;
use polar_octree::{Octree, OctreeConfig};
use polar_runtime::StealStats;
use polar_surface::{QuadPoint, SurfaceConfig};

/// Tunable solve parameters (paper §V.C uses ε = 0.9 for both stages).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbParams {
    /// Approximation parameter for the Born radius stage (Fig. 2).
    pub eps_born: f64,
    /// Approximation parameter for the energy stage (Fig. 3).
    pub eps_epol: f64,
    /// Exact or approximate math kernels (paper's "approximate math").
    pub math: MathMode,
    /// Solvent dielectric (80 = water).
    pub eps_solvent: f64,
    /// Plan execute arithmetic: vectorized lane kernels (default) or the
    /// scalar strict-fp reference (CLI `--strict-fp`). Only affects
    /// plan-execute solves; the recursive traversals are always scalar.
    pub kernel: KernelMode,
}

impl Default for GbParams {
    fn default() -> Self {
        GbParams {
            eps_born: 0.9,
            eps_epol: 0.9,
            math: MathMode::Exact,
            eps_solvent: crate::constants::EPS_WATER,
            kernel: KernelMode::default(),
        }
    }
}

/// Output of a solve.
#[derive(Debug, Clone)]
pub struct GbResult {
    /// Born radii, original atom order (Å).
    pub born: Vec<f64>,
    /// Polarization energy (kcal/mol); negative for any real molecule.
    pub epol_kcal: f64,
    /// Work done by the Born stage.
    pub work_born: WorkCounts,
    /// Work done by the energy stage.
    pub work_epol: WorkCounts,
}

/// Output of a plan-path gradient evaluation: one plan replay yields
/// the energy *and* its analytic frozen-Born-radii gradient (the value/
/// gradient pair every line-search minimizer asks for per iterate),
/// sharing a single Born stage.
#[derive(Debug, Clone)]
pub struct GradResult {
    /// `∂E_pol/∂x` per atom, original atom order (kcal/mol/Å); the
    /// *force* is its negation.
    pub grad: Vec<Vec3>,
    /// Polarization energy at the evaluation point (kcal/mol).
    pub epol_kcal: f64,
    /// Born radii the gradient froze, original atom order (Å).
    pub born: Vec<f64>,
    /// Work done by the Born stage.
    pub work_born: WorkCounts,
    /// Work done by the energy stage.
    pub work_epol: WorkCounts,
    /// Work done by the gradient stage (exact pairwise far expansion, so
    /// its `pair_ops` exceed the energy stage's).
    pub work_grad: WorkCounts,
}

impl GradResult {
    /// Max-norm of the gradient (kcal/mol/Å) — the minimizer's
    /// convergence measure.
    pub fn grad_max(&self) -> f64 {
        self.grad
            .iter()
            .flat_map(|g| [g.x.abs(), g.y.abs(), g.z.abs()])
            .fold(0.0, f64::max)
    }

    /// Root-mean-square gradient component (kcal/mol/Å).
    pub fn grad_rms(&self) -> f64 {
        if self.grad.is_empty() {
            return 0.0;
        }
        let ss: f64 = self.grad.iter().map(|g| g.norm_sq()).sum();
        (ss / (3.0 * self.grad.len() as f64)).sqrt()
    }
}

/// Reusable per-worker solve buffers — everything a plan-execute solve
/// would otherwise allocate per call (Born partials, Born radii in both
/// orders, the charge-bin histograms) lives here and is recycled across
/// solves. One arena per batch worker; never shared between threads.
pub struct SolveScratch {
    partials: BornPartials,
    born: Vec<f64>,
    born_slot: Vec<f64>,
    hist: Vec<f64>,
    nonzero_bins: Vec<u32>,
    /// Number of solves that have run out of this arena.
    pub reuses: u64,
}

impl SolveScratch {
    /// An empty arena; buffers grow to fit the first solve and are
    /// recycled afterwards.
    pub fn new() -> SolveScratch {
        SolveScratch {
            partials: BornPartials {
                s_node: Vec::new(),
                s_atom: Vec::new(),
            },
            born: Vec::new(),
            born_slot: Vec::new(),
            hist: Vec::new(),
            nonzero_bins: Vec::new(),
            reuses: 0,
        }
    }

    /// Heap bytes currently held by the arena's buffers.
    pub fn memory_bytes(&self) -> usize {
        (self.partials.s_node.capacity()
            + self.partials.s_atom.capacity()
            + self.born.capacity()
            + self.born_slot.capacity()
            + self.hist.capacity())
            * 8
            + self.nonzero_bins.capacity() * 4
    }

    /// Zeroed Born partials sized for `tree`, reusing capacity.
    fn partials_for(&mut self, tree: &Octree) -> &mut BornPartials {
        let p = &mut self.partials;
        p.s_node.clear();
        p.s_node.resize(tree.node_count(), 0.0);
        p.s_atom.clear();
        p.s_atom.resize(tree.len(), 0.0);
        p
    }
}

impl Default for SolveScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// What one [`GbSolver::apply_frame`] coordinate update did to the
/// prepared octrees — the input [`InteractionPlan::delta`] classifies.
#[derive(Debug, Clone, Default)]
pub struct FrameDelta {
    /// Atom-tree refresh summary.
    pub a: polar_octree::RefreshDelta,
    /// Q-point-tree refresh summary.
    pub q: polar_octree::RefreshDelta,
    /// Largest single-point displacement across both trees (Å).
    pub max_disp: f64,
}

/// Stage wall times and merged scheduler counters of one solve.
pub(crate) struct SolveTiming {
    born_s: f64,
    epol_s: f64,
    grad_s: f64,
    /// Counters of every task batch the solve ran, merged per worker.
    pub(crate) steal: StealStats,
}

/// The prepared solver: molecule data + both octrees + q-point aggregates.
#[derive(Clone)]
pub struct GbSolver {
    pub name: String,
    pub atom_pos: Vec<Vec3>,
    pub atom_radii: Vec<f64>,
    pub charges: Vec<f64>,
    pub qpoints: Vec<QuadPoint>,
    pub tree_a: Octree,
    pub tree_q: Octree,
    /// Per-`T_Q`-node pseudo-q-point normal sums.
    pub q_nsum: Vec<Vec3>,
    /// Per-`T_Q`-node dipole moments (far-field first-order correction).
    pub q_dipole: Vec<QDipole>,
    /// Bumped by every [`GbSolver::apply_frame`]; plans record the
    /// version they were built/patched at so a stale plan is rejected
    /// instead of silently executing over moved coordinates.
    pub geom_version: u64,
}

impl GbSolver {
    /// Build from a molecule: generates the surface quadrature and both
    /// octrees (the paper's pre-processing Step 1, O(M log M)).
    pub fn for_molecule(
        mol: &Molecule,
        surface: &SurfaceConfig,
        tree_cfg: &OctreeConfig,
    ) -> GbSolver {
        let qpoints = mol.surface(surface);
        Self::from_parts(
            mol.name.clone(),
            mol.positions(),
            mol.radii(),
            mol.charges(),
            qpoints,
            tree_cfg,
        )
    }

    /// Build from pre-computed parts (e.g. a surface loaded from disk).
    pub fn from_parts(
        name: String,
        atom_pos: Vec<Vec3>,
        atom_radii: Vec<f64>,
        charges: Vec<f64>,
        qpoints: Vec<QuadPoint>,
        tree_cfg: &OctreeConfig,
    ) -> GbSolver {
        assert_eq!(atom_pos.len(), atom_radii.len());
        assert_eq!(atom_pos.len(), charges.len());
        let tree_a = tree_cfg.build(&atom_pos);
        let qpos: Vec<Vec3> = qpoints.iter().map(|q| q.pos).collect();
        let tree_q = tree_cfg.build(&qpos);
        let q_nsum = BornOctreeCtx::q_normal_sums(&tree_q, &qpoints);
        let q_dipole = BornOctreeCtx::q_dipole_moments(&tree_q, &qpoints, &q_nsum);
        GbSolver {
            name,
            atom_pos,
            atom_radii,
            charges,
            qpoints,
            tree_a,
            tree_q,
            q_nsum,
            q_dipole,
            geom_version: 0,
        }
    }

    /// Move the prepared solver to a trajectory frame's coordinates
    /// without rebuilding anything: atoms take `new_pos`, every surface
    /// quadrature point translates rigidly with its owner atom (frozen
    /// surface topology — the small-displacement approximation the delta
    /// model is scoped to), both octrees refresh in place rescanning only
    /// the subtrees that actually moved, and the `T_Q` far-field
    /// aggregates are recomputed. Leaf topology (Morton permutation,
    /// ranges) is untouched, which is what keeps existing
    /// [`InteractionPlan`] segments spliceable.
    ///
    /// `slack` is the octree containment slack (see
    /// [`polar_octree::Octree::refresh`]); if any point drifted outside
    /// its leaf's slackened cell the trees are left untouched and
    /// `Err(escaped_count)` tells the caller to rebuild the solver cold.
    /// `tolerance` is the node-geometry drift tolerance (see
    /// [`polar_octree::Octree::refresh_delta`] and
    /// [`crate::plan::ReplanConfig::tolerance`]): node centroids/radii
    /// stay bitwise-frozen while accumulated drift stays below it, which
    /// is what makes in-tolerance frames patch without any traversal;
    /// pass `0.0` for exact geometry every frame. On success the
    /// solver's geometry version is bumped and the returned
    /// [`FrameDelta`] feeds [`InteractionPlan::delta`].
    pub fn apply_frame(
        &mut self,
        new_pos: &[Vec3],
        slack: f64,
        tolerance: f64,
    ) -> Result<FrameDelta, usize> {
        assert_eq!(new_pos.len(), self.n_atoms());
        let mut qpos: Vec<Vec3> = Vec::with_capacity(self.qpoints.len());
        for q in &self.qpoints {
            let owner = q.owner as usize;
            qpos.push(q.pos + (new_pos[owner] - self.atom_pos[owner]));
        }
        // Refresh T_A first; if T_Q then fails, T_A must roll back so the
        // solver is never left half-moved.
        let saved_a = self.tree_a.clone();
        let a = self.tree_a.refresh_delta(new_pos, slack, tolerance)?;
        let q = match self.tree_q.refresh_delta(&qpos, slack, tolerance) {
            Ok(q) => q,
            Err(escaped) => {
                self.tree_a = saved_a;
                return Err(escaped);
            }
        };
        self.atom_pos.clear();
        self.atom_pos.extend_from_slice(new_pos);
        for (qp, pos) in self.qpoints.iter_mut().zip(&qpos) {
            qp.pos = *pos;
        }
        self.q_nsum = BornOctreeCtx::q_normal_sums(&self.tree_q, &self.qpoints);
        self.q_dipole = BornOctreeCtx::q_dipole_moments(&self.tree_q, &self.qpoints, &self.q_nsum);
        self.geom_version += 1;
        let max_disp = a.max_point_disp.max(q.max_point_disp);
        Ok(FrameDelta { a, q, max_disp })
    }

    /// Rescan both octrees' node geometry exactly at the *current*
    /// coordinates, clearing any drift left by delta-tolerant frames,
    /// and bump the geometry version (existing plans become stale —
    /// their SoA node centers predate the rescan).
    ///
    /// Call before re-planning cold after a
    /// [`crate::plan::PlanDelta::Rebuild`]: the fresh plan then measures
    /// its margins against exact geometry and inherits full drift
    /// headroom, instead of the nearly-expired drift counters that made
    /// the old plan unpatchable in the first place (which would force
    /// the *next* frame to rebuild again).
    pub fn resync_geometry(&mut self) {
        let pos = self.atom_pos.clone();
        let qpos: Vec<Vec3> = self.qpoints.iter().map(|q| q.pos).collect();
        // Positions are unchanged, so containment cannot fail at any
        // slack; tolerance 0 forces an exact rescan of every drifted
        // leaf and resets its counter.
        self.tree_a
            .refresh_delta(&pos, f64::INFINITY, 0.0)
            .expect("unmoved points cannot escape");
        self.tree_q
            .refresh_delta(&qpos, f64::INFINITY, 0.0)
            .expect("unmoved points cannot escape");
        self.q_nsum = BornOctreeCtx::q_normal_sums(&self.tree_q, &self.qpoints);
        self.q_dipole = BornOctreeCtx::q_dipole_moments(&self.tree_q, &self.qpoints, &self.q_nsum);
        self.geom_version += 1;
    }

    /// Number of atoms (the paper's `M`).
    pub fn n_atoms(&self) -> usize {
        self.atom_pos.len()
    }

    /// Number of surface quadrature points (the paper's `N`).
    pub fn n_qpoints(&self) -> usize {
        self.qpoints.len()
    }

    /// The Born-stage traversal context.
    pub fn born_ctx(&self) -> BornOctreeCtx<'_> {
        BornOctreeCtx {
            tree_a: &self.tree_a,
            tree_q: &self.tree_q,
            qpoints: &self.qpoints,
            q_nsum: &self.q_nsum,
            q_dipole: &self.q_dipole,
            atom_radii: &self.atom_radii,
        }
    }

    /// Bytes of input data a purely distributed rank must replicate
    /// (atoms + q-points + both trees + aggregates). The basis of the
    /// paper's §IV.B memory argument for hybrid parallelism.
    pub fn memory_bytes(&self) -> usize {
        self.atom_pos.len() * 24
            + self.atom_radii.len() * 8
            + self.charges.len() * 8
            + self.qpoints.len() * std::mem::size_of::<QuadPoint>()
            + self.tree_a.memory_bytes()
            + self.tree_q.memory_bytes()
            + self.q_nsum.len() * 24
            + self.q_dipole.len() * std::mem::size_of::<QDipole>()
    }

    // ---------------------------------------------------------------
    // Recursive octree solver (serial and OCT_CILK)
    // ---------------------------------------------------------------

    /// Octree-approximated Born radii (serial; all leaf segments).
    pub fn born_radii(&self, p: &GbParams) -> (Vec<f64>, WorkCounts) {
        let exec = StageExec::new(self, p, Traversal::Recursive, 1);
        let mut totals = BornPartials::zeros(&self.tree_a);
        let stage = exec.born_integrals(0..self.tree_q.leaves().len(), &mut totals);
        let mut born = vec![0.0; self.n_atoms()];
        exec.push(&totals, 0..self.n_atoms(), &mut born);
        (born, stage.work)
    }

    /// Octree-approximated E_pol given Born radii (serial).
    pub fn epol(&self, born: &[f64], p: &GbParams) -> (f64, WorkCounts) {
        let ctx = EpolCtx::new(&self.tree_a, &self.charges, born, p.eps_epol);
        let exec = StageExec::new(self, p, Traversal::Recursive, 1);
        let (e, stage) = exec.epol(&ctx, &[], 0..self.tree_a.leaves().len());
        (e, stage.work)
    }

    /// Full serial octree solve.
    pub fn solve(&self, p: &GbParams) -> GbResult {
        self.solve_exec(Traversal::Recursive, p, 1, &mut SolveScratch::new())
            .0
    }

    /// Serial solve plus a structured [`SolveReport`] (per-stage wall
    /// time and work, tree shape, memory footprint).
    pub fn solve_with_report(&self, p: &GbParams) -> (GbResult, SolveReport) {
        let (result, timing) =
            self.solve_exec(Traversal::Recursive, p, 1, &mut SolveScratch::new());
        let report = self.base_report("serial", p, &result, &timing);
        (result, report)
    }

    /// Work-stealing parallel solve (`OCT_CILK` on `polar_runtime`'s
    /// cilk-style pool) plus a [`SolveReport`] with real per-stage
    /// [`WorkCounts`] and merged scheduler counters from all three task
    /// batches (integrals, push, energy).
    ///
    /// The stage work totals are schedule-independent: they equal the
    /// serial solve's exactly, whatever the steal pattern was.
    pub fn solve_parallel_with_report(
        &self,
        p: &GbParams,
        n_workers: usize,
    ) -> (GbResult, SolveReport) {
        let (result, timing) =
            self.solve_exec(Traversal::Recursive, p, n_workers, &mut SolveScratch::new());
        let mut report = self.base_report("parallel", p, &result, &timing);
        report.steal = Some(StealReport::from(&timing.steal));
        (result, report)
    }

    /// The one solve pipeline behind every `solve*` method: Born
    /// integrals over all `T_Q` leaves, push to all atoms, energy over
    /// all `T_A` leaves, each stage on a [`StageExec`] of `workers`
    /// workers, with every buffer taken from `scratch`.
    fn solve_exec(
        &self,
        traversal: Traversal<'_>,
        p: &GbParams,
        workers: usize,
        scratch: &mut SolveScratch,
    ) -> (GbResult, SolveTiming) {
        let exec = StageExec::new(self, p, traversal, workers);
        let n = self.n_atoms();
        let t0 = std::time::Instant::now();
        let totals = scratch.partials_for(&self.tree_a);
        let born_stage = exec.born_integrals(0..self.tree_q.leaves().len(), totals);
        scratch.born.clear();
        scratch.born.resize(n, 0.0);
        let mut steal = born_stage.steal;
        steal.merge(&exec.push(&scratch.partials, 0..n, &mut scratch.born));
        let born_s = t0.elapsed().as_secs_f64();

        let t1 = std::time::Instant::now();
        let ectx = EpolCtx::new_reusing(
            &self.tree_a,
            &self.charges,
            &scratch.born,
            p.eps_epol,
            std::mem::take(&mut scratch.hist),
            std::mem::take(&mut scratch.nonzero_bins),
        );
        scratch.born_slot.clear();
        scratch.born_slot.extend(
            self.tree_a
                .order()
                .iter()
                .map(|&o| scratch.born[o as usize]),
        );
        let (epol_kcal, epol_stage) =
            exec.epol(&ectx, &scratch.born_slot, 0..self.tree_a.leaves().len());
        (scratch.hist, scratch.nonzero_bins) = ectx.into_buffers();
        scratch.reuses += 1;
        steal.merge(&epol_stage.steal);
        let epol_s = t1.elapsed().as_secs_f64();
        (
            GbResult {
                born: scratch.born.clone(),
                epol_kcal,
                work_born: born_stage.work,
                work_epol: epol_stage.work,
            },
            SolveTiming {
                born_s,
                epol_s,
                grad_s: 0.0,
                steal,
            },
        )
    }

    /// Shared skeleton of every report this solver emits: identity,
    /// stage rows, tree shapes, memory. Callers attach steal/plan
    /// sections for their execution mode.
    fn base_report(
        &self,
        mode: &str,
        p: &GbParams,
        result: &GbResult,
        timing: &SolveTiming,
    ) -> SolveReport {
        SolveReport {
            molecule: self.name.clone(),
            mode: mode.to_string(),
            // Only plan-execute paths honour `p.kernel`; the recursive
            // traversals are always scalar strict-fp.
            kernel_mode: if mode.starts_with("plan") {
                p.kernel.label().to_string()
            } else {
                KernelMode::Strict.label().to_string()
            },
            n_atoms: self.n_atoms(),
            n_qpoints: self.n_qpoints(),
            eps_born: p.eps_born,
            eps_epol: p.eps_epol,
            epol_kcal: result.epol_kcal,
            stages: vec![
                StageReport {
                    name: "born".into(),
                    wall_seconds: timing.born_s,
                    work: result.work_born,
                },
                StageReport {
                    name: "epol".into(),
                    wall_seconds: timing.epol_s,
                    work: result.work_epol,
                },
            ],
            tree_a: TreeDepthStats::for_tree(&self.tree_a),
            tree_q: TreeDepthStats::for_tree(&self.tree_q),
            steal: None,
            comm: None,
            plan: None,
            fault: None,
            memory_bytes: self.memory_bytes() as u64,
        }
    }

    // ---------------------------------------------------------------
    // Plan + execute solver (flat interaction lists)
    // ---------------------------------------------------------------

    /// Build a reusable [`InteractionPlan`]: run both separation
    /// traversals once, emit flat SoA interaction lists. Amortized over
    /// repeated solves (the paper's ZDock re-scoring workload).
    pub fn plan(&self, p: &GbParams) -> InteractionPlan {
        InteractionPlan::build(self, p)
    }

    /// Solve by executing a previously built plan's interaction lists —
    /// no tree traversal. In [`KernelMode::Strict`] Born radii are
    /// bitwise identical to [`GbSolver::solve`]; in the default
    /// [`KernelMode::Lane`] they agree to ulp grade. E_pol matches to
    /// machine precision (≤ 1e-12 relative) in both modes.
    ///
    /// The plan must have been built from *this* solver at the same ε:
    /// a cheap fingerprint check rejects foreign/stale plans with a
    /// typed [`PlanError`] instead of silently computing wrong energies.
    pub fn solve_with_plan(
        &self,
        plan: &InteractionPlan,
        p: &GbParams,
    ) -> Result<GbResult, PlanError> {
        self.solve_with_plan_workers(plan, p, 1)
    }

    /// As [`GbSolver::solve_with_plan`], but working out of a reusable
    /// scratch arena: the Born partials, Born radii, slot permutation and
    /// charge-bin histogram buffers all come from `scratch` and go back
    /// into it, so repeated solves allocate nothing but the returned
    /// result. This is the batch engine's per-worker fast path.
    pub fn solve_with_plan_scratch(
        &self,
        plan: &InteractionPlan,
        p: &GbParams,
        scratch: &mut SolveScratch,
    ) -> Result<GbResult, PlanError> {
        plan.check_compatible(self, p)?;
        Ok(self.solve_exec(Traversal::Plan(plan), p, 1, scratch).0)
    }

    /// As [`GbSolver::solve_with_plan`], plus a [`SolveReport`]
    /// (mode `"plan"`) carrying the plan's list statistics.
    pub fn solve_with_plan_report(
        &self,
        plan: &InteractionPlan,
        p: &GbParams,
    ) -> Result<(GbResult, SolveReport), PlanError> {
        plan.check_compatible(self, p)?;
        let (result, timing) =
            self.solve_exec(Traversal::Plan(plan), p, 1, &mut SolveScratch::new());
        let mut report = self.base_report("plan", p, &result, &timing);
        report.plan = Some(plan.stats());
        Ok((result, report))
    }

    /// Plan-execute solve on the work-stealing pool: the plan's per-leaf
    /// list segments are chunked through [`polar_runtime::run_batch`]
    /// (mode `"plan_parallel"`), so steal counters keep working.
    pub fn solve_with_plan_parallel_report(
        &self,
        plan: &InteractionPlan,
        p: &GbParams,
        n_workers: usize,
    ) -> Result<(GbResult, SolveReport), PlanError> {
        plan.check_compatible(self, p)?;
        let (result, timing) = self.solve_exec(
            Traversal::Plan(plan),
            p,
            n_workers,
            &mut SolveScratch::new(),
        );
        let mut report = self.base_report("plan_parallel", p, &result, &timing);
        report.steal = Some(StealReport::from(&timing.steal));
        report.plan = Some(plan.stats());
        Ok((result, report))
    }

    /// Plan-execute solve on `workers` workers without a report (one
    /// worker is the serial path).
    pub(crate) fn solve_with_plan_workers(
        &self,
        plan: &InteractionPlan,
        p: &GbParams,
        workers: usize,
    ) -> Result<GbResult, PlanError> {
        plan.check_compatible(self, p)?;
        Ok(self
            .solve_exec(Traversal::Plan(plan), p, workers, &mut SolveScratch::new())
            .0)
    }

    /// Permute original-order Born radii into Morton slot order — the
    /// layout the plan's SoA energy loop streams over.
    pub fn born_by_slot(&self, born: &[f64]) -> Vec<f64> {
        assert_eq!(born.len(), self.n_atoms());
        self.tree_a
            .order()
            .iter()
            .map(|&o| born[o as usize])
            .collect()
    }

    // ---------------------------------------------------------------
    // Plan-path analytic gradients
    // ---------------------------------------------------------------

    /// Energy + analytic frozen-Born-radii gradient from one plan
    /// replay: the Born and energy stages run exactly as
    /// [`GbSolver::solve_with_plan`], then the gradient stage replays
    /// the same energy lists with far entries expanded pairwise, so the
    /// result matches `epol_gradient_naive` to ~1e-12 per component in
    /// both kernel modes (it is a pure summation reorder) while coming
    /// out of the same plan build/patch the energies amortize.
    pub fn gradient_with_plan(
        &self,
        plan: &InteractionPlan,
        p: &GbParams,
    ) -> Result<GradResult, GradientError> {
        Ok(self.gradient_exec(plan, p, 1)?.0)
    }

    /// Parallel plan-path gradient (mode `"plan_gradient_parallel"`):
    /// Born/energy stages as [`GbSolver::solve_with_plan_parallel_report`],
    /// then gradient leaf segments fan out over the work-stealing pool.
    /// Each task owns a disjoint contiguous slot span (its leaves'
    /// targets) and results merge by task index, so for fixed Born
    /// radii the gradient stage is **bitwise identical** for any worker
    /// count or steal schedule. End-to-end output tracks the serial
    /// path at ulp grade only, because the parallel Born stage
    /// re-associates per-chunk partials. The report's steal section
    /// covers all four task batches (integrals, push, energy, gradient).
    pub fn gradient_with_plan_parallel_report(
        &self,
        plan: &InteractionPlan,
        p: &GbParams,
        n_workers: usize,
    ) -> Result<(GradResult, SolveReport), GradientError> {
        let (result, timing) = self.gradient_exec(plan, p, n_workers)?;
        let report = self.gradient_report(plan, p, &result, &timing);
        Ok((result, report))
    }

    /// The solve pipeline followed by the gradient stage, all on
    /// `workers` workers; the timing's steal counters merge all four
    /// task batches.
    pub(crate) fn gradient_exec(
        &self,
        plan: &InteractionPlan,
        p: &GbParams,
        workers: usize,
    ) -> Result<(GradResult, SolveTiming), GradientError> {
        plan.check_compatible(self, p)?;
        let mut scratch = SolveScratch::new();
        let (solve, mut timing) = self.solve_exec(Traversal::Plan(plan), p, workers, &mut scratch);
        let t2 = std::time::Instant::now();
        let born_slot = &scratch.born_slot;
        let inv_born: Vec<f64> = born_slot.iter().map(|&r| 1.0 / r).collect();
        let mut grad = vec![Vec3::ZERO; self.n_atoms()];
        let stage = StageExec::new(self, p, Traversal::Plan(plan), workers).gradient(
            born_slot,
            &inv_born,
            0..self.tree_a.leaves().len(),
            &mut grad,
        )?;
        timing.steal.merge(&stage.steal);
        timing.grad_s = t2.elapsed().as_secs_f64();
        Ok((
            GradResult {
                grad,
                epol_kcal: solve.epol_kcal,
                born: solve.born,
                work_born: solve.work_born,
                work_epol: solve.work_epol,
                work_grad: stage.work,
            },
            timing,
        ))
    }

    /// The `"plan_gradient_parallel"` report: solve stages plus a third
    /// `"gradient"` row, the merged steal counters and the plan's stats.
    fn gradient_report(
        &self,
        plan: &InteractionPlan,
        p: &GbParams,
        result: &GradResult,
        timing: &SolveTiming,
    ) -> SolveReport {
        let proxy = GbResult {
            born: Vec::new(),
            epol_kcal: result.epol_kcal,
            work_born: result.work_born,
            work_epol: result.work_epol,
        };
        let mut report = self.base_report("plan_gradient_parallel", p, &proxy, timing);
        report.stages.push(StageReport {
            name: "gradient".into(),
            wall_seconds: timing.grad_s,
            work: result.work_grad,
        });
        report.steal = Some(StealReport::from(&timing.steal));
        report.plan = Some(plan.stats());
        report
    }

    // ---------------------------------------------------------------
    // Naive reference
    // ---------------------------------------------------------------

    /// Naive O(M·N) Born radii (Eq. 4).
    pub fn born_naive(&self, p: &GbParams) -> Vec<f64> {
        born_exact::born_radii_r6(&self.atom_pos, &self.atom_radii, &self.qpoints, p.math)
    }

    /// Naive O(M²) E_pol (Eq. 2).
    pub fn epol_naive(&self, born: &[f64], p: &GbParams) -> f64 {
        energy_exact::epol_naive(
            &self.atom_pos,
            &self.charges,
            born,
            tau(p.eps_solvent),
            p.math,
        )
    }

    // ---------------------------------------------------------------
    // Work profiling for the cluster simulator
    // ---------------------------------------------------------------

    /// Per-`T_Q`-leaf work of the Born stage — the task sizes the paper's
    /// node-based division hands to ranks/threads. Real counts from the
    /// real traversal; the simulator replays them.
    pub fn born_work_per_qleaf(&self, p: &GbParams) -> Vec<WorkCounts> {
        use crate::born::octree::approx_integrals_into;
        let ctx = self.born_ctx();
        // One shared accumulator buffer (values unused here): per-leaf
        // allocation would dominate at capsid scale.
        let mut scratch = BornPartials::zeros(&self.tree_a);
        (0..self.tree_q.leaves().len())
            .map(|i| {
                let mut counts = WorkCounts::ZERO;
                approx_integrals_into(&ctx, p.eps_born, i..i + 1, &mut scratch, &mut counts);
                counts
            })
            .collect()
    }

    /// Per-`T_A`-leaf work of the energy stage.
    pub fn epol_work_per_leaf(&self, born: &[f64], p: &GbParams) -> Vec<WorkCounts> {
        let ctx = EpolCtx::new(&self.tree_a, &self.charges, born, p.eps_epol);
        let t = tau(p.eps_solvent);
        (0..self.tree_a.leaves().len())
            .map(|i| {
                let mut counts = WorkCounts::ZERO;
                let _ = epol_for_leaf_segment(&ctx, p.eps_epol, p.math, t, i..i + 1, &mut counts);
                counts
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_molecule::generators;

    fn solver(n: usize, seed: u64) -> GbSolver {
        let mol = generators::globular("s", n, seed);
        GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default())
    }

    #[test]
    fn solve_produces_negative_energy_and_valid_radii() {
        let s = solver(200, 1);
        let r = s.solve(&GbParams::default());
        assert!(r.epol_kcal < 0.0, "E_pol = {}", r.epol_kcal);
        assert_eq!(r.born.len(), 200);
        for (b, v) in r.born.iter().zip(&s.atom_radii) {
            assert!(*b >= *v, "Born radius below vdW: {b} < {v}");
            assert!(b.is_finite());
        }
        assert!(r.work_born.pair_ops > 0);
        assert!(r.work_epol.pair_ops > 0);
    }

    #[test]
    fn octree_solve_tracks_naive_within_a_percent_at_eps_09() {
        let s = solver(400, 2);
        let p = GbParams::default();
        let r = s.solve(&p);
        let born_naive = s.born_naive(&p);
        let e_naive = s.epol_naive(&born_naive, &p);
        let rel = ((r.epol_kcal - e_naive) / e_naive).abs();
        // Paper: < 1% error w.r.t. naive at ε = 0.9/0.9.
        assert!(
            rel < 0.01,
            "octree {} vs naive {e_naive} (rel {rel})",
            r.epol_kcal
        );
    }

    #[test]
    fn parallel_matches_serial() {
        let s = solver(300, 3);
        let p = GbParams::default();
        let serial = s.solve(&p);
        let (par, _) = s.solve_parallel_with_report(&p, 3);
        for (a, b) in serial.born.iter().zip(&par.born) {
            assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{a} vs {b}");
        }
        assert!(
            (serial.epol_kcal - par.epol_kcal).abs() <= 1e-9 * serial.epol_kcal.abs(),
            "{} vs {}",
            serial.epol_kcal,
            par.epol_kcal
        );
    }

    #[test]
    fn work_profiles_sum_to_full_run() {
        let s = solver(250, 4);
        let p = GbParams::default();
        let (born, full_born) = s.born_radii(&p);
        let per_leaf: WorkCounts = s.born_work_per_qleaf(&p).into_iter().sum();
        assert_eq!(per_leaf.pair_ops, full_born.pair_ops);
        assert_eq!(per_leaf.far_ops, full_born.far_ops);
        let (_, full_epol) = s.epol(&born, &p);
        let per_leaf_e: WorkCounts = s.epol_work_per_leaf(&born, &p).into_iter().sum();
        assert_eq!(per_leaf_e.pair_ops, full_epol.pair_ops);
        assert_eq!(per_leaf_e.far_ops, full_epol.far_ops);
        // The work-stealing parallel path reports the same totals — its
        // chunking must not change what work gets counted.
        let (par_result, par_report) = s.solve_parallel_with_report(&p, 3);
        assert_eq!(par_result.work_born, full_born);
        assert_eq!(par_result.work_epol, full_epol);
        assert_eq!(par_report.total_work(), full_born + full_epol);
        let steal = par_report
            .steal
            .expect("parallel report carries steal stats");
        assert!(steal.total_executed > 0);
    }

    #[test]
    fn parallel_gradient_steal_section_covers_all_four_batches() {
        use crate::exec::{task_ranges, Stage};
        let s = solver(300, 9);
        let p = GbParams::default();
        let plan = s.plan(&p);
        let workers = 3;
        let (result, timing) = s.gradient_exec(&plan, &p, workers).unwrap();
        let report = s.gradient_report(&plan, &p, &result, &timing);
        assert_eq!(report.steal, Some(StealReport::from(&timing.steal)));
        // The merged counters span the same workers and every task of the
        // integrals, push, energy and gradient batches.
        let tasks = |stage, n| task_ranges(stage, n, workers).len() as u64;
        let (n_q, n_a) = (s.tree_q.leaves().len(), s.tree_a.leaves().len());
        assert_eq!(timing.steal.executed.len(), workers);
        assert_eq!(
            timing.steal.total_executed(),
            tasks(Stage::Born, n_q)
                + tasks(Stage::Push, s.n_atoms())
                + tasks(Stage::Epol, n_a)
                + tasks(Stage::Gradient, n_a)
        );
        let (_, public) = s
            .gradient_with_plan_parallel_report(&plan, &p, workers)
            .unwrap();
        let steal = public.steal.expect("parallel gradient reports steals");
        assert_eq!(steal.workers, workers);
        assert_eq!(steal.total_executed, timing.steal.total_executed());
    }

    #[test]
    fn serial_report_is_populated() {
        let s = solver(200, 8);
        let (r, rep) = s.solve_with_report(&GbParams::default());
        assert_eq!(rep.mode, "serial");
        assert_eq!(rep.epol_kcal, r.epol_kcal);
        assert_eq!(rep.n_atoms, 200);
        assert!(rep.total_wall_seconds() > 0.0);
        assert!(rep.total_work().pair_ops > 0);
        assert!(rep.total_work().far_ops > 0);
        assert!(rep.memory_bytes > 0);
        assert_eq!(rep.tree_q.leaf_count, s.tree_q.leaves().len());
        assert_eq!(rep.tree_a.leaf_count, s.tree_a.leaves().len());
        assert!(rep.steal.is_none() && rep.comm.is_none());
    }

    #[test]
    fn memory_accounting_is_positive_and_linear_ish() {
        let s1 = solver(200, 5);
        let s2 = solver(400, 5);
        assert!(s1.memory_bytes() > 0);
        let ratio = s2.memory_bytes() as f64 / s1.memory_bytes() as f64;
        assert!(ratio > 1.3 && ratio < 3.5, "ratio {ratio}");
    }

    #[test]
    fn docking_transform_reuses_octrees() {
        // Moving the whole system rigidly must not change the energy.
        use polar_geom::transform::{RigidTransform, Rotation};
        let mol = generators::globular("t", 150, 6);
        let p = GbParams::default();
        let s1 = GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default());
        let r1 = s1.solve(&p);
        let xf = RigidTransform {
            rotation: Rotation::axis_angle(Vec3::new(0.0, 1.0, 0.3), 0.8),
            translation: Vec3::new(25.0, -10.0, 5.0),
        };
        // Transform the prepared octrees directly (no rebuild).
        let tree_a = s1.tree_a.transformed(&xf);
        let tree_q = s1.tree_q.transformed(&xf);
        let qpoints: Vec<QuadPoint> = s1
            .qpoints
            .iter()
            .map(|q| QuadPoint {
                pos: xf.apply_point(q.pos),
                normal: xf.apply_direction(q.normal),
                ..*q
            })
            .collect();
        let q_nsum = BornOctreeCtx::q_normal_sums(&tree_q, &qpoints);
        let q_dipole = BornOctreeCtx::q_dipole_moments(&tree_q, &qpoints, &q_nsum);
        let s2 = GbSolver {
            name: "moved".into(),
            atom_pos: s1.atom_pos.iter().map(|&p| xf.apply_point(p)).collect(),
            atom_radii: s1.atom_radii.clone(),
            charges: s1.charges.clone(),
            q_nsum,
            q_dipole,
            qpoints,
            tree_a,
            tree_q,
            geom_version: 0,
        };
        let r2 = s2.solve(&p);
        assert!(
            (r1.epol_kcal - r2.epol_kcal).abs() <= 1e-6 * r1.epol_kcal.abs(),
            "{} vs {}",
            r1.epol_kcal,
            r2.epol_kcal
        );
    }
}
