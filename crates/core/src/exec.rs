//! The stage executor: the one place that decides which traversal runs a
//! stage and how a stage's range is split over workers.
//!
//! The paper's parallel variants (`OCT_CILK`, `OCT_MPI`, `OCT_MPI+CILK`,
//! Fig. 4) run the same per-segment work — `APPROX-INTEGRALS` over a range
//! of `T_Q` leaves, `PUSH-INTEGRALS-TO-ATOMS` over a range of atom slots,
//! `APPROX-EPOL` over a range of `T_A` leaves — and differ only in who
//! owns each range. A [`StageExec`] runs one stage over one range:
//!
//! * the [`Traversal`] is the recursive octree walk or a prebuilt
//!   [`InteractionPlan`]'s flat lists;
//! * with one worker the whole range is one task run inline on the
//!   caller's thread (no pool), so every serial solve is this case;
//! * with more workers the range is cut into [`task_ranges`] and run on
//!   [`polar_runtime::run_batch`]. Task results combine in task order, so
//!   answers never depend on the steal schedule.

use crate::born::octree::{
    approx_integrals_into, push_integrals_to_atoms, push_integrals_to_atoms_slots, BornPartials,
};
use crate::constants::tau;
use crate::energy::gradient::GradientError;
use crate::energy::octree::{epol_for_leaf_segment, EpolCtx};
use crate::partition::even_segments;
use crate::plan::InteractionPlan;
use crate::solver::{GbParams, GbSolver};
use crate::stats::WorkCounts;
use polar_geom::Vec3;
use polar_runtime::StealStats;
use std::ops::Range;

/// Which traversal computes a stage's interactions.
#[derive(Clone, Copy)]
pub enum Traversal<'a> {
    /// The recursive Fig. 2/3 octree walks (always scalar strict-fp).
    Recursive,
    /// A prebuilt plan's flat interaction lists, in the arithmetic of
    /// [`GbParams::kernel`].
    Plan(&'a InteractionPlan),
}

/// A solve stage; each has its own task shape in [`task_ranges`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// `APPROX-INTEGRALS` over `T_Q` leaves.
    Born,
    /// `PUSH-INTEGRALS-TO-ATOMS` over atom slots.
    Push,
    /// `APPROX-EPOL` over `T_A` leaves.
    Epol,
    /// The analytic gradient over `T_A` leaves.
    Gradient,
}

impl Stage {
    /// Lower-case stage name (fault schedules address stages by it).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Born => "born",
            Stage::Push => "push",
            Stage::Epol => "epol",
            Stage::Gradient => "gradient",
        }
    }
}

/// How `0..n` items of `stage` split into tasks for `workers` workers:
/// one task for one worker; otherwise q-leaf chunks of `n/(8w)` for the
/// Born integrals (each task amortizes one partials buffer),
/// `even_segments(n, 4w)` for the push and `even_segments(n, 8w)` for the
/// energy and gradient. Empty ranges are dropped.
pub fn task_ranges(stage: Stage, n: usize, workers: usize) -> Vec<Range<usize>> {
    if workers <= 1 {
        return even_segments(n, 1);
    }
    let ranges = match stage {
        Stage::Born => {
            let chunk = (n / (workers * 8)).max(1);
            (0..n)
                .step_by(chunk)
                .map(|s| s..(s + chunk).min(n))
                .collect()
        }
        Stage::Push => even_segments(n, workers * 4),
        Stage::Epol | Stage::Gradient => even_segments(n, workers * 8),
    };
    ranges.into_iter().filter(|r| !r.is_empty()).collect()
}

/// What one stage call did: its work and the pool's scheduler counters.
#[derive(Debug, Clone)]
pub struct StageStats {
    /// Interaction work of the stage (zero for the push).
    pub work: WorkCounts,
    /// Per-worker task and steal counts; one worker that ran one task
    /// when the stage ran inline.
    pub steal: StealStats,
}

/// Runs solve stages of one solver over item ranges.
pub struct StageExec<'a> {
    solver: &'a GbSolver,
    p: GbParams,
    traversal: Traversal<'a>,
    workers: usize,
}

impl<'a> StageExec<'a> {
    /// An executor for `solver` at `p`; `workers` of 0 counts as 1.
    pub fn new(
        solver: &'a GbSolver,
        p: &GbParams,
        traversal: Traversal<'a>,
        workers: usize,
    ) -> StageExec<'a> {
        StageExec {
            solver,
            p: *p,
            traversal,
            workers: workers.max(1),
        }
    }

    /// Run `task` over the split of `range`, returning the task results
    /// in task order.
    fn split<T, F>(&self, stage: Stage, range: Range<usize>, task: F) -> (Vec<T>, StealStats)
    where
        T: Send,
        F: Fn(Range<usize>) -> T + Sync,
    {
        if self.workers == 1 {
            return (vec![task(range)], inline_stats());
        }
        let task = &task;
        let tasks: Vec<_> = task_ranges(stage, range.len(), self.workers)
            .into_iter()
            .map(|r| move || task(range.start + r.start..range.start + r.end))
            .collect();
        polar_runtime::run_batch(self.workers, tasks)
    }

    /// One Born task: the integrals of the `T_Q` leaves `qleaves`,
    /// accumulated into `part`.
    pub fn born_task(&self, qleaves: Range<usize>, part: &mut BornPartials, work: &mut WorkCounts) {
        let ctx = self.solver.born_ctx();
        match self.traversal {
            Traversal::Recursive => {
                approx_integrals_into(&ctx, self.p.eps_born, qleaves, part, work)
            }
            Traversal::Plan(plan) => {
                plan.execute_born_segment(&ctx, qleaves, self.p.kernel, part, work)
            }
        }
    }

    /// Born integrals of the `T_Q` leaves `qleaves`, accumulated into
    /// `out` (zeroed by the caller). One worker accumulates straight into
    /// `out`; more add their per-task partials into it in task order.
    pub fn born_integrals(&self, qleaves: Range<usize>, out: &mut BornPartials) -> StageStats {
        let mut work = WorkCounts::ZERO;
        if self.workers == 1 {
            self.born_task(qleaves, out, &mut work);
            return StageStats {
                work,
                steal: inline_stats(),
            };
        }
        let (parts, steal) = self.split(Stage::Born, qleaves, |r| {
            let mut w = WorkCounts::ZERO;
            let mut part = BornPartials::zeros(&self.solver.tree_a);
            self.born_task(r, &mut part, &mut w);
            (part, w)
        });
        for (part, w) in parts {
            out.add(&part);
            work.accumulate(w);
        }
        StageStats { work, steal }
    }

    /// Push the combined integrals `totals` down to the atom slots
    /// `slots`, writing each Born radius to `born[original index]`.
    pub fn push(&self, totals: &BornPartials, slots: Range<usize>, born: &mut [f64]) -> StealStats {
        let ctx = self.solver.born_ctx();
        if self.workers == 1 {
            push_integrals_to_atoms(&ctx, totals, slots, self.p.math, born);
            return inline_stats();
        }
        // Each task fills a buffer sized for its own segment; a full
        // n_atoms buffer per task would make the push O(n_atoms · tasks).
        let (pieces, steal) = self.split(Stage::Push, slots, |r| {
            let mut out = vec![0.0; r.len()];
            push_integrals_to_atoms_slots(&ctx, totals, r.clone(), self.p.math, &mut out);
            (r, out)
        });
        let order = self.solver.tree_a.order();
        for (r, piece) in pieces {
            for (slot, v) in r.zip(piece) {
                born[order[slot] as usize] = v;
            }
        }
        steal
    }

    /// One energy task: `E_pol` due to the `T_A` leaves `leaves`.
    /// `born_slot` holds the Born radii in Morton slot order; only the
    /// plan kernels read it.
    pub fn epol_task(
        &self,
        ectx: &EpolCtx<'_>,
        born_slot: &[f64],
        leaves: Range<usize>,
        work: &mut WorkCounts,
    ) -> f64 {
        let p = &self.p;
        match self.traversal {
            Traversal::Recursive => {
                epol_for_leaf_segment(ectx, p.eps_epol, p.math, tau(p.eps_solvent), leaves, work)
            }
            Traversal::Plan(plan) => plan.execute_epol_segment(
                ectx,
                born_slot,
                p.math,
                p.kernel,
                tau(p.eps_solvent),
                leaves,
                work,
            ),
        }
    }

    /// `E_pol` due to the `T_A` leaves `leaves`, summed in task order.
    pub fn epol(
        &self,
        ectx: &EpolCtx<'_>,
        born_slot: &[f64],
        leaves: Range<usize>,
    ) -> (f64, StageStats) {
        let (parts, steal) = self.split(Stage::Epol, leaves, |r| {
            let mut w = WorkCounts::ZERO;
            let e = self.epol_task(ectx, born_slot, r, &mut w);
            (e, w)
        });
        let mut work = WorkCounts::ZERO;
        let mut e = 0.0;
        for (part, w) in parts {
            e += part;
            work.accumulate(w);
        }
        (e, StageStats { work, steal })
    }

    /// Analytic frozen-Born-radii gradient of the `T_A` leaves `leaves`
    /// (non-empty), written to `grad[original index]`. Each task owns the
    /// contiguous slot span of its leaves, so for fixed Born radii the
    /// result is bitwise the same for any worker count.
    ///
    /// Panics on a [`Traversal::Recursive`] executor: only a plan carries
    /// the gradient lists.
    pub(crate) fn gradient(
        &self,
        born_slot: &[f64],
        inv_born: &[f64],
        leaves: Range<usize>,
        grad: &mut [Vec3],
    ) -> Result<StageStats, GradientError> {
        let Traversal::Plan(plan) = self.traversal else {
            panic!("the gradient stage replays a plan's lists");
        };
        let tree = &self.solver.tree_a;
        let p = &self.p;
        let (parts, steal) = self.split(Stage::Gradient, leaves, |r| {
            // Leaves are Morton-ordered, so a leaf range's target slots
            // form one contiguous span.
            let lo = tree.node(tree.leaves()[r.start]).start as usize;
            let hi = tree.node(tree.leaves()[r.end - 1]).end as usize;
            let mut w = WorkCounts::ZERO;
            let (mut gx, mut gy, mut gz) =
                (vec![0.0; hi - lo], vec![0.0; hi - lo], vec![0.0; hi - lo]);
            let res = plan.execute_gradient_segment(
                tree,
                born_slot,
                inv_born,
                p.math,
                p.kernel,
                tau(p.eps_solvent),
                r,
                lo,
                &mut gx,
                &mut gy,
                &mut gz,
                &mut w,
            );
            (lo, gx, gy, gz, w, res)
        });
        let mut work = WorkCounts::ZERO;
        for (lo, gx, gy, gz, w, res) in parts {
            res?;
            work.accumulate(w);
            for k in 0..gx.len() {
                grad[tree.order()[lo + k] as usize] = Vec3::new(gx[k], gy[k], gz[k]);
            }
        }
        Ok(StageStats { work, steal })
    }
}

/// Scheduler counters of a stage run inline: one worker, one task.
fn inline_stats() -> StealStats {
    StealStats {
        executed: vec![1],
        steals: vec![0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_ranges_tile_the_items_without_empty_tasks() {
        for stage in [Stage::Born, Stage::Push, Stage::Epol, Stage::Gradient] {
            for n in [0, 1, 7, 40, 1000] {
                for workers in [1, 2, 3, 8] {
                    let r = task_ranges(stage, n, workers);
                    assert!(
                        crate::partition::segments_tile(&r, n),
                        "{stage:?} {n} {workers}"
                    );
                    if workers == 1 {
                        assert_eq!(r, even_segments(n, 1));
                    } else {
                        assert!(r.iter().all(|s| !s.is_empty()));
                    }
                }
            }
        }
        // The solver's historical task shapes.
        assert_eq!(task_ranges(Stage::Born, 100, 2).len(), 17);
        assert_eq!(task_ranges(Stage::Push, 100, 2).len(), 8);
        assert_eq!(task_ranges(Stage::Epol, 100, 2).len(), 16);
    }
}
