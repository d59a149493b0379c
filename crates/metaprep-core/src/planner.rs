//! Adaptive pass planner: invert the §3.7 memory model for a budget.
//!
//! The paper treats the pass count `S` as an input the operator guesses
//! from Table 3. This module closes the loop: given the m-mer histogram
//! built during IndexCreate (which fixes the dataset's total tuple count
//! `M`) and the run geometry, it finds the **smallest** `S` whose modeled
//! per-task footprint fits a byte budget. Smallest, because every extra
//! pass is another full read of the input — the model's tuple terms
//! (`2·b·M/(S·P)`) are the only ones that shrink with `S`, so
//! `total_modeled` is monotone non-increasing in `S` (the
//! `more_passes_less_memory` test in [`crate::memmodel`]) and a linear
//! scan from 1 upward stops at the optimum.
//!
//! Infeasible budgets fail fast: the fixed terms (index tables, FASTQ
//! buffers, component arrays) do not shrink with more passes, so once the
//! scan's ceiling is reached the budget is simply too small for this
//! dataset/geometry and the planner says so rather than thrash through
//! hundreds of I/O passes.
//!
//! When the presolve tier is active the histogram total `M` counts
//! *enumerated* k-mers, i.e. it upper-bounds the tuples that survive the
//! [`metaprep_index::HighFreqFilter`] — the plan is conservative (never
//! under-provisions passes) and exact when presolve is off.

use crate::config::PipelineError;
use crate::memmodel::MemoryReport;

/// Ceiling on planner-chosen pass counts. Beyond this the tuple term is
/// already divided by three orders of magnitude; a budget still infeasible
/// here is dominated by the fixed terms and more passes cannot save it.
pub const MAX_PLANNED_PASSES: usize = 1024;

/// Everything [`MemoryReport::model`] needs, bundled so the planner and
/// the pipeline evaluate the *same* model with the same inputs.
#[derive(Copy, Clone, Debug)]
pub struct PlanInputs {
    /// m-mer prefix length.
    pub m: usize,
    /// Logical chunk count `C`.
    pub chunks: usize,
    /// Threads per task `T`.
    pub threads: usize,
    /// Average chunk size in bytes `s_c`.
    pub avg_chunk_bytes: u64,
    /// Total enumerated k-mers `M` (the merHist total).
    pub total_tuples: u64,
    /// Tuple size `size_of::<K::Tuple>()`: 12 for `k <= 32`, 20 above.
    pub tuple_bytes: usize,
    /// Task count `P`.
    pub tasks: usize,
    /// Fragment count `R`.
    pub reads: u64,
}

impl PlanInputs {
    /// Modeled per-task bytes at a given pass count.
    pub fn modeled_at(&self, passes: usize) -> u64 {
        MemoryReport::model(self, passes).total_modeled()
    }
}

/// A feasible plan: the chosen pass count and the model evaluation that
/// justified it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PassPlan {
    /// Smallest pass count fitting the budget.
    pub passes: usize,
    /// Modeled per-task bytes at that pass count.
    pub modeled_bytes: u64,
    /// The budget the plan was solved for.
    pub budget_bytes: u64,
}

/// Find the smallest pass count in `1..=MAX_PLANNED_PASSES` whose modeled
/// per-task footprint fits `budget` bytes. Errors when even the ceiling
/// cannot fit — the fixed footprint alone exceeds the budget.
pub fn plan_passes(inputs: &PlanInputs, budget: u64) -> Result<PassPlan, PipelineError> {
    for passes in 1..=MAX_PLANNED_PASSES {
        let modeled = inputs.modeled_at(passes);
        if modeled <= budget {
            return Ok(PassPlan {
                passes,
                modeled_bytes: modeled,
                budget_bytes: budget,
            });
        }
    }
    let floor = inputs.modeled_at(MAX_PLANNED_PASSES);
    let fixed = floor.saturating_sub(
        2 * (inputs
            .total_tuples
            .div_ceil(MAX_PLANNED_PASSES as u64 * inputs.tasks as u64)
            * inputs.tuple_bytes as u64),
    );
    Err(PipelineError::InvalidConfig(format!(
        "memory budget {budget} B is infeasible: even {MAX_PLANNED_PASSES} passes model \
         {floor} B/task (fixed tables/buffers/components alone are ~{fixed} B); \
         raise --memory-budget or shrink the geometry"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> PlanInputs {
        PlanInputs {
            m: 6,
            chunks: 16,
            threads: 1,
            avg_chunk_bytes: 1 << 16,
            total_tuples: 10_000_000,
            tuple_bytes: 12,
            tasks: 4,
            reads: 10_000,
        }
    }

    #[test]
    fn generous_budget_plans_one_pass() {
        let inp = inputs();
        let plan = plan_passes(&inp, u64::MAX).unwrap();
        assert_eq!(plan.passes, 1);
        assert_eq!(plan.modeled_bytes, inp.modeled_at(1));
    }

    #[test]
    fn planner_picks_the_smallest_fitting_pass_count() {
        let inp = inputs();
        for target in [2usize, 3, 8, 100] {
            // A budget exactly at the model of `target` passes must plan
            // `target` (monotone non-increasing model, strict among the
            // tuple-dominated counts used here).
            let budget = inp.modeled_at(target);
            let plan = plan_passes(&inp, budget).unwrap();
            assert_eq!(plan.passes, target, "budget for {target} passes");
            assert!(plan.modeled_bytes <= budget);
            if target > 1 {
                assert!(
                    inp.modeled_at(plan.passes - 1) > budget,
                    "one fewer pass should not have fit"
                );
            }
        }
    }

    #[test]
    fn infeasible_budget_is_a_config_error() {
        // 1 byte cannot hold the index tables regardless of passes.
        match plan_passes(&inputs(), 1) {
            Err(PipelineError::InvalidConfig(msg)) => {
                assert!(msg.contains("infeasible"), "{msg}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let inp = inputs();
        let budget = inp.modeled_at(5);
        assert_eq!(plan_passes(&inp, budget), plan_passes(&inp, budget));
    }
}
