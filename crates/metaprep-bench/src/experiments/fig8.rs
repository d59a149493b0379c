//! Figure 8 — load balance among 16 tasks (MM dataset).
//!
//! The paper's box plot shows KmerGen, LocalSort and LocalCC-Opt tightly
//! balanced (thanks to the index-driven static partitioning) while the
//! MergeCC stages spread out (fewer tasks participate in later rounds).
//! This harness prints the five-number summary per step — nearest-rank
//! quartiles, the same `five_number` `metaprep analyze` prints —
//! plus the per-task tuple counts whose tightness is the mechanism behind
//! the balance.

use crate::harness::{dataset, print_table};
use metaprep_core::{Pipeline, PipelineConfig, Step};
use metaprep_index::{MerHist, RangePlan};
use metaprep_obs::analysis::five_number;
use metaprep_synth::DatasetId;

/// Run MM on 16 tasks and print load-balance summaries.
pub fn run(scale: f64) {
    let data = dataset(DatasetId::Mm, scale);
    let p = 16usize;
    let cfg = PipelineConfig::builder()
        .k(27)
        .passes(4)
        .tasks(p)
        .threads(1)
        .build();
    let res = Pipeline::new(cfg).run_reads(&data.reads).expect("pipeline");

    let mut rows = Vec::new();
    for step in [
        Step::KmerGen,
        Step::KmerGenComm,
        Step::LocalSort,
        Step::LocalCc,
        Step::MergeComm,
        Step::MergeCc,
        Step::CcIo,
    ] {
        let per_task: Vec<f64> = res
            .timings
            .per_task
            .iter()
            .map(|t| t.get(step).as_secs_f64())
            .collect();
        let [min, q1, med, q3, max] = five_number(&per_task);
        rows.push(vec![
            step.name().to_string(),
            format!("{min:.4}"),
            format!("{q1:.4}"),
            format!("{med:.4}"),
            format!("{q3:.4}"),
            format!("{max:.4}"),
        ]);
    }
    print_table(
        "Figure 8: load balance among 16 tasks, MM (seconds per step)",
        &["Step", "min", "q1", "median", "q3", "max"],
        &rows,
    );

    // The mechanism: per-task tuple counts under the index-driven split.
    let mh = MerHist::build(&data.reads, 27, 8);
    let plan = RangePlan::build(&mh, 4, p, 1);
    let mut counts: Vec<u64> = Vec::new();
    for task in 0..p {
        let mut c = 0u64;
        for pass in 0..4 {
            let (lo, hi) = plan.task_bin_range(pass, task);
            c += mh.count_in_bins(lo, hi);
        }
        counts.push(c);
    }
    let min = *counts.iter().min().expect("nonempty");
    let max = *counts.iter().max().expect("nonempty");
    let avg = counts.iter().sum::<u64>() / p as u64;
    println!(
        "  tuples per task: min={min} avg={avg} max={max} (max/avg = {:.3})",
        max as f64 / avg as f64
    );
}
