//! Figure 6 — multi-node scaling for HG (1 pass), LL (2), MM (4).
//!
//! The paper scales 1..16 Edison nodes and reports per-step stacked times
//! and relative speedups (3.23x HG .. 7.5x MM at 16 nodes). Alongside the
//! wall-clock columns (their speedup bounded by the machine's cores) the
//! harness prints the per-task communication volume, which is
//! hardware-independent and reproduces the paper's communication
//! behaviour: bytes per task shrink as P grows while total traffic rises.

use crate::harness::{dataset, fmt_dur, fmt_mb, print_table};
use metaprep_core::{Pipeline, PipelineConfig, Step};
use metaprep_dist::NetworkModel;
use metaprep_synth::DatasetId;

/// Run the task sweep for the three datasets.
pub fn run(scale: f64) {
    for (id, passes) in [
        (DatasetId::Hg, 1usize),
        (DatasetId::Ll, 2),
        (DatasetId::Mm, 4),
    ] {
        let data = dataset(id, scale);
        let mut rows = Vec::new();
        let mut base = None;
        for p in [1usize, 2, 4, 8, 16] {
            let cfg = PipelineConfig::builder()
                .k(27)
                .passes(passes)
                .tasks(p)
                .threads(1)
                .build();
            let res = Pipeline::new(cfg).run_reads(&data.reads).expect("pipeline");
            let total = res.timings.total();
            let b = *base.get_or_insert(total.as_secs_f64());
            let max_bytes = res.comm.iter().map(|s| s.bytes_sent).max().unwrap_or(0);
            let sum_bytes: u64 = res.comm.iter().map(|s| s.bytes_sent).sum();
            let modeled = NetworkModel::edison().critical_path(&res.comm);
            rows.push(vec![
                p.to_string(),
                fmt_dur(res.timings.max_of(Step::KmerGen)),
                fmt_dur(res.timings.max_of(Step::KmerGenComm)),
                fmt_dur(res.timings.max_of(Step::LocalSort)),
                fmt_dur(res.timings.max_of(Step::LocalCc)),
                fmt_dur(res.timings.max_of(Step::MergeComm) + res.timings.max_of(Step::MergeCc)),
                fmt_dur(total),
                format!("{:.2}x", b / total.as_secs_f64()),
                fmt_mb(max_bytes),
                fmt_mb(sum_bytes),
                format!("{:.4}", modeled.as_secs_f64()),
            ]);
        }
        print_table(
            &format!("Figure 6: multi-node scaling, {} (S={passes})", id.name()),
            &[
                "Tasks",
                "KmerGen",
                "Comm",
                "LocalSort",
                "LocalCC",
                "Merge",
                "Total (s)",
                "Speedup",
                "MaxTask MB sent",
                "Total MB sent",
                "Modeled comm s (Edison)",
            ],
            &rows,
        );
    }
    println!(
        "  note: this machine has {} hardware core(s), so wall-clock speedup stops there; \
         MB-sent columns are hardware-independent",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
}
