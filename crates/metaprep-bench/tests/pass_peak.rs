//! What a pass costs in memory: the allocator peak of one-thread pipeline
//! runs over one synthetic input at several task and pass counts.
//!
//! A task owns one tuple buffer from pass to pass — the previous pass's
//! self-addressed part becomes the next pass's, and LocalSort groups the
//! received parts where they lie — so on one task the peak falls with the
//! pass count (§3.7, Table 3), and on two tasks a pass holds its received
//! tuples once. Run with `--nocapture` to see the peaks.

use metaprep_bench::allocpeak::{self, PeakAlloc};
use metaprep_bench::harness::dataset;
use metaprep_core::{Pipeline, PipelineConfig};
use metaprep_synth::DatasetId;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

#[test]
fn the_peak_falls_with_the_pass_count() {
    allocpeak::mark_installed();
    let reads = dataset(DatasetId::Mm, 0.25).reads;
    let run = |tasks: usize, passes: usize| {
        let cfg = PipelineConfig::builder()
            .k(27)
            .m(6)
            .tasks(tasks)
            .threads(1)
            .passes(passes)
            .build();
        allocpeak::reset_peak();
        let before = allocpeak::current_bytes();
        let labels = Pipeline::new(cfg).run_reads(&reads).unwrap().labels;
        (labels, (allocpeak::peak_bytes() - before) as f64)
    };
    let (labels, one) = run(1, 1);
    let peak = |tasks, passes| {
        let (got, peak) = run(tasks, passes);
        assert!(got == labels, "P={tasks} S={passes}: labels differ");
        peak
    };
    let (two, four, two_tasks) = (peak(1, 2), peak(1, 4), peak(2, 2));
    let mb = |b: f64| b / 1e6;
    let report = format!(
        "peak MB: (1,1) {:.1}, (1,2) {:.1}, (1,4) {:.1}, (2,2) {:.1}",
        mb(one),
        mb(two),
        mb(four),
        mb(two_tasks)
    );
    println!("{report}");
    assert!(two <= 0.65 * one, "{report}");
    assert!(four <= 0.65 * two, "{report}");
    assert!(two_tasks <= 0.85 * one, "{report}");
}
