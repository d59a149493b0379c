//! Table 4 — comparison with the AP_LB metagenome partitioning approach.
//!
//! AP_LB (Flick et al.) labels read-graph components with an iterative
//! Shiloach–Vishkin algorithm needing 19–21 iterations on the paper's
//! datasets; METAPREP needs `ceil(log2 P)` merge rounds. The harness runs
//! the full METAPREP pipeline against an SV run over the explicit read
//! graph (edge construction included for SV, since AP_LB materializes and
//! sorts edges every iteration).

use crate::harness::{dataset, fmt_dur, print_table};
use metaprep_cc::{shiloach_vishkin, ComponentStats};
use metaprep_core::{Pipeline, PipelineConfig};
use metaprep_kmer::{for_each_canonical_kmer, Kmer64};
use metaprep_synth::DatasetId;
use std::collections::HashMap;
use std::time::Instant;

/// Run the comparison for HG, LL, MM.
pub fn run(scale: f64) {
    let tasks = 8usize;
    let mut rows = Vec::new();
    for id in [DatasetId::Hg, DatasetId::Ll, DatasetId::Mm] {
        let data = dataset(id, scale);

        // METAPREP end-to-end.
        let cfg = PipelineConfig::builder()
            .k(27)
            .tasks(tasks)
            .threads(1)
            .build();
        let t0 = Instant::now();
        let res = Pipeline::new(cfg).run_reads(&data.reads).expect("pipeline");
        let mp_time = t0.elapsed();

        // AP_LB stand-in: explicit read-graph edges + Shiloach–Vishkin.
        let t0 = Instant::now();
        let mut groups: HashMap<u64, Vec<u32>> = HashMap::new();
        for (seq, frag) in data.reads.iter() {
            for_each_canonical_kmer::<Kmer64>(seq, 27, |v, _| {
                groups.entry(v).or_default().push(frag);
            });
        }
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (_, rs) in groups {
            for w in rs.windows(2) {
                if w[0] != w[1] {
                    edges.push((w[0], w[1]));
                }
            }
        }
        let sv = shiloach_vishkin(data.reads.num_fragments() as usize, &edges);
        let sv_time = t0.elapsed();

        // Both must find the same partition.
        let a = ComponentStats::from_component_array(&res.labels);
        let b = ComponentStats::from_component_array(&sv.labels);
        assert_eq!(a.components, b.components, "SV partition disagrees");

        rows.push(vec![
            id.name().to_string(),
            fmt_dur(mp_time),
            fmt_dur(sv_time),
            format!("{:.2}x", sv_time.as_secs_f64() / mp_time.as_secs_f64()),
            format!("{}", sv.iterations),
            format!("{}", (tasks as f64).log2().ceil() as usize),
        ]);
    }
    print_table(
        "Table 4: METAPREP vs AP_LB (Shiloach-Vishkin) on 8 tasks",
        &[
            "Dataset",
            "METAPREP (s)",
            "AP_LB/SV (s)",
            "Speedup",
            "SV iters",
            "Merge rounds",
        ],
        &rows,
    );
    println!("  note: paper reports 2.25x-4.22x with SV needing 19-21 iterations");
}
