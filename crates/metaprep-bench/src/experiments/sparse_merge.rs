//! Extension experiment — component encoding on the wire (paper §5's
//! future-work direction, after Iverson et al.'s contraction methods).
//!
//! A task's components travel as a `metaprep_cc::ComponentMsg`: the dense
//! array (4 bytes per read) or the `(vertex, root)` pairs of its non-roots
//! (8 bytes each), whichever is fewer bytes. Short reads at low coverage
//! form many small components, and a task that saw a slice of the k-mer
//! range touches few of them, so the pairs win; at high coverage most reads
//! join large components and the array stays dense. This harness sweeps
//! task counts at two coverages and reports, per stage, the bytes the
//! Merge-Comm and CC-I/O messages actually carried against the dense
//! equivalent (4 bytes per read per message).

use crate::harness::print_table;
use metaprep_core::{Pipeline, PipelineConfig, Step};
use metaprep_io::ReadStore;
use metaprep_obs::{EdgeDir, Event, MemRecorder};

/// `n` reads of `len` bp sampled uniformly from one random genome sized
/// for `coverage`.
fn short_read_store(n: usize, len: usize, coverage: f64) -> ReadStore {
    let mut x = 5u64;
    let mut next = || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
        x
    };
    let genome_len = ((n * len) as f64 / coverage) as usize;
    let genome: Vec<u8> = (0..genome_len)
        .map(|_| b"ACGT"[(next() >> 61) as usize & 3])
        .collect();
    let mut reads = ReadStore::new();
    for _ in 0..n {
        let at = (next() >> 33) as usize % (genome_len - len);
        reads.push_single(&genome[at..at + len]);
    }
    reads
}

fn kb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1e3)
}

/// Sweep P at two coverages and report the component messages' bytes
/// against dense.
pub fn run(scale: f64) {
    let n = ((20_000.0 * scale) as usize).max(1000);
    let mut rows = Vec::new();
    for coverage in [1.0, 8.0] {
        let reads = short_read_store(n, 40, coverage);
        let dense_msg = 4 * reads.num_fragments() as u64;
        for p in [4usize, 8, 16, 32] {
            let cfg = PipelineConfig::builder().k(27).m(6).tasks(p).build();
            let rec = MemRecorder::new(p);
            let res = Pipeline::new(cfg)
                .with_recorder(&rec)
                .run_reads(&reads)
                .expect("pipeline");
            let events = rec.into_events();
            // (messages, of them sparse, bytes) sent in `stage`.
            let sent = |stage: &str| {
                let sizes = events.iter().filter_map(|e| match e {
                    Event::Edge(e) if e.dir == EdgeDir::Send && e.stage == stage => Some(e.bytes),
                    _ => None,
                });
                sizes.fold((0u64, 0u64, 0u64), |(m, s, b), bytes| {
                    (m + 1, s + u64::from(bytes < dense_msg), b + bytes)
                })
            };
            let (merge_msgs, sparse_merges, merge) = sent(Step::MergeComm.name());
            let (ccio_msgs, _, ccio) = sent(Step::CcIo.name());
            let dense = (merge_msgs + ccio_msgs) * dense_msg;
            rows.push(vec![
                format!("{coverage}x"),
                res.components.components.to_string(),
                p.to_string(),
                format!("{sparse_merges}/{merge_msgs}"),
                kb(merge),
                kb(merge_msgs * dense_msg),
                kb(ccio),
                kb(ccio_msgs * dense_msg),
                format!("{:.2}x", dense as f64 / (merge + ccio) as f64),
            ]);
        }
    }
    print_table(
        &format!("Extension: component messages vs dense arrays ({n} 40bp reads, k 27)"),
        &[
            "Coverage",
            "Components",
            "Tasks",
            "Sparse merges",
            "Merge-Comm kB",
            "dense kB",
            "CC-I/O kB",
            "dense kB",
            "Reduction",
        ],
        &rows,
    );
    println!("  (bytes sent; dense = 4 bytes per read per message)");
}
