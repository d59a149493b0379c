//! Table 5 — index creation time (sequential, once per dataset).
//!
//! Times the IndexCreate `metaprep partition` and `metaprep index` run: one
//! streaming scan of the dataset's FASTQ file that builds merHist and
//! FASTQPart together, here on one thread ("sequential", as the paper's
//! table is).

use crate::harness::{dataset, fmt_dur, print_table};
use metaprep_index::serial::{fastqpart_to_bytes, merhist_to_bytes};
use metaprep_index::{index_fastq_file_streaming, StreamingOptions};
use metaprep_synth::DatasetId;
use std::time::Instant;

/// Time one sequential streaming IndexCreate over every dataset's FASTQ
/// file.
pub fn run(scale: f64) {
    let dir = std::env::temp_dir().join(format!("metaprep_table5_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create Table 5 temp dir");
    let mut rows = Vec::new();
    for id in DatasetId::all() {
        let data = dataset(id, scale);
        let chunks = if id == DatasetId::Is { 96 } else { 24 };
        let path = dir.join(format!("{}.fastq", id.name()));
        metaprep_io::write_fastq_path(&path, &data.reads).expect("write Table 5 FASTQ");

        let paired = data
            .reads
            .paired()
            .expect("simulated reads are all pairs or all singles");
        let opts = StreamingOptions {
            window: 0,
            threads: 1,
        };
        let t0 = Instant::now();
        let (mh, fp, _) = index_fastq_file_streaming(&path, paired, chunks, 27, 8, opts)
            .expect("streaming IndexCreate");
        let t_index = t0.elapsed();
        std::fs::remove_file(&path).ok();

        rows.push(vec![
            id.name().to_string(),
            chunks.to_string(),
            fmt_dur(t_index),
            format!("{:.2}", merhist_to_bytes(&mh).len() as f64 / 1e6),
            format!("{:.2}", fastqpart_to_bytes(&fp).len() as f64 / 1e6),
        ]);
    }
    std::fs::remove_dir_all(&dir).ok();
    print_table(
        "Table 5: index creation time (sequential)",
        &[
            "Dataset",
            "Chunks",
            "IndexCreate (s)",
            "merHist MB",
            "FASTQPart MB",
        ],
        &rows,
    );
}
