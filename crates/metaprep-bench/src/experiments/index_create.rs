//! `index_create` — streaming vs in-memory IndexCreate: wall time and
//! peak allocation versus thread count.
//!
//! This experiment starts the repo's performance trajectory for the
//! streaming IndexCreate path: it writes `BENCH_index.json` (or the path
//! in `METAPREP_BENCH_OUT`) with the in-memory slurp baseline and the
//! streaming indexer at 1/2/4 threads on a file at least 10× larger than
//! the probe window, asserting along the way that every configuration
//! produces identical index tables. It also times what the file path saves
//! per scan by never building a store: `view_scan_over_parse` is one
//! `parse_fastq` → `ReadStore` (+ drop) of the file's bytes over one bare
//! `record_views` walk of the same bytes (`parse_fastq` is that walk plus
//! the store it fills, so both make the same checks; best of
//! [`SCAN_REPS`] each).
//!
//! Peak memory is the [`crate::allocpeak`] high-water delta around each
//! region (the `exp` binary installs [`crate::allocpeak::PeakAlloc`]; a
//! process without it gets a JSON that marks the allocator numbers
//! absent). `VmHWM` from the kernel is recorded as a coarse, monotone
//! cross-check.

use crate::allocpeak;
use crate::harness::{dataset, fmt_dur, fmt_mb, print_table, write_artifact};
use metaprep_index::{index_fastq_bytes, index_fastq_file_streaming, StreamingOptions};
use metaprep_synth::DatasetId;
use std::hint::black_box;
use std::time::Instant;

const K: usize = 27;
const M: usize = 8;
const CHUNKS: usize = 64;
const SCAN_REPS: usize = 7;

struct Measurement {
    label: String,
    secs: f64,
    peak_alloc: Option<usize>,
}

fn measure<T>(label: &str, f: impl FnOnce() -> T) -> (T, Measurement) {
    allocpeak::reset_peak();
    let before = allocpeak::peak_bytes();
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    let peak_alloc = allocpeak::installed().then(|| allocpeak::peak_bytes() - before);
    (
        out,
        Measurement {
            label: label.to_string(),
            secs,
            peak_alloc,
        },
    )
}

/// Run the experiment and write the JSON report.
pub fn run(scale: f64) {
    let data = dataset(DatasetId::Hg, scale);
    let dir = std::env::temp_dir().join(format!("metaprep_bench_index_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    let path = dir.join("reads.fastq");
    metaprep_io::write_fastq_path(&path, &data.reads).expect("write bench FASTQ");
    let file_bytes = std::fs::metadata(&path).expect("stat bench FASTQ").len();

    // A window of len/16 keeps the file >= 10x the window (the streaming
    // guarantee under test) at every scale; 64 is the floor so tiny smoke
    // files still exercise multi-probe chunking.
    let window = ((file_bytes / 16).max(64)) as usize;

    let (baseline_tables, baseline) = measure("slurp", || {
        let bytes = std::fs::read(&path).expect("read bench FASTQ");
        index_fastq_bytes(&bytes, true, CHUNKS, K, M).expect("in-memory indexing")
    });

    let mut measurements = vec![baseline];
    let mut streaming_secs = Vec::new();
    for threads in [1usize, 2, 4] {
        let opts = StreamingOptions { window, threads };
        let (tables, m) = measure(&format!("stream-t{threads}"), || {
            index_fastq_file_streaming(&path, true, CHUNKS, K, M, opts).expect("streaming indexing")
        });
        assert_eq!(
            tables, baseline_tables,
            "streaming tables diverge at {threads} threads"
        );
        streaming_secs.push((threads, m.secs));
        measurements.push(m);
    }
    let bytes = std::fs::read(&path).expect("read bench FASTQ");
    std::fs::remove_dir_all(&dir).ok();
    let best_of = |scan: &dyn Fn()| {
        let secs = (0..SCAN_REPS).map(|_| {
            let t0 = Instant::now();
            scan();
            t0.elapsed().as_secs_f64()
        });
        secs.fold(f64::INFINITY, f64::min)
    };
    let parse_secs = best_of(&|| {
        let store = metaprep_io::parse_fastq(black_box(&bytes[..]), false).expect("parse");
        assert_eq!(black_box(store).len(), data.reads.len());
    });
    let view_secs = best_of(&|| {
        let mut walked = 0;
        for view in metaprep_io::record_views(black_box(&bytes), 0, 0) {
            black_box(view.expect("walk"));
            walked += 1;
        }
        assert_eq!(walked, data.reads.len());
    });
    drop(bytes);
    let view_scan_over_parse = parse_secs / view_secs;
    println!(
        "record scan of {} MB: parse_fastq {:.1} ms, record_views {:.1} ms ({:.1}x)",
        fmt_mb(file_bytes),
        parse_secs * 1e3,
        view_secs * 1e3,
        view_scan_over_parse
    );

    let rows: Vec<Vec<String>> = measurements
        .iter()
        .map(|m| {
            vec![
                m.label.clone(),
                fmt_dur(std::time::Duration::from_secs_f64(m.secs)),
                m.peak_alloc
                    .map(|b| fmt_mb(b as u64))
                    .unwrap_or_else(|| "n/a".into()),
            ]
        })
        .collect();
    print_table(
        "index_create: streaming IndexCreate wall time and peak allocation",
        &["Config", "Time (s)", "Peak alloc MB"],
        &rows,
    );

    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let t1 = streaming_secs
        .iter()
        .find(|(t, _)| *t == 1)
        .map(|(_, s)| *s)
        .unwrap_or(f64::NAN);

    // Hand-rolled JSON: every field is a number, bool, or fixed label, so
    // no escaping is needed and the workspace stays dependency-free.
    let mut json = String::from("{\n  \"experiment\": \"index_create\",\n");
    json.push_str(&format!("  \"scale\": {scale},\n"));
    json.push_str(&format!("  \"file_bytes\": {file_bytes},\n"));
    json.push_str(&format!("  \"window_bytes\": {window},\n"));
    json.push_str(&format!(
        "  \"file_to_window_ratio\": {:.2},\n",
        file_bytes as f64 / window as f64
    ));
    json.push_str(&format!("  \"records\": {},\n", data.reads.len()));
    json.push_str(&format!("  \"available_parallelism\": {parallelism},\n"));
    json.push_str(&format!(
        "  \"alloc_tracking\": {},\n",
        allocpeak::installed()
    ));
    json.push_str(&format!(
        "  \"vm_hwm_bytes\": {},\n",
        metaprep_obs::vm_hwm_bytes()
            .map(|b| b.to_string())
            .unwrap_or_else(|| "null".into())
    ));
    json.push_str(&format!("  \"parse_scan_secs\": {parse_secs:.6},\n"));
    json.push_str(&format!("  \"view_scan_secs\": {view_secs:.6},\n"));
    json.push_str(&format!(
        "  \"view_scan_over_parse\": {view_scan_over_parse:.3},\n"
    ));
    json.push_str("  \"runs\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let speedup = if m.label.starts_with("stream") && t1.is_finite() && m.secs > 0.0 {
            format!("{:.3}", t1 / m.secs)
        } else {
            "null".into()
        };
        json.push_str(&format!(
            "    {{\"config\": \"{}\", \"secs\": {:.6}, \"peak_alloc_bytes\": {}, \
             \"speedup_vs_1_thread\": {}}}{}\n",
            m.label,
            m.secs,
            m.peak_alloc
                .map(|b| b.to_string())
                .unwrap_or_else(|| "null".into()),
            speedup,
            if i + 1 < measurements.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    write_artifact("BENCH_index.json", json);
}
