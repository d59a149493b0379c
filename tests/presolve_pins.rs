//! Pins for the presolve tier: runs whose count-min sketch is narrow enough
//! that the frequency filter drops a large share of the k-mers.
//!
//! Each run goes through the file path (`Pipeline::run_fastq_file`: the
//! streaming IndexCreate feeds the sketch, KmerGen probes the filter) and
//! pins the labels' FNV, the tuples emitted, the k-mers the filter dropped
//! and the `SketchFillPermille` counter. Three geometries, each on two
//! tasks: k = 21 in one pass (the plain enumeration), k = 21 in three
//! passes (the owned-k-mer kernel) and k = 63 in two passes (`Kmer128`,
//! folded sketch keys). A change to the sketch's layout, its update rule,
//! the filter's probe or KmerGen's filter path that moves a decision fails
//! here. The constants were recorded before the sketch was flattened.
//!
//! `threads=1`: the labels are a function of the input alone there.

use metaprep::core::{Pipeline, PipelineConfig};
use metaprep::index::SketchParams;
use metaprep::io::write_fastq_path;
use metaprep::obs::{CounterKind, Event, MemRecorder};
use metaprep::synth::{simulate_community, CommunityProfile};

const TASKS: usize = 2;

/// 2^16 counters a row, about two thirds of them filled: a threshold of 3
/// drops 85 % of the k = 21 k-mers and 41 % of the k = 63 ones, frequent
/// ones and collisions alike. (Narrower, the conservative sketch fills
/// evenly and the filter drops all or nothing.)
const SKETCH: SketchParams = SketchParams {
    width: 1 << 16,
    depth: 4,
    seed: 0x5EED_C0DE,
};
const THRESHOLD: u32 = 3;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `labels=<n>/<fnv> tuples=<emitted> dropped=<dropped> fill=<permille>`
/// for one presolve run over the quickstart community's FASTQ file.
fn pinned_run(name: &str, k: usize, passes: usize) -> String {
    let dir = std::env::temp_dir().join(format!("metaprep_presolve_pins_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("reads.fastq");
    write_fastq_path(
        &path,
        &simulate_community(&CommunityProfile::quickstart(), 42).reads,
    )
    .unwrap();
    let cfg = PipelineConfig::builder()
        .k(k)
        .m(6)
        .tasks(TASKS)
        .threads(1)
        .passes(passes)
        .presolve_threshold(THRESHOLD)
        .sketch(SKETCH)
        .build();
    let rec = MemRecorder::new(TASKS);
    let res = Pipeline::new(cfg)
        .with_recorder(&rec)
        .run_fastq_file(&path, true)
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let fill: Vec<u64> = rec
        .into_events()
        .iter()
        .filter_map(|e| match e {
            Event::Counter {
                kind: CounterKind::SketchFillPermille,
                value,
                ..
            } => Some(*value),
            _ => None,
        })
        .collect();
    let labels: Vec<u8> = res.labels.iter().flat_map(|l| l.to_le_bytes()).collect();
    // A pin that drops next to nothing would not exercise the filter.
    let enumerated = res.tuples_total + res.presolve_dropped;
    assert!(
        res.presolve_dropped * 10 > enumerated,
        "{name}: the filter dropped only {} of {enumerated} k-mers",
        res.presolve_dropped
    );
    format!(
        "labels={}/{:016x} tuples={} dropped={} fill={fill:?}",
        res.labels.len(),
        fnv1a(&labels),
        res.tuples_total,
        res.presolve_dropped
    )
}

#[test]
fn k21_one_pass_is_pinned() {
    let got = pinned_run("k21_p1", 21, 1);
    assert_eq!(
        got,
        "labels=2000/d155ac85d9cb57a8 tuples=46242 dropped=270485 fill=[638]"
    );
}

#[test]
fn k21_three_passes_are_pinned() {
    let got = pinned_run("k21_p3", 21, 3);
    assert_eq!(
        got,
        "labels=2000/d155ac85d9cb57a8 tuples=46242 dropped=270485 fill=[638]"
    );
}

#[test]
fn k63_two_passes_are_pinned() {
    let got = pinned_run("k63_p2", 63, 2);
    assert_eq!(
        got,
        "labels=2000/d4e7ab3caf5d8ad5 tuples=87634 dropped=59844 fill=[658]"
    );
}
