//! Presolve tier: peak memory must drop *before tuples exist*.
//!
//! The probabilistic presolve (count-min sketch fused into the streaming
//! IndexCreate scan + a `HighFreqFilter` inside KmerGen) drops k-mers
//! whose estimated occurrence count exceeds a threshold before any
//! tuple is materialised or shipped through the all-to-all. This
//! experiment quantifies the claim on a scaled synthetic community:
//!
//! 1. an exact k-mer count map picks the threshold adaptively, aiming
//!    for roughly 70% surviving tuple volume (the sketch never
//!    under-counts, so the realised survivor set can only be smaller);
//! 2. a baseline run (no filter) and a presolve run with identical
//!    geometry are compared on the *deterministic* peak metric — the
//!    maximum packed tuple bytes resident on any task in any pass —
//!    plus total tuple volume, with the resettable allocator high-water
//!    mark as a secondary, noisier reading;
//! 3. a third run hands the baseline's modeled footprint to
//!    `--memory-budget` so the adaptive pass planner (not `--passes`)
//!    chooses the schedule, demonstrating the budget-driven path.
//!
//! `BENCH_presolve.json` reports `peak_reduction_pct` (gated >= 20 by
//! `cargo xtask bench-smoke`) and `tuple_reduction_pct` (gated > 0),
//! and the binary asserts conservation: every enumerated k-mer is
//! either emitted as a tuple or counted in `presolve_dropped`.
//!
//! It also prices the sketch where it is built: `sketch_index_over_plain`
//! is the wall time of the streaming IndexCreate at k = 63 with the default
//! sketch over the same call without one, on the same FASTQ file: the
//! median of the per-pair ratios of 15 alternating pairs. `cargo xtask
//! bench-smoke` gates it from above.

use crate::{allocpeak, harness, print_table};
use metaprep_core::{Pipeline, PipelineConfig, PipelineConfigBuilder};
use metaprep_index::{index_fastq_file_streaming_sketched_recorded, StreamingOptions};
use metaprep_kmer::{for_each_canonical_kmer, Kmer64};
use metaprep_norm::SketchParams;
use metaprep_obs::MemRecorder;
use metaprep_synth::DatasetId;
use std::collections::HashMap;
use std::time::Instant;

const K: usize = 21;
const M: usize = 6;
const TASKS: usize = 4;
const PASSES: usize = 2;

/// Surviving tuple-volume target the adaptive threshold aims for.
const SURVIVOR_TARGET: f64 = 0.70;

fn cfg() -> PipelineConfigBuilder {
    PipelineConfig::builder()
        .k(K)
        .m(M)
        .passes(PASSES)
        .tasks(TASKS)
        .threads(1)
}

/// Largest threshold whose surviving occurrence volume (k-mers with
/// exact count <= tau keep all their occurrences) stays at or under the
/// target fraction; 1 if even dropping everything above count 1 cannot
/// reach it. At most `COUNTER_MAX - 1`, the largest threshold the sketch's
/// saturating counters decide.
fn adaptive_threshold(counts: &HashMap<u64, u64>, target: f64) -> (u32, u64) {
    let total: u64 = counts.values().sum();
    // Occurrence volume per distinct count value, ascending.
    let mut by_count: Vec<(u64, u64)> = {
        let mut h: HashMap<u64, u64> = HashMap::new();
        for &n in counts.values() {
            *h.entry(n).or_insert(0) += n;
        }
        h.into_iter().collect()
    };
    by_count.sort_unstable();
    let budget = (total as f64 * target) as u64;
    let mut tau = 1u64;
    let mut surviving = 0u64;
    let mut at_tau = 0u64;
    let cap = u64::from(metaprep_norm::countmin::COUNTER_MAX - 1);
    for (count, volume) in by_count {
        if count > cap || surviving + volume > budget {
            break;
        }
        surviving += volume;
        tau = count;
        at_tau = surviving;
    }
    (tau as u32, at_tau)
}

/// Alternating (plain, sketched) pairs behind `sketch_index_over_plain`.
/// At smoke scale one call takes 15–60 ms. A ratio of two medians of nine
/// read 3.92 once under machine load, where 2.4–3.0 was usual: a burst
/// that lands on one side of the pairs moves both medians. A pair's two
/// calls run back to back, so the ratio within a pair sees the same load.
const INDEX_PAIRS: usize = 15;

/// The streaming IndexCreate at k = 63 with the default presolve sketch
/// against the same call without a sketch, on the FASTQ file of `reads`:
/// `(ratio, plain_s, sketched_s)`, the median of the per-pair ratios and
/// each side's median time. One thread, so the ratio prices the sketch's
/// updates, not the pool.
fn sketch_index_over_plain(reads: &metaprep_io::ReadStore) -> (f64, f64, f64) {
    let dir = std::env::temp_dir().join(format!("metaprep_bench_presolve_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    let path = dir.join("reads.fastq");
    metaprep_io::write_fastq_path(&path, reads).expect("write bench FASTQ");
    let opts = StreamingOptions {
        window: 0,
        threads: 1,
    };
    let index = |sketch: Option<SketchParams>| {
        let t0 = Instant::now();
        let (.., made) = index_fastq_file_streaming_sketched_recorded(
            &path,
            true,
            64,
            63,
            M,
            opts,
            sketch,
            MemRecorder::off(),
        )
        .expect("streaming IndexCreate");
        assert_eq!(made.is_some(), sketch.is_some());
        t0.elapsed().as_secs_f64()
    };
    index(Some(SketchParams::default())); // warm the page cache and allocator
    let (mut plain, mut sketched) = (Vec::new(), Vec::new());
    for rep in 0..INDEX_PAIRS {
        // Alternate which side runs first.
        if rep % 2 == 0 {
            plain.push(index(None));
            sketched.push(index(Some(SketchParams::default())));
        } else {
            sketched.push(index(Some(SketchParams::default())));
            plain.push(index(None));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    let median = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let ratios = plain.iter().zip(&sketched).map(|(p, s)| s / p).collect();
    (median(ratios), median(plain), median(sketched))
}

struct Run {
    name: &'static str,
    wall_ms: f64,
    passes: usize,
    tuples: u64,
    dropped: u64,
    peak_tuple_bytes: u64,
    alloc_peak: u64,
}

fn measure(name: &'static str, cfg: PipelineConfig, reads: &metaprep_io::ReadStore) -> Run {
    allocpeak::reset_peak();
    let before = allocpeak::current_bytes() as u64;
    let t0 = Instant::now();
    let res = Pipeline::new(cfg)
        .run_reads(reads)
        .expect("presolve experiment pipeline must run");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let alloc_peak = if allocpeak::installed() {
        (allocpeak::peak_bytes() as u64).saturating_sub(before)
    } else {
        0
    };
    Run {
        name,
        wall_ms,
        passes: res.planned_passes,
        tuples: res.tuples_total,
        dropped: res.presolve_dropped,
        peak_tuple_bytes: res.memory.measured_peak_tuple_bytes,
        alloc_peak,
    }
}

/// Run the experiment; writes `BENCH_presolve.json` and returns its path.
pub fn run(scale: f64) -> std::path::PathBuf {
    let data = harness::dataset(DatasetId::Is, scale);

    // Exact counts drive the threshold choice (and the conservation
    // check): the bench must not depend on the sketch it is evaluating.
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for (seq, _) in data.reads.iter() {
        for_each_canonical_kmer::<Kmer64>(seq, K, |v, _| {
            *counts.entry(v).or_insert(0) += 1;
        });
    }
    let total: u64 = counts.values().sum();
    let (tau, surviving_exact) = adaptive_threshold(&counts, SURVIVOR_TARGET);
    // Size the sketch to the dataset (4 counters per distinct k-mer per
    // row): with the default width this scale saturates the sketch and
    // the over-counts drop nearly everything — a false-positive artifact,
    // not the tier being measured.
    let sketch = metaprep_norm::SketchParams {
        width: (counts.len() * 4).next_power_of_two(),
        ..metaprep_norm::SketchParams::default()
    };
    println!(
        "presolve: {} distinct / {} total k-mer occurrences; tau={} keeps {:.1}% exactly \
         (sketch {}x{})",
        counts.len(),
        total,
        tau,
        100.0 * surviving_exact as f64 / total.max(1) as f64,
        sketch.depth,
        sketch.width,
    );

    let baseline = measure("baseline", cfg().build(), &data.reads);
    let presolve = measure(
        "presolve",
        cfg().presolve_threshold(tau).sketch(sketch).build(),
        &data.reads,
    );
    // Budget-driven run: hand the planner the baseline's modeled
    // footprint at the reference pass count, with no explicit --passes,
    // so the adaptive plan (not the config) picks the schedule.
    let modeled = Pipeline::new(cfg().build())
        .run_reads(&data.reads)
        .expect("modeled probe must run")
        .memory
        .total_modeled();
    let planned = measure(
        "budget-planned",
        PipelineConfig::builder()
            .k(K)
            .m(M)
            .tasks(TASKS)
            .threads(1)
            .memory_budget(modeled)
            .presolve_threshold(tau)
            .sketch(sketch)
            .build(),
        &data.reads,
    );

    let runs = [&baseline, &presolve, &planned];
    print_table(
        "presolve: probabilistic tier vs exact baseline",
        &[
            "Run",
            "Wall (ms)",
            "Passes",
            "Tuples",
            "Dropped",
            "Peak tuple MB",
            "Alloc peak MB",
        ],
        &runs
            .iter()
            .map(|r| {
                vec![
                    r.name.to_string(),
                    format!("{:.1}", r.wall_ms),
                    r.passes.to_string(),
                    r.tuples.to_string(),
                    r.dropped.to_string(),
                    format!("{:.2}", r.peak_tuple_bytes as f64 / 1e6),
                    format!("{:.2}", r.alloc_peak as f64 / 1e6),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // Conservation: enumerated == emitted + dropped, against both the
    // exact count map and the unfiltered baseline.
    assert_eq!(baseline.tuples, total, "baseline must emit every k-mer");
    assert_eq!(
        presolve.tuples + presolve.dropped,
        total,
        "presolve conservation: emitted + dropped must equal enumerated"
    );
    assert!(presolve.dropped > 0, "threshold {tau} presolved nothing");

    let (sketch_over_plain, plain_s, sketched_s) = sketch_index_over_plain(&data.reads);
    println!(
        "presolve: k=63 IndexCreate {:.1} ms with the default sketch, {:.1} ms without \
         ({sketch_over_plain:.2}x)",
        sketched_s * 1e3,
        plain_s * 1e3
    );

    let pct = |base: u64, now: u64| 100.0 * (1.0 - now as f64 / base.max(1) as f64);
    let tuple_reduction_pct = pct(baseline.tuples, presolve.tuples);
    let peak_reduction_pct = pct(baseline.peak_tuple_bytes, presolve.peak_tuple_bytes);
    println!(
        "presolve: tuple volume -{tuple_reduction_pct:.1}%, peak tuple bytes -{peak_reduction_pct:.1}%"
    );
    assert!(
        peak_reduction_pct >= 20.0,
        "presolve must cut peak tuple bytes by >= 20% (got {peak_reduction_pct:.1}%)"
    );
    assert!(
        tuple_reduction_pct > 0.0,
        "presolve must shrink tuple volume (got {tuple_reduction_pct:.1}%)"
    );
    assert!(
        planned.passes >= 1,
        "budget-planned run must report its planned pass count"
    );

    let mut json = String::from("{\n  \"experiment\": \"presolve\",\n");
    json.push_str(&format!(
        "  \"k\": {K}, \"m\": {M}, \"tasks\": {TASKS}, \"passes\": {PASSES},\n"
    ));
    json.push_str(&format!("  \"threshold\": {tau},\n"));
    json.push_str(&format!(
        "  \"sketch_width\": {}, \"sketch_depth\": {},\n",
        sketch.width, sketch.depth
    ));
    json.push_str(&format!("  \"distinct_kmers\": {},\n", counts.len()));
    json.push_str(&format!("  \"total_occurrences\": {total},\n"));
    json.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_ms\": {:.3}, \"passes\": {}, \"tuples\": {}, \
             \"dropped\": {}, \"peak_tuple_bytes\": {}, \"alloc_peak_bytes\": {}}}{}\n",
            r.name,
            r.wall_ms,
            r.passes,
            r.tuples,
            r.dropped,
            r.peak_tuple_bytes,
            r.alloc_peak,
            if i + 1 < runs.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"presolve_dropped\": {},\n", presolve.dropped));
    json.push_str(&format!(
        "  \"tuple_reduction_pct\": {tuple_reduction_pct:.3},\n"
    ));
    json.push_str(&format!(
        "  \"peak_reduction_pct\": {peak_reduction_pct:.3},\n"
    ));
    json.push_str(&format!(
        "  \"index_plain_s\": {plain_s:.6}, \"index_sketched_s\": {sketched_s:.6},\n"
    ));
    json.push_str(&format!(
        "  \"sketch_index_over_plain\": {sketch_over_plain:.3},\n"
    ));
    json.push_str(&format!("  \"planner_budget_bytes\": {modeled},\n"));
    json.push_str(&format!("  \"planner_passes\": {}\n}}\n", planned.passes));

    harness::write_artifact("BENCH_presolve.json", json)
}
