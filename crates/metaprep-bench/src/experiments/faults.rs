//! Chaos differential: faulted and crashed cluster runs must reproduce
//! the fault-free partition byte-for-byte, and the recovery machinery
//! (retries, dedup, checkpoint restore) must actually fire.
//!
//! Driven by `cargo xtask bench-smoke` on a small seed matrix: a
//! fault-free baseline is partitioned once, then each generated
//! [`FaultPlan`] — message faults only, and message faults plus mid-run
//! crashes replayed from checkpoints — re-runs the same input and the
//! resulting labels are compared byte-for-byte. `BENCH_faults.json`
//! records the makespan overhead each plan cost and the retry/restart
//! counters pulled from the run's own trace, so a recovery regression
//! (lost exactly-once delivery, checkpoint drift, runaway retry storms)
//! shows up in the per-commit trajectory and trips the gate.

use crate::{harness, print_table};
use metaprep_core::{Pipeline, PipelineConfig, PipelineConfigBuilder};
use metaprep_dist::{Boundary, FaultPlan};
use metaprep_obs::{CounterKind, MemRecorder, TraceAnalysis};
use metaprep_synth::DatasetId;
use std::time::Instant;

/// Deterministic single-thread configuration: with `threads(1)` the
/// whole run (union order, path compression, labels) is a pure function
/// of the input, so byte-identity is a meaningful differential oracle.
const TASKS: usize = 4;

fn chaos_cfg() -> PipelineConfigBuilder {
    PipelineConfig::builder()
        .k(21)
        .m(6)
        .passes(2)
        .tasks(TASKS)
        .threads(1)
}

struct FaultRun {
    name: &'static str,
    wall_ms: f64,
    overhead_x: f64,
    identical: bool,
    faults_injected: u64,
    retry_attempts: u64,
    checkpoint_writes: u64,
    task_restarts: u64,
}

/// Run the experiment; writes `BENCH_faults.json` and returns its path.
pub fn run(scale: f64) -> std::path::PathBuf {
    let data = harness::dataset(DatasetId::Is, scale);
    let ckpt_dir = std::env::temp_dir().join("metaprep_bench_faults_ckpt");

    // Fault-free baseline: the oracle labels and the makespan yardstick.
    let t0 = Instant::now();
    let want = Pipeline::new(chaos_cfg().build())
        .run_reads(&data.reads)
        .expect("baseline pipeline must run")
        .labels;
    let baseline_ms = t0.elapsed().as_secs_f64() * 1e3;

    // The plan matrix: every message-fault kind across two seeds, plus a
    // plan that also crashes ranks mid-pass and mid-merge so the restart
    // path replays from checkpoints under message faults.
    let plans: Vec<(&'static str, FaultPlan, bool)> = vec![
        (
            "msg-faults-s7",
            FaultPlan::parse_spec("seed=7,drop=0.05,delay=0.05,dup=0.05,reorder=0.05")
                .expect("spec is hand-written and valid"),
            false,
        ),
        (
            "msg-faults-s1234",
            FaultPlan::parse_spec("seed=1234,drop=0.08,delay=0.03,dup=0.08,reorder=0.05")
                .expect("spec is hand-written and valid"),
            false,
        ),
        (
            "crash-replay-s42",
            FaultPlan::parse_spec("seed=42,drop=0.03,dup=0.03,reorder=0.03")
                .expect("spec is hand-written and valid")
                .with_crash(1, Boundary::Pass(1))
                .with_crash(2, Boundary::MergeRound(0)),
            true,
        ),
    ];

    let mut runs: Vec<FaultRun> = Vec::new();
    for (name, plan, crashes) in plans {
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        let mut cfg = chaos_cfg().fault_plan(plan);
        if crashes {
            cfg = cfg.checkpoint_dir(&ckpt_dir);
        }
        let rec = MemRecorder::new(TASKS);
        let t0 = Instant::now();
        let res = Pipeline::new(cfg.build())
            .with_recorder(&rec)
            .run_reads(&data.reads)
            .expect("faulted pipeline must recover and complete");
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let s = TraceAnalysis::from_events(&rec.into_events());
        runs.push(FaultRun {
            name,
            wall_ms,
            overhead_x: wall_ms / baseline_ms,
            identical: res.labels == want,
            faults_injected: s.counter_total(CounterKind::FaultsInjected),
            retry_attempts: s.counter_total(CounterKind::RetryAttempts),
            checkpoint_writes: s.counter_total(CounterKind::CheckpointWrites),
            task_restarts: s.counter_total(CounterKind::TaskRestarts),
        });
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    print_table(
        "faults: chaos differential (faulted vs fault-free partition)",
        &[
            "Plan",
            "Wall (ms)",
            "Overhead",
            "Identical",
            "Injected",
            "Retries",
            "Ckpts",
            "Restarts",
        ],
        &runs
            .iter()
            .map(|r| {
                vec![
                    r.name.to_string(),
                    format!("{:.1}", r.wall_ms),
                    format!("{:.2}x", r.overhead_x),
                    r.identical.to_string(),
                    r.faults_injected.to_string(),
                    r.retry_attempts.to_string(),
                    r.checkpoint_writes.to_string(),
                    r.task_restarts.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // The experiment's own gates: every plan must converge to the exact
    // fault-free labels, the message-fault machinery must demonstrably
    // fire, and the crash plan must restart and checkpoint.
    let identical = runs.iter().filter(|r| r.identical).count();
    assert_eq!(
        identical,
        runs.len(),
        "a faulted run diverged from the fault-free labels"
    );
    assert!(
        runs.iter().any(|r| r.retry_attempts > 0),
        "no plan exercised the retry path"
    );
    let restarts: u64 = runs.iter().map(|r| r.task_restarts).sum();
    assert!(restarts >= 2, "crash plan must restart both crashed ranks");
    assert!(
        runs.iter().any(|r| r.checkpoint_writes > 0),
        "crash plan wrote no checkpoints"
    );

    let mut json = String::from("{\n  \"experiment\": \"faults\",\n");
    json.push_str(&format!("  \"baseline_wall_ms\": {baseline_ms:.3},\n"));
    json.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_ms\": {:.3}, \"overhead_x\": {:.3}, \
             \"identical\": {}, \"faults_injected\": {}, \"retry_attempts\": {}, \
             \"checkpoint_writes\": {}, \"task_restarts\": {}}}{}\n",
            r.name,
            r.wall_ms,
            r.overhead_x,
            r.identical,
            r.faults_injected,
            r.retry_attempts,
            r.checkpoint_writes,
            r.task_restarts,
            if i + 1 < runs.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"runs_total\": {},\n", runs.len()));
    json.push_str(&format!("  \"runs_identical\": {identical},\n"));
    json.push_str(&format!(
        "  \"retry_attempts_total\": {},\n",
        runs.iter().map(|r| r.retry_attempts).sum::<u64>()
    ));
    json.push_str(&format!("  \"task_restarts_total\": {restarts},\n"));
    let max_overhead = runs.iter().map(|r| r.overhead_x).fold(0.0f64, f64::max);
    json.push_str(&format!("  \"max_overhead_x\": {max_overhead:.3}\n}}\n"));

    let out = std::env::var("METAPREP_BENCH_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::PathBuf::from("BENCH_faults.json"));
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(&out, json).expect("write BENCH_faults.json");
    println!("wrote {}", out.display());
    out
}
