//! Loom DPOR exploration cost: explored vs pruned schedules per model.
//!
//! The loom CI job proves schedule-space properties (deadlock freedom,
//! message conservation) of the staged all-to-all; this experiment
//! tracks what that proof *costs* and how much dynamic partial-order
//! reduction saves, so a scheduler or DPOR regression shows up in the
//! per-commit `BENCH_loom.json` trajectory (and fails the bench-smoke
//! gate) instead of silently re-inflating the model-checking wall time.
//!
//! The models re-build the channel matrix + staged schedule of
//! `metaprep-dist/tests/loom.rs` directly on the vendored `loom` crate
//! — which models fine without `--cfg loom`; the cfg only matters for
//! swapping the *production* crates' shims — using the exact
//! [`metaprep_dist::stage_peers`] arithmetic `collectives::alltoall`
//! executes:
//!
//! * `alltoall2` — the 2-task exchange, explored under both DPOR and
//!   brute-force enumeration (the brute-force run is small enough to
//!   afford and anchors the reduction ratio in measured data);
//! * `ring3` — stage 1 of the 3-task round (ring exchange), also both
//!   modes;
//! * `alltoall3` — the full 3-task two-stage round, DPOR only: its
//!   brute-force reference is ~3.35M schedules (~5 min), measured once
//!   when the test was still `#[ignore]`d and pinned here as a
//!   constant. The gate asserts ≥ 100x reduction against it.

use metaprep_dist::stage_peers;
use std::time::Instant;

/// Brute-force schedule count of the 3-task round, measured before DPOR
/// landed (the reason `alltoall_three_tasks_all_interleavings` used to
/// be `#[ignore]`d). Too slow to re-measure every smoke run.
const ALLTOALL3_REFERENCE_SCHEDULES: u64 = 3_350_000;

/// The bench-smoke gate: DPOR must explore at most this many schedules
/// for the 3-task round (>= 100x reduction vs the reference).
const ALLTOALL3_EXPLORED_MAX: u64 = ALLTOALL3_REFERENCE_SCHEDULES / 100;

type Msg = (usize, usize);
type Sender = loom::sync::mpsc::Sender<Msg>;
type Receiver = loom::sync::mpsc::Receiver<Msg>;

/// Build the p×p channel matrix: each rank gets its senders-to-all row
/// and receive-from-all column, mirroring `run_cluster`'s wiring.
fn wire(p: usize) -> (Vec<Vec<Sender>>, Vec<Vec<Receiver>>) {
    let mut senders: Vec<Vec<Sender>> = (0..p).map(|_| Vec::new()).collect();
    let mut receivers: Vec<Vec<Option<Receiver>>> =
        (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
    for from in 0..p {
        for rx_row in receivers.iter_mut() {
            let (tx, rx) = loom::sync::mpsc::channel::<Msg>();
            senders[from].push(tx);
            rx_row[from] = Some(rx);
        }
    }
    let receivers = receivers
        .into_iter()
        .map(|row| row.into_iter().map(|o| o.unwrap()).collect())
        .collect();
    (senders, receivers)
}

/// One rank's staged round over `stages` stages: stage `s` sends to
/// `(rank + s) mod p` and receives from `(rank - s) mod p`.
fn staged_round(rank: usize, p: usize, stages: usize, txs: &[Sender], rxs: &[Receiver]) {
    for stage in 1..=stages {
        let (to, from) = stage_peers(rank, p, stage);
        txs[to].send((rank, to)).expect("receiver alive");
        let (src, dst) = rxs[from].recv().expect("sender alive");
        assert_eq!((src, dst), (from, rank), "misrouted staged message");
    }
}

struct ModelRun {
    name: &'static str,
    report: loom::model::Report,
    wall_ms: f64,
}

/// Explore the `p`-task round over `stages` stages under one mode.
fn run_model(name: &'static str, p: usize, stages: usize, dpor: bool) -> ModelRun {
    let t0 = Instant::now();
    let report = loom::model::Builder {
        max_iters: 8_000_000,
        dpor,
    }
    .check_report(move || {
        let (senders, receivers) = wire(p);
        let mut parts: Vec<_> = senders.into_iter().zip(receivers).collect();
        // Rank 0 runs on the model's main thread (the loom idiom), so p
        // ranks cost p actors.
        let (txs0, rxs0) = parts.remove(0);
        let handles: Vec<_> = parts
            .into_iter()
            .enumerate()
            .map(|(i, (txs, rxs))| {
                loom::thread::spawn(move || {
                    staged_round(i + 1, p, stages, &txs, &rxs);
                    // Hand the endpoints back instead of dropping them
                    // here: endpoint drops are visible ops (disconnect
                    // is observable), and dropping them concurrently
                    // would multiply the brute-force reference models
                    // ~100x for nothing.
                    (txs, rxs)
                })
            })
            .collect();
        staged_round(0, p, stages, &txs0, &rxs0);
        let kept: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("modeled rank panicked"))
            .collect();
        // All ranks joined: only the main thread is runnable, so every
        // endpoint (including rank 0's) now drops serially.
        drop(kept);
        drop((txs0, rxs0));
    });
    ModelRun {
        name,
        report,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}

/// Run the experiment; writes `BENCH_loom.json` and returns its path.
/// `_scale` is accepted for harness uniformity — the models are
/// exhaustive, their size is fixed by the schedule-space structure.
pub fn run(_scale: f64) -> std::path::PathBuf {
    let runs = [
        run_model("alltoall2_dpor", 2, 1, true),
        run_model("alltoall2_full", 2, 1, false),
        run_model("ring3_dpor", 3, 1, true),
        run_model("ring3_full", 3, 1, false),
        run_model("alltoall3_dpor", 3, 2, true),
    ];

    crate::harness::print_table(
        "loom DPOR exploration cost (explored vs pruned schedules)",
        &[
            "Model",
            "Explored",
            "Sleep-blocked",
            "Backtracks",
            "Wall (ms)",
        ],
        &runs
            .iter()
            .map(|r| {
                vec![
                    r.name.to_string(),
                    r.report.schedules_explored.to_string(),
                    r.report.sleep_blocked.to_string(),
                    r.report.backtrack_points.to_string(),
                    format!("{:.1}", r.wall_ms),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let by_name = |n: &str| {
        runs.iter()
            .find(|r| r.name == n)
            .expect("model ran")
            .report
            .schedules_explored as u64
    };
    let a2_reduction = by_name("alltoall2_full") as f64 / by_name("alltoall2_dpor") as f64;
    let ring3_reduction = by_name("ring3_full") as f64 / by_name("ring3_dpor") as f64;
    let a3_explored = by_name("alltoall3_dpor");
    let a3_reduction = ALLTOALL3_REFERENCE_SCHEDULES as f64 / a3_explored as f64;
    println!(
        "  reductions: alltoall2 {a2_reduction:.1}x (measured), ring3 {ring3_reduction:.1}x \
         (measured), alltoall3 {a3_reduction:.0}x (vs pinned pre-DPOR reference)"
    );
    assert!(
        a3_explored <= ALLTOALL3_EXPLORED_MAX,
        "DPOR regression: 3-task round explored {a3_explored} schedules \
         (gate: <= {ALLTOALL3_EXPLORED_MAX}, i.e. >= 100x reduction vs \
         {ALLTOALL3_REFERENCE_SCHEDULES} brute-force)"
    );

    let mut json = String::from("{\n  \"experiment\": \"loom_dpor\",\n");
    json.push_str(&format!(
        "  \"alltoall3_reference_schedules\": {ALLTOALL3_REFERENCE_SCHEDULES},\n"
    ));
    json.push_str(&format!(
        "  \"alltoall3_explored_max\": {ALLTOALL3_EXPLORED_MAX},\n"
    ));
    json.push_str("  \"models\": [\n");
    for (i, r) in runs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"dpor\": {}, \"schedules_explored\": {}, \
             \"sleep_blocked\": {}, \"backtrack_points\": {}, \"wall_ms\": {:.3}}}{}\n",
            r.name,
            r.report.dpor,
            r.report.schedules_explored,
            r.report.sleep_blocked,
            r.report.backtrack_points,
            r.wall_ms,
            if i + 1 < runs.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"alltoall2_reduction\": {a2_reduction:.3},\n"));
    json.push_str(&format!("  \"ring3_reduction\": {ring3_reduction:.3},\n"));
    json.push_str(&format!("  \"alltoall3_explored\": {a3_explored},\n"));
    json.push_str(&format!(
        "  \"alltoall3_reduction_vs_reference\": {a3_reduction:.1}\n}}\n"
    ));

    crate::harness::write_artifact("BENCH_loom.json", json)
}
