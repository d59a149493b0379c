//! Replayability contract for the fault plane (satellite of the
//! robustness PR): an identical `FaultPlan` (seed + rules) must produce
//! the identical injected-fault sequence and the identical
//! retry/backoff schedule, run after run. Decisions are pure functions
//! of `(seed, kind, src, dst, seq, attempt)`, so the property is exact
//! equality, not statistical agreement.

use metaprep_dist::{run_cluster, ClusterConfig, FaultKind, FaultPlan, FaultRule, SendDecision};
use proptest::prelude::*;

/// Strategy: an arbitrary rule over any kind and probability.
fn rule_strategy() -> impl Strategy<Value = FaultRule> {
    (
        proptest::sample::select(vec![
            FaultKind::Drop,
            FaultKind::Delay,
            FaultKind::Duplicate,
            FaultKind::Reorder,
        ]),
        0u32..=1_000_000,
    )
        .prop_map(|(kind, prob_ppm)| FaultRule { kind, prob_ppm })
}

fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        proptest::collection::vec(rule_strategy(), 0..5),
    )
        .prop_map(|(seed, rules)| {
            let mut plan = FaultPlan::new(seed);
            plan.rules = rules;
            plan
        })
}

/// Render the full decision trace of a plan over a message window — the
/// injected-fault sequence plus the backoff schedule.
fn decision_trace(plan: &FaultPlan, ranks: usize, seqs: u64, attempts: u32) -> Vec<(u64, u64)> {
    let mut trace = Vec::new();
    for src in 0..ranks {
        for dst in 0..ranks {
            for seq in 0..seqs {
                for attempt in 0..attempts {
                    let d = match plan.decide_send(src, dst, seq, attempt) {
                        SendDecision::Drop => u64::MAX,
                        SendDecision::Deliver {
                            delay_us,
                            duplicate,
                        } => delay_us * 2 + duplicate as u64,
                    };
                    let b = plan.backoff_us(src, dst, seq, attempt);
                    trace.push((d, b));
                }
                trace.push((plan.decide_reorder(src, dst, seq) as u64, 0));
            }
        }
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same seed + rules ⇒ bit-identical decision and backoff trace.
    #[test]
    fn identical_plans_replay_identical_fault_schedules(plan in plan_strategy()) {
        let replay = plan.clone();
        prop_assert_eq!(
            decision_trace(&plan, 3, 24, 4),
            decision_trace(&replay, 3, 24, 4)
        );
    }

    /// Backoff stays inside the policy's bounded-exponential window.
    #[test]
    fn backoff_is_always_inside_the_window(
        plan in plan_strategy(),
        src in 0usize..4,
        dst in 0usize..4,
        seq in 0u64..1000,
        attempt in 0u32..20,
    ) {
        let b = plan.backoff_us(src, dst, seq, attempt);
        let window = plan.delivery.backoff_window_us(attempt);
        prop_assert!(b >= window / 2 && b <= window);
    }

    /// A parsed spec re-parsed from the same string is the same plan.
    #[test]
    fn parse_spec_is_deterministic(seed in any::<u64>(), drop_pct in 0u32..=100) {
        let spec = format!("seed={seed},drop=0.{drop_pct:02},dup=0.05");
        let a = FaultPlan::parse_spec(&spec).unwrap();
        let b = FaultPlan::parse_spec(&spec).unwrap();
        prop_assert_eq!(a, b);
    }
}

/// End-to-end replay: the same plan driving a real cluster exchange
/// twice yields the identical fault totals and identical results —
/// thread scheduling does not leak into the injected schedule.
#[test]
fn faulted_cluster_runs_replay_identically() {
    let mut plan = FaultPlan::new(0xC0FFEE)
        .with_rule(FaultKind::Drop, 120_000)
        .with_rule(FaultKind::Delay, 80_000)
        .with_rule(FaultKind::Duplicate, 120_000)
        .with_rule(FaultKind::Reorder, 150_000);
    plan.delivery.max_retries = 64;
    plan.delay_max_us = 30;
    let run = |plan: &FaultPlan| {
        let config = ClusterConfig::new(3, 1).with_fault_plan(plan);
        run_cluster::<Vec<u32>, _, _>(config, |ctx| {
            let p = ctx.size();
            for i in 0..30u32 {
                for to in 0..p {
                    if to != ctx.rank() {
                        ctx.send(to, vec![ctx.rank() as u32 * 1000 + i]);
                    }
                }
            }
            let mut got = Vec::new();
            for from in 0..p {
                if from == ctx.rank() {
                    continue;
                }
                for _ in 0..30 {
                    got.push(ctx.recv_from(from)[0]);
                }
            }
            got
        })
    };
    let a = run(&plan);
    let b = run(&plan);
    assert_eq!(a.results, b.results);
    // Sender-side decisions are pure functions of the plan, so their
    // totals replay exactly. (Receive-side opportunistic tallies —
    // reorders taken, envelopes stashed — depend on what happened to be
    // queued at poll time, i.e. on thread scheduling; the *delivery* is
    // exactly-once in-order either way, which `results` pins above.)
    assert_eq!(a.faults.drops, b.faults.drops);
    assert_eq!(a.faults.retries, b.faults.retries);
    assert_eq!(a.faults.delays, b.faults.delays);
    assert_eq!(a.faults.duplicates_sent, b.faults.duplicates_sent);
    assert!(a.faults.drops > 0, "plan too timid: no drops fired");
    assert!(a.faults.duplicates_sent > 0, "no duplicates fired");
}
