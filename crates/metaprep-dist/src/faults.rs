//! Deterministic, seeded fault injection for the simulated cluster.
//!
//! Real transports drop, delay, duplicate and reorder messages, and
//! ranks die mid-pass. Before any pluggable-transport backend lands the
//! pipeline needs a fault model it can be tested against — one whose
//! every decision is **replayable**: a [`FaultPlan`] is a seed plus a
//! list of declarative rules, and each injection decision is a pure
//! function of `(seed, kind, src, dst, seq, attempt)` hashed through
//! SplitMix64. Two runs with the same plan inject the identical fault
//! sequence regardless of thread scheduling — the contract pinned by
//! the proptest determinism gate in `tests/fault_props.rs`.
//!
//! The plan hooks the `Envelope` send/recv path in [`crate::cluster`]:
//!
//! * **drop** — the send is suppressed; the delivery layer backs off
//!   (deterministic bounded exponential backoff, see
//!   [`crate::delivery::DeliveryPolicy`]) and retries until the decision
//!   passes or retries are exhausted, which escalates into a structured
//!   [`FaultReport`] instead of a silent hang;
//! * **delay** — the send sleeps a bounded, seed-derived duration first;
//! * **duplicate** — an extra wire copy ships after the real envelope
//!   and is discarded by the receiver's `(src, dst, seq)` dedup;
//! * **reorder** — the receiver opportunistically pulls the *next*
//!   queued envelope ahead of order, exercising the out-of-order stash
//!   path of [`crate::delivery::DedupState`] (receiver-side, so the
//!   lockstep staged all-to-all can never deadlock on a held-back send);
//! * **crash** — at a declared pass/merge-round [`Boundary`] the rank's
//!   `TaskCtx::crash_due` says so once; the rank drops what it holds and
//!   restarts from its last checkpoint (see `metaprep-core::checkpoint`).

use crate::delivery::DeliveryPolicy;

/// Probability denominator: rule probabilities are integer
/// parts-per-million so [`FaultPlan`] stays `Eq` (no floats).
pub const PPM: u32 = 1_000_000;

/// SplitMix64 finalizer — a bijective avalanche over `u64`. Decisions
/// hash their coordinates through this, so nearby `(seq, attempt)`
/// pairs land on independent-looking draws.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One draw for a message-scoped decision: a pure function of the plan
/// seed, a per-kind salt, and the message coordinates.
#[inline]
fn decision_hash(seed: u64, salt: u64, src: usize, dst: usize, seq: u64, attempt: u64) -> u64 {
    let mut h = splitmix64(seed ^ salt);
    h = splitmix64(h ^ (src as u64).wrapping_shl(32) ^ dst as u64);
    h = splitmix64(h ^ seq);
    splitmix64(h ^ attempt)
}

/// What a rule injects.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Suppress the wire push; the sender backs off and retries.
    Drop,
    /// Sleep a bounded seed-derived duration before the push.
    Delay,
    /// Ship an extra wire copy after the real envelope.
    Duplicate,
    /// Receiver pulls the next queued envelope ahead of order.
    Reorder,
}

impl FaultKind {
    /// Per-kind hash salt (distinct streams per kind).
    fn salt(self) -> u64 {
        match self {
            FaultKind::Drop => 0x0D20,
            FaultKind::Delay => 0x0DE1,
            FaultKind::Duplicate => 0x0D0B,
            FaultKind::Reorder => 0x0520,
        }
    }
}

/// One declarative injection rule.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FaultRule {
    /// What to inject.
    pub kind: FaultKind,
    /// Probability in parts-per-million (see [`PPM`]).
    pub prob_ppm: u32,
}

/// A safe restart point in the pipeline: the rank has neither sent nor
/// consumed anything of the phase that follows, so replaying from the
/// matching checkpoint is byte-identical.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Boundary {
    /// Before KmerGen of pass `p` (0-based).
    Pass(u32),
    /// Before merge round `r` (0-based stride round).
    MergeRound(u32),
}

impl std::fmt::Display for Boundary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Boundary::Pass(p) => write!(f, "pass{p}"),
            Boundary::MergeRound(r) => write!(f, "merge{r}"),
        }
    }
}

/// A declared crash: `rank` dies (once) when it reaches `at`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// The rank that crashes.
    pub rank: u32,
    /// The span boundary it crashes at.
    pub at: Boundary,
}

/// Structured escalation report: produced when retries are exhausted or
/// the watchdog declares a stall — the replacement for a flat panic
/// string (rendered through `Display`, so the panic message still
/// carries every field).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultReport {
    /// What gave up.
    pub kind: FaultReportKind,
    /// Reporting rank.
    pub rank: usize,
    /// Peer rank involved (receiver for retries, stalled rank for stalls).
    pub peer: usize,
    /// Message sequence number (retry exhaustion) or 0.
    pub seq: u64,
    /// Delivery attempts made (retry exhaustion) or 0.
    pub attempts: u32,
    /// Extra context lines (per-task states for stalls).
    pub detail: String,
}

/// Escalation classes of a [`FaultReport`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultReportKind {
    /// A message exhausted its delivery retries.
    RetriesExhausted,
    /// A peer made no progress for longer than the watchdog timeout.
    Stall,
}

impl std::fmt::Display for FaultReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            FaultReportKind::RetriesExhausted => write!(
                f,
                "FAULT REPORT: task {} exhausted {} delivery attempts for message seq {} to task {}{}",
                self.rank, self.attempts, self.seq, self.peer, self.detail
            ),
            FaultReportKind::Stall => write!(
                f,
                "FAULT REPORT: cluster STALL — task {} made no progress past the watchdog \
                 timeout while task {} awaited it{}",
                self.peer, self.rank, self.detail
            ),
        }
    }
}

/// A complete, self-describing fault schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of every injection decision.
    pub seed: u64,
    /// Message-level injection rules.
    pub rules: Vec<FaultRule>,
    /// Declared rank crashes.
    pub crashes: Vec<CrashSpec>,
    /// Retry/backoff parameters for dropped sends.
    pub delivery: DeliveryPolicy,
    /// Upper bound (exclusive of +1) on an injected delay, microseconds.
    pub delay_max_us: u64,
}

/// Outcome of [`FaultPlan::decide_send`] for one delivery attempt.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SendDecision {
    /// Suppress this attempt; back off and retry.
    Drop,
    /// Push the envelope, after `delay_us` of injected latency, shipping
    /// an extra wire copy when `duplicate` is set.
    Deliver {
        /// Injected latency before the push, microseconds.
        delay_us: u64,
        /// Ship a duplicate wire copy after the real envelope.
        duplicate: bool,
    },
}

impl FaultPlan {
    /// An empty plan (no rules, no crashes) with default delivery.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rules: Vec::new(),
            crashes: Vec::new(),
            delivery: DeliveryPolicy::default(),
            delay_max_us: 500,
        }
    }

    /// Add a rule covering all `(src, dst)` pairs.
    pub fn with_rule(mut self, kind: FaultKind, prob_ppm: u32) -> Self {
        self.rules.push(FaultRule { kind, prob_ppm });
        self
    }

    /// Add a declared crash.
    pub fn with_crash(mut self, rank: u32, at: Boundary) -> Self {
        self.crashes.push(CrashSpec { rank, at });
        self
    }

    /// Decide the fate of delivery attempt `attempt` of message
    /// `(src, dst, seq)`. Pure: same inputs, same decision.
    pub fn decide_send(&self, src: usize, dst: usize, seq: u64, attempt: u32) -> SendDecision {
        let mut delay_us = 0u64;
        let mut duplicate = false;
        for rule in &self.rules {
            if rule.prob_ppm == 0 {
                continue;
            }
            let h = decision_hash(self.seed, rule.kind.salt(), src, dst, seq, attempt as u64);
            if h % PPM as u64 >= rule.prob_ppm as u64 {
                continue;
            }
            match rule.kind {
                FaultKind::Drop => return SendDecision::Drop,
                FaultKind::Delay => {
                    // A second, salted draw sizes the delay.
                    let d = decision_hash(self.seed, 0xD15E, src, dst, seq, attempt as u64);
                    delay_us += 1 + d % self.delay_max_us.max(1);
                }
                FaultKind::Duplicate => duplicate = true,
                // Reorder is a receive-side decision (see decide_reorder).
                FaultKind::Reorder => {}
            }
        }
        SendDecision::Deliver {
            delay_us,
            duplicate,
        }
    }

    /// Receive-side decision: should the receiver pull the message after
    /// `(src, dst, seq)` ahead of order? Pure, like `decide_send`.
    pub fn decide_reorder(&self, src: usize, dst: usize, seq: u64) -> bool {
        self.rules.iter().any(|rule| {
            rule.kind == FaultKind::Reorder
                && rule.prob_ppm > 0
                && decision_hash(self.seed, rule.kind.salt(), src, dst, seq, 0) % (PPM as u64)
                    < rule.prob_ppm as u64
        })
    }

    /// Deterministic backoff before retry `attempt` of `(src, dst, seq)`:
    /// bounded exponential with seed-derived jitter in the upper half of
    /// the window (see [`DeliveryPolicy::backoff_window_us`]).
    pub fn backoff_us(&self, src: usize, dst: usize, seq: u64, attempt: u32) -> u64 {
        let window = self.delivery.backoff_window_us(attempt);
        let jitter = decision_hash(self.seed, 0xBAC0, src, dst, seq, attempt as u64);
        window / 2 + jitter % (window / 2 + 1)
    }

    /// Does this plan crash `rank` at `at`?
    pub fn crashes_at(&self, rank: usize, at: Boundary) -> bool {
        self.crashes
            .iter()
            .any(|c| c.rank as usize == rank && c.at == at)
    }

    /// Parse a compact plan spec, e.g.
    /// `seed=42,drop=0.01,dup=0.01,delay=0.02,reorder=0.05,crash=rank1@pass1,max-retries=8`.
    ///
    /// Keys: `seed=N`; probabilities `drop|delay|dup|reorder=F` (fraction
    /// in `[0, 1]`); `crash=rankR@passP` or `crash=rankR@mergeM`
    /// (repeatable); `max-retries=N`, `backoff-base-us=N`,
    /// `backoff-cap-us=N`, `delay-max-us=N`.
    pub fn parse_spec(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(0);
        for tok in spec.split(',').filter(|t| !t.trim().is_empty()) {
            let (key, val) = tok
                .split_once('=')
                .ok_or_else(|| format!("fault-plan token {tok:?}: expected key=value"))?;
            let (key, val) = (key.trim(), val.trim());
            let int = |v: &str| -> Result<u64, String> {
                v.parse()
                    .map_err(|_| format!("fault-plan {key}={v:?}: expected an integer"))
            };
            match key {
                "seed" => plan.seed = int(val)?,
                "drop" | "delay" | "dup" | "reorder" => {
                    let f: f64 = val
                        .parse()
                        .map_err(|_| format!("fault-plan {key}={val:?}: expected a probability"))?;
                    if !(0.0..=1.0).contains(&f) {
                        return Err(format!("fault-plan {key}={val}: not in [0, 1]"));
                    }
                    let kind = match key {
                        "drop" => FaultKind::Drop,
                        "delay" => FaultKind::Delay,
                        "dup" => FaultKind::Duplicate,
                        _ => FaultKind::Reorder,
                    };
                    plan = plan.with_rule(kind, (f * PPM as f64).round() as u32);
                }
                "crash" => {
                    let (r, b) = val
                        .split_once('@')
                        .ok_or_else(|| format!("fault-plan crash={val:?}: expected rankR@passP"))?;
                    let rank = r
                        .strip_prefix("rank")
                        .and_then(|n| n.parse::<u32>().ok())
                        .ok_or_else(|| format!("fault-plan crash={val:?}: bad rank {r:?}"))?;
                    let at = if let Some(p) = b.strip_prefix("pass") {
                        Boundary::Pass(
                            p.parse()
                                .map_err(|_| format!("fault-plan crash={val:?}: bad pass {b:?}"))?,
                        )
                    } else if let Some(m) = b.strip_prefix("merge") {
                        Boundary::MergeRound(
                            m.parse().map_err(|_| {
                                format!("fault-plan crash={val:?}: bad round {b:?}")
                            })?,
                        )
                    } else {
                        return Err(format!(
                            "fault-plan crash={val:?}: boundary must be passP or mergeM"
                        ));
                    };
                    plan = plan.with_crash(rank, at);
                }
                "max-retries" => plan.delivery.max_retries = int(val)? as u32,
                "backoff-base-us" => plan.delivery.backoff_base_us = int(val)?,
                "backoff-cap-us" => plan.delivery.backoff_cap_us = int(val)?,
                "delay-max-us" => plan.delay_max_us = int(val)?,
                _ => return Err(format!("fault-plan: unknown key {key:?}")),
            }
        }
        Ok(plan)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::new(42)
            .with_rule(FaultKind::Drop, 100_000)
            .with_rule(FaultKind::Delay, 50_000)
            .with_rule(FaultKind::Duplicate, 50_000);
        for src in 0..3 {
            for dst in 0..3 {
                for seq in 0..50 {
                    for attempt in 0..4 {
                        assert_eq!(
                            plan.decide_send(src, dst, seq, attempt),
                            plan.decide_send(src, dst, seq, attempt)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let plan = FaultPlan::new(7).with_rule(FaultKind::Drop, 250_000); // 25%
        let drops = (0..4000u64)
            .filter(|&seq| plan.decide_send(0, 1, seq, 0) == SendDecision::Drop)
            .count();
        // 25% of 4000 = 1000; allow a generous band for the hash draw.
        assert!((700..1300).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn zero_probability_never_fires() {
        let plan = FaultPlan::new(3)
            .with_rule(FaultKind::Drop, 0)
            .with_rule(FaultKind::Reorder, 0);
        assert!(plan.crashes.is_empty() && plan.rules.iter().all(|r| r.prob_ppm == 0));
        for seq in 0..200 {
            assert_eq!(
                plan.decide_send(0, 1, seq, 0),
                SendDecision::Deliver {
                    delay_us: 0,
                    duplicate: false
                }
            );
            assert!(!plan.decide_reorder(0, 1, seq));
        }
    }

    #[test]
    fn full_probability_always_fires() {
        let plan = FaultPlan::new(9).with_rule(FaultKind::Drop, PPM);
        for seq in 0..100 {
            for attempt in 0..8 {
                assert_eq!(plan.decide_send(2, 3, seq, attempt), SendDecision::Drop);
            }
        }
    }

    #[test]
    fn retry_attempt_changes_the_draw() {
        // A 50% drop rule must not drop every attempt of every message:
        // attempt is part of the hash, so retries eventually pass.
        let plan = FaultPlan::new(11).with_rule(FaultKind::Drop, 500_000);
        let mut some_retry_passed = false;
        for seq in 0..50u64 {
            if plan.decide_send(0, 1, seq, 0) == SendDecision::Drop
                && plan.decide_send(0, 1, seq, 1) != SendDecision::Drop
            {
                some_retry_passed = true;
            }
        }
        assert!(some_retry_passed);
    }

    #[test]
    fn backoff_is_bounded_monotone_in_expectation_and_deterministic() {
        let plan = FaultPlan::new(21);
        for attempt in 0..12 {
            let b = plan.backoff_us(0, 1, 7, attempt);
            assert_eq!(b, plan.backoff_us(0, 1, 7, attempt));
            let window = plan.delivery.backoff_window_us(attempt);
            assert!(b >= window / 2 && b <= window, "attempt {attempt}: {b}");
            assert!(b <= plan.delivery.backoff_cap_us);
        }
    }

    #[test]
    fn crash_lookup() {
        let plan = FaultPlan::new(1)
            .with_crash(1, Boundary::Pass(1))
            .with_crash(2, Boundary::MergeRound(0));
        assert!(plan.crashes_at(1, Boundary::Pass(1)));
        assert!(!plan.crashes_at(1, Boundary::Pass(0)));
        assert!(plan.crashes_at(2, Boundary::MergeRound(0)));
        assert!(!plan.crashes_at(0, Boundary::MergeRound(0)));
    }

    #[test]
    fn spec_roundtrip_parses_all_keys() {
        let plan = FaultPlan::parse_spec(
            "seed=42,drop=0.01,dup=0.02,delay=0.03,reorder=0.04,\
             crash=rank1@pass1,crash=rank0@merge2,max-retries=9,\
             backoff-base-us=10,backoff-cap-us=100,delay-max-us=50",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rules.len(), 4);
        assert_eq!(plan.rules[0].kind, FaultKind::Drop);
        assert_eq!(plan.rules[0].prob_ppm, 10_000);
        assert_eq!(plan.rules[3].prob_ppm, 40_000);
        assert_eq!(
            plan.crashes,
            vec![
                CrashSpec {
                    rank: 1,
                    at: Boundary::Pass(1)
                },
                CrashSpec {
                    rank: 0,
                    at: Boundary::MergeRound(2)
                },
            ]
        );
        assert_eq!(plan.delivery.max_retries, 9);
        assert_eq!(plan.delivery.backoff_base_us, 10);
        assert_eq!(plan.delivery.backoff_cap_us, 100);
        assert_eq!(plan.delay_max_us, 50);
    }

    #[test]
    fn spec_rejects_malformed_tokens() {
        for bad in [
            "drop",
            "drop=2.0",
            "drop=x",
            "crash=rank1",
            "crash=one@pass1",
            "crash=rank1@boot",
            "seed=abc",
            "bogus=1",
        ] {
            assert!(FaultPlan::parse_spec(bad).is_err(), "accepted {bad:?}");
        }
        let empty = FaultPlan::parse_spec("").unwrap();
        assert!(empty.rules.is_empty() && empty.crashes.is_empty());
    }

    #[test]
    fn fault_report_renders_all_fields() {
        let r = FaultReport {
            kind: FaultReportKind::RetriesExhausted,
            rank: 2,
            peer: 3,
            seq: 17,
            attempts: 9,
            detail: String::new(),
        };
        let s = r.to_string();
        for needle in ["FAULT REPORT", "task 2", "task 3", "seq 17", "9 "] {
            assert!(s.contains(needle), "missing {needle:?} in {s}");
        }
        let stall = FaultReport {
            kind: FaultReportKind::Stall,
            rank: 0,
            peer: 1,
            seq: 0,
            attempts: 0,
            detail: "\n  task 1: running".into(),
        };
        assert!(stall.to_string().contains("STALL"));
    }
}
