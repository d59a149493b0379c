//! Task spawning, per-pair channels, and the task context.
//!
//! The run's recorder and fault plan ride on [`ClusterConfig`]; each
//! rank's [`TaskCtx`] owns its [`TaskObs`], and message edges are tagged
//! by the enclosing [`TaskCtx::span`].
//!
//! # Concurrency correctness
//!
//! The simulator carries its own runtime misuse detectors (see DESIGN.md
//! "Safety & verification"):
//!
//! * **Deadlock watchdog** — every blocking receive polls with a short
//!   timeout and publishes the task's state (running / done / blocked on
//!   a specific peer). When a poll expires, the task checks
//!   whether *every* live task is blocked while every awaited inbox is
//!   empty — a condition that is stable (a blocked task cannot send), so
//!   observing it once proves no future progress. Instead of hanging,
//!   the run aborts with a per-task state report.
//! * **Message conservation** — sends and receives are counted per
//!   task; at the end of a run the harness asserts
//!   `sent == received + still-queued`, so a lost or duplicated message
//!   in the channel layer cannot go unnoticed.
//! * **Schedule exploration** — [`explore_schedules`] re-runs a cluster
//!   body under deterministic per-task timing jitter so that
//!   order-dependent bugs surface without a model checker. The cluster
//!   itself is not built under `--cfg loom`; `tests/loom.rs` model-checks
//!   the parts the concurrency lives in — the `crate::sync` channel
//!   matrix, the [`crate::stage_peers`] schedule and
//!   [`crate::DedupState`].

use crate::delivery::{DedupState, Offer};
use crate::faults::{Boundary, FaultPlan, FaultReport, FaultReportKind, SendDecision};
use crate::stats::CommStats;
use crate::sync::channel::{DepthProbe, Receiver, RecvTimeoutError, Sender};
use crate::sync::{AtomicBool, AtomicU64, Ordering};
use crate::Payload;
use metaprep_obs::{CounterKind, MemRecorder, TaskObs};
use std::cell::{Cell, RefCell, RefMut};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

/// The logical message: the payload plus the sender's Lamport clock at
/// the send and the per-pair sequence number. Clock and seq are tracing
/// metadata — they cost two `u64`s per message and are NOT counted as
/// communication volume (`CommStats` stays the single source of truth
/// for modeled bytes). The seq is what the receive-side `(src, dst, seq)`
/// dedup keys on.
struct Envelope<M> {
    msg: M,
    clock: u64,
    seq: u64,
}

/// What actually travels on a channel. Without fault injection every
/// wire item is `Env`. A `Duplicate` fault ships a `Dup` ghost right
/// after the real envelope (payloads are owned buffers, so a real
/// second copy cannot exist), and the receiver discards it — exactly
/// what an idempotent receiver does to a retransmitted datagram. The
/// ghost needs no sequence number: it rides directly behind the
/// envelope it duplicates on the same FIFO channel, so its position is
/// its identity.
enum Wire<M> {
    Env(Envelope<M>),
    Dup,
}

/// Default stall threshold: how long a peer may go without making any
/// channel progress before a task blocked on it escalates a
/// [`FaultReport`]. Deliberately far above the deadlock watchdog's poll
/// interval — a computing task makes no channel progress, so this must
/// exceed the longest legitimate compute phase between communications.
const DEFAULT_WATCHDOG_TIMEOUT: Duration = Duration::from_secs(5);

/// Cluster shape — `tasks` simulated MPI ranks, each owning a rayon pool
/// of `threads_per_task` threads — plus what every rank runs under: the
/// recorder its observer flushes into and the fault schedule.
#[derive(Copy, Clone)]
pub struct ClusterConfig<'a> {
    /// Number of simulated MPI tasks (`P`).
    pub tasks: usize,
    /// Threads per task (`T`).
    pub threads_per_task: usize,
    /// Stall threshold: a task blocked receiving from a peer that has
    /// made no channel progress for longer than this aborts the run
    /// with a structured stall report (see `DEFAULT_WATCHDOG_TIMEOUT`).
    pub watchdog_timeout: Duration,
    /// Where each rank's [`TaskObs`] flushes (default: [`MemRecorder::off`]).
    recorder: &'a MemRecorder,
    /// The deterministic fault schedule every send, receive and crash
    /// boundary runs under; `None` (the default) is fault-free.
    fault_plan: Option<&'a FaultPlan>,
}

impl ClusterConfig<'static> {
    /// Convenience constructor (default watchdog timeout, an off recorder,
    /// no fault plan).
    pub fn new(tasks: usize, threads_per_task: usize) -> Self {
        assert!(tasks >= 1 && threads_per_task >= 1);
        Self {
            tasks,
            threads_per_task,
            watchdog_timeout: DEFAULT_WATCHDOG_TIMEOUT,
            recorder: MemRecorder::off(),
            fault_plan: None,
        }
    }
}

impl<'a> ClusterConfig<'a> {
    /// Override the stall threshold (see [`ClusterConfig::watchdog_timeout`]).
    pub fn with_watchdog_timeout(mut self, timeout: Duration) -> Self {
        assert!(!timeout.is_zero(), "watchdog timeout must be nonzero");
        self.watchdog_timeout = timeout;
        self
    }

    /// Record every rank's spans, counters and message edges into `rec`.
    pub fn with_recorder(mut self, rec: &'a MemRecorder) -> Self {
        self.recorder = rec;
        self
    }

    /// Run every message and crash boundary through `plan`'s injection
    /// plane (see [`crate::faults`]). The conservation accounting still
    /// holds (generalized over duplicates and stashes), so a protocol bug
    /// cannot hide behind the chaos.
    pub fn with_fault_plan(mut self, plan: &'a FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

/// Fault/recovery tallies: one rank's in its [`TaskCtx`], the cluster's
/// summed over all ranks once they have joined. All zero on a fault-free
/// run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Send attempts suppressed by a drop rule.
    pub drops: u64,
    /// Delivery retries made after drops (equals `drops` on a run that
    /// completed, since every drop is eventually retried).
    pub retries: u64,
    /// Sends that slept under an injected delay.
    pub delays: u64,
    /// Duplicate wire copies shipped.
    pub duplicates_sent: u64,
    /// Duplicate wire items discarded by receive-side dedup.
    pub duplicates_discarded: u64,
    /// Receive-side reorder injections that fired.
    pub reorders: u64,
    /// Envelopes held out-of-order in a stash at some point.
    pub stashed: u64,
}

impl std::iter::Sum for FaultStats {
    fn sum<I: Iterator<Item = Self>>(ranks: I) -> Self {
        ranks.fold(Self::default(), |a, b| Self {
            drops: a.drops + b.drops,
            retries: a.retries + b.retries,
            delays: a.delays + b.delays,
            duplicates_sent: a.duplicates_sent + b.duplicates_sent,
            duplicates_discarded: a.duplicates_discarded + b.duplicates_discarded,
            reorders: a.reorders + b.reorders,
            stashed: a.stashed + b.stashed,
        })
    }
}

/// Results of a cluster run: per-task return values and communication
/// statistics, both indexed by rank.
#[derive(Debug)]
pub struct ClusterResult<R> {
    /// Per-task return values.
    pub results: Vec<R>,
    /// Per-task communication statistics.
    pub stats: Vec<CommStats>,
    /// Fault-injection totals (all zero without a fault plan).
    pub faults: FaultStats,
}

/// Task-state word: the task is executing user code.
const STATE_RUNNING: u64 = u64::MAX;
/// Task-state word: the task body returned.
const STATE_DONE: u64 = u64::MAX - 1;
// Any other value `v` means "blocked receiving from rank `v`".

/// Watchdog poll interval for blocking receives.
const WATCHDOG_POLL: Duration = Duration::from_millis(25);

struct SharedState {
    bytes_sent: Vec<AtomicU64>,
    messages_sent: Vec<AtomicU64>,
    bytes_received: Vec<AtomicU64>,
    messages_received: Vec<AtomicU64>,
    /// Per-task state word (see the `STATE_*` constants).
    task_state: Vec<AtomicU64>,
    /// Set by the watchdog (or a panicking task) to release every
    /// blocked task so the scope join can complete.
    aborted: AtomicBool,
    /// `inbox_depth[to][from]`: queue-depth probe of the channel from
    /// `from` into `to`, readable by the watchdog from any task.
    inbox_depth: Vec<Vec<DepthProbe>>,
    /// Time origin for the stall watchdog's progress stamps.
    epoch: std::time::Instant,
    /// `last_progress[rank]`: nanoseconds since `epoch` at the rank's
    /// most recent channel progress (send delivered, message received).
    /// Stamp 0 means "no progress yet" — tasks get the full stall budget
    /// from cluster start.
    last_progress: Vec<AtomicU64>,
    /// Stall threshold in nanoseconds (`ClusterConfig::watchdog_timeout`).
    stall_after_ns: u64,
}

impl SharedState {
    /// Deadlock test, run by a task whose receive just timed out.
    ///
    /// Returns a report if **every** task is done or blocked while every
    /// recv-blocked task's awaited inbox is empty. The condition is
    /// stable once observed: a blocked or done task sends nothing, so no
    /// awaited inbox can become non-empty — the cluster can never make
    /// progress again and aborting is sound. (A task observed RUNNING
    /// may still send, so the watchdog stays quiet and retries.) The
    /// caller is itself blocked, so "every task done" cannot be observed.
    fn deadlock_report(&self) -> Option<String> {
        let p = self.task_state.len();
        // ORDERING: Relaxed — state words and depth probes are monitoring
        // data; the decision only needs each value to be *eventually*
        // current, and the re-poll loop provides that.
        for rank in 0..p {
            // ORDERING: Relaxed — monitoring only, as above.
            match self.task_state[rank].load(Ordering::Relaxed) {
                STATE_DONE => {}
                STATE_RUNNING => return None,
                from => {
                    if !self.inbox_depth[rank][from as usize].is_empty() {
                        return None; // a message is waiting; progress possible
                    }
                }
            }
        }
        Some(format!(
            "cluster DEADLOCK: all tasks blocked, all awaited inboxes empty{}",
            self.task_states()
        ))
    }

    /// One `\n  task r: <state>` line per task, for the watchdog reports.
    fn task_states(&self) -> String {
        let mut out = String::new();
        for (rank, state) in self.task_state.iter().enumerate() {
            // ORDERING: Relaxed — report rendering; monitoring only.
            let desc = match state.load(Ordering::Relaxed) {
                STATE_DONE => "done".to_string(),
                STATE_RUNNING => "running".to_string(),
                from => format!(
                    "blocked on recv from task {from} ({} sent / {} received)",
                    self.messages_sent[rank].load(Ordering::Relaxed),
                    self.messages_received[rank].load(Ordering::Relaxed),
                ),
            };
            out.push_str(&format!("\n  task {rank}: {desc}"));
        }
        out
    }

    /// Nanoseconds since the cluster epoch.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Stamp `rank`'s progress clock (called on every send delivery and
    /// receive).
    fn note_progress(&self, rank: usize) {
        // ORDERING: Relaxed — monitoring stamp, read only by the
        // watchdog whose decision tolerates staleness (it re-polls).
        self.last_progress[rank].store(self.now_ns(), Ordering::Relaxed);
    }

    /// Stall test, run by task `rank` whose receive from `from` just
    /// timed out: has `from` made no channel progress for longer than
    /// the configured watchdog timeout while its inbox to us is empty?
    /// Unlike the deadlock test this also catches a peer that is
    /// *running* but wedged (an injected stall, an accidental infinite
    /// loop) or that exited without sending — at the cost of a false
    /// positive if a legitimate compute phase outlasts the timeout,
    /// which is why the threshold is configurable and defaults high.
    fn stall_report(&self, rank: usize, from: usize) -> Option<FaultReport> {
        if !self.inbox_depth[rank][from].is_empty() {
            return None; // a message is waiting; we will make progress
        }
        // ORDERING: Relaxed — monitoring stamp, as in `note_progress`.
        let idle_ns = self
            .now_ns()
            .saturating_sub(self.last_progress[from].load(Ordering::Relaxed));
        if idle_ns <= self.stall_after_ns {
            return None;
        }
        Some(FaultReport {
            kind: FaultReportKind::Stall,
            rank,
            peer: from,
            seq: 0,
            attempts: 0,
            detail: self.task_states(),
        })
    }
}

/// The innermost open [`TaskCtx::span`]: what message edges are tagged
/// with (`stage` = its name, `round` = `pass.or(detail)`).
#[derive(Copy, Clone)]
struct Enclosing {
    name: &'static str,
    pass: Option<u32>,
    detail: Option<u32>,
}

/// Outside every span: edges carry stage `"unspanned"`, round `None`.
const UNSPANNED: Enclosing = Enclosing {
    name: "unspanned",
    pass: None,
    detail: None,
};

/// The view a task body gets of the cluster: its rank, its channels, its
/// thread pool, its observer.
pub struct TaskCtx<'a, M: Payload> {
    rank: usize,
    size: usize,
    /// senders[to] — channel into task `to`'s inbox from this task.
    senders: Vec<Sender<Wire<M>>>,
    /// receivers[from] — this task's inbox from task `from`.
    receivers: Vec<Receiver<Wire<M>>>,
    shared: Arc<SharedState>,
    pool: rayon::ThreadPool,
    /// Schedule-jitter PRNG state; 0 disables jitter (the default).
    jitter: Cell<u64>,
    /// send_seq[to] — messages sent to `to` so far. Channels are per-pair
    /// FIFO, so both endpoints derive matching 0-based sequence numbers
    /// independently.
    send_seq: Vec<Cell<u64>>,
    /// recv_seq[from] — messages received from `from` so far (see above).
    recv_seq: Vec<Cell<u64>>,
    /// The fault schedule; `None` (the fast path) without injection.
    fault_plan: Option<&'a FaultPlan>,
    /// dedup[from] — receive-side `(src, dst, seq)` dedup/reorder state.
    dedup: Vec<RefCell<DedupState>>,
    /// stash[from] — envelopes that arrived ahead of order, keyed by
    /// seq, held until their turn (`DedupState` tracks which are held).
    stash: Vec<RefCell<BTreeMap<u64, Envelope<M>>>>,
    /// Crash boundaries already taken (each declared crash fires once —
    /// the restarted task must run through the boundary).
    crashes_fired: RefCell<BTreeSet<Boundary>>,
    /// This rank's observer. A restart does not replace it: spans and
    /// counters of work done before a crash really happened and stay in
    /// the trace, and the Lamport clock keeps its continuity.
    obs: RefCell<TaskObs<'a>>,
    /// This rank's fault tallies; the run's [`FaultStats`] is their sum.
    faults: Cell<FaultStats>,
    /// The innermost open span, which tags message edges.
    enclosing: Cell<Enclosing>,
}

impl<'a, M: Payload> TaskCtx<'a, M> {
    /// This task's rank in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of tasks `P`.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The task-local rayon pool (the "OpenMP threads" of this rank).
    pub fn pool(&self) -> &rayon::ThreadPool {
        &self.pool
    }

    /// This rank's observer. Hold the guard only briefly: sends, receives
    /// and [`TaskCtx::span`] borrow it too.
    pub fn obs(&self) -> RefMut<'_, TaskObs<'a>> {
        self.obs.borrow_mut()
    }

    /// Run `work` as a span `name` of this rank (`pass` / `detail` say
    /// which pass or round it belongs to). Every send and receive inside
    /// it records an edge tagged `(name, pass.or(detail))`.
    pub fn span<R>(
        &self,
        name: &'static str,
        pass: Option<u32>,
        detail: Option<u32>,
        work: impl FnOnce() -> R,
    ) -> R {
        let open = self.obs.borrow().open();
        let outer = self.enclosing.replace(Enclosing { name, pass, detail });
        let out = work();
        self.enclosing.set(outer);
        self.obs.borrow_mut().close_detail(open, name, pass, detail);
        out
    }

    /// The `pass` of the innermost open span (collectives file their
    /// sub-spans under it).
    pub(crate) fn enclosing_pass(&self) -> Option<u32> {
        self.enclosing.get().pass
    }

    /// The `(stage, round)` tag of an edge recorded now.
    fn edge_tag(&self) -> (&'static str, Option<u32>) {
        let e = self.enclosing.get();
        (e.name, e.pass.or(e.detail))
    }

    /// Bump one of this rank's fault tallies.
    fn tally(&self, bump: impl FnOnce(&mut FaultStats)) {
        let mut f = self.faults.get();
        bump(&mut f);
        self.faults.set(f);
    }

    /// Count one fired fault injection on this rank's observer.
    fn note_fault(&self) {
        self.obs.borrow_mut().add(CounterKind::FaultsInjected, 1);
    }

    /// Crash-injection point: true if the active plan declares a crash
    /// for this rank at boundary `at` that has not fired yet. The caller
    /// then drops what it holds and resumes from its checkpoint; the
    /// boundary is marked fired (and counted as an injected fault), so the
    /// restarted task runs through it.
    pub fn crash_due(&self, at: Boundary) -> bool {
        let due = self
            .fault_plan
            .is_some_and(|plan| plan.crashes_at(self.rank, at))
            && self.crashes_fired.borrow_mut().insert(at);
        if due {
            self.note_fault();
        }
        due
    }

    /// Under [`explore_schedules`], perturb OS scheduling with a burst of
    /// deterministic-length yields before a visible operation.
    fn jitter_point(&self) {
        let s = self.jitter.get();
        if s == 0 {
            return;
        }
        // xorshift64* step — deterministic per (seed, call sequence).
        let mut x = s;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter.set(x);
        for _ in 0..(x % 4) {
            std::thread::yield_now();
        }
    }

    /// Send `msg` to task `to`. Never blocks (channels are unbounded; the
    /// simulation models volume, not backpressure). Records a send edge
    /// (advancing the Lamport clock, which ships with the message) and
    /// counts the volume in [`CommStats`].
    ///
    /// With a fault plan active, a `Drop` decision suppresses the push;
    /// the sender sleeps a deterministic bounded-exponential backoff and
    /// retries (the channel is the ack: in-process delivery is reliable
    /// once pushed, so retrying the push IS the retransmit). Logical
    /// counters are bumped once per message regardless of attempts.
    pub fn send(&self, to: usize, msg: M) {
        self.jitter_point();
        let (seq, bytes) = (self.send_seq[to].get(), msg.size_bytes() as u64);
        self.send_seq[to].set(seq + 1);
        let (stage, round) = self.edge_tag();
        let clock = self
            .obs
            .borrow_mut()
            .record_send(to as u32, stage, round, bytes, seq);
        // ORDERING: Relaxed — pure statistics counters; the channel itself
        // synchronizes the payload, and counters are only read after the
        // thread scope joins (or by the monitoring-only watchdog).
        self.shared.bytes_sent[self.rank].fetch_add(bytes, Ordering::Relaxed);
        // ORDERING: Relaxed — statistics counter, as above.
        self.shared.messages_sent[self.rank].fetch_add(1, Ordering::Relaxed);
        let env = Envelope { msg, clock, seq };
        let Some(plan) = self.fault_plan else {
            self.push(to, Wire::Env(env));
            self.shared.note_progress(self.rank);
            return;
        };
        let mut attempt = 0u32;
        loop {
            match plan.decide_send(self.rank, to, seq, attempt) {
                SendDecision::Drop => {
                    self.tally(|f| f.drops += 1);
                    self.note_fault();
                    if attempt >= plan.delivery.max_retries {
                        // Escalate: release blocked peers, then panic with
                        // the structured report.
                        // ORDERING: Relaxed — peers poll the abort flag.
                        self.shared.aborted.store(true, Ordering::Relaxed);
                        let report = FaultReport {
                            kind: FaultReportKind::RetriesExhausted,
                            rank: self.rank,
                            peer: to,
                            seq,
                            attempts: attempt + 1,
                            detail: String::new(),
                        };
                        panic!("{report}");
                    }
                    attempt += 1;
                    self.obs.borrow_mut().add(CounterKind::RetryAttempts, 1);
                    self.tally(|f| f.retries += 1);
                    let backoff = plan.backoff_us(self.rank, to, seq, attempt);
                    std::thread::sleep(Duration::from_micros(backoff));
                }
                SendDecision::Deliver {
                    delay_us,
                    duplicate,
                } => {
                    if delay_us > 0 {
                        self.tally(|f| f.delays += 1);
                        self.note_fault();
                        std::thread::sleep(Duration::from_micros(delay_us));
                    }
                    self.push(to, Wire::Env(env));
                    if duplicate {
                        self.push(to, Wire::Dup);
                        self.tally(|f| f.duplicates_sent += 1);
                        self.note_fault();
                    }
                    self.shared.note_progress(self.rank);
                    return;
                }
            }
        }
    }

    /// Put one wire item on the channel into `to`'s inbox.
    fn push(&self, to: usize, wire: Wire<M>) {
        self.senders[to]
            .send(wire)
            // EXPECT: receivers live until the thread scope joins; a disconnect means the peer already panicked and this panic surfaces it.
            .expect("receiving task exited before message was delivered");
    }

    /// Blocking receive of the next message from task `from`. Records a
    /// receive edge, merging the sender's Lamport clock
    /// (`max(local, sender) + 1`).
    ///
    /// Never hangs on a deadlocked cluster: the receive polls, publishes
    /// this task's blocked state, and runs the watchdog's deadlock test
    /// on every expiry (see the module docs). A detected deadlock aborts
    /// the run with a per-task report.
    pub fn recv_from(&self, from: usize) -> M {
        // The sequence number identifies THIS message: the count of
        // messages received from `from` before it (FIFO channel), read
        // before `recv_env` bumps the counter.
        let seq = self.recv_seq[from].get();
        let env = self.recv_env(from);
        let (stage, round) = self.edge_tag();
        let bytes = env.msg.size_bytes() as u64;
        self.obs
            .borrow_mut()
            .record_recv(from as u32, stage, round, bytes, seq, env.clock);
        env.msg
    }

    /// Bookkeeping for a delivered envelope: counters, sequence bump,
    /// progress stamp. `env.seq` is always the expected next sequence
    /// number (the dedup layer guarantees in-order delivery).
    fn finish_delivery(&self, from: usize, env: Envelope<M>) -> Envelope<M> {
        // ORDERING: Relaxed — monitoring state word + statistics counters;
        // the channel synchronized the payload itself.
        self.shared.task_state[self.rank].store(STATE_RUNNING, Ordering::Relaxed);
        self.shared.messages_received[self.rank].fetch_add(1, Ordering::Relaxed);
        // ORDERING: Relaxed — statistics counter, same reasoning as above.
        self.shared.bytes_received[self.rank]
            .fetch_add(env.msg.size_bytes() as u64, Ordering::Relaxed);
        self.recv_seq[from].set(self.recv_seq[from].get() + 1);
        self.shared.note_progress(self.rank);
        env
    }

    /// The blocking-receive path; returns the raw envelope so the caller
    /// can see the sender's clock.
    ///
    /// With a fault plan active this is the idempotent-receive side of
    /// the delivery protocol: every wire item is classified against the
    /// next expected `(src, dst)` sequence number — duplicates are
    /// discarded, early arrivals (from reorder injection) are stashed
    /// and delivered at their turn, and only the expected envelope is
    /// returned. Delivery to the caller is therefore always in-order,
    /// exactly once, no matter what the fault plane did to the wire.
    fn recv_env(&self, from: usize) -> Envelope<M> {
        self.jitter_point();
        loop {
            let next = self.recv_seq[from].get();
            // A stashed envelope whose turn has come is delivered before
            // touching the channel, so the stash can never starve.
            if self.fault_plan.is_some() && self.dedup[from].borrow_mut().take_ready(next) {
                let env = self.stash[from]
                    .borrow_mut()
                    .remove(&next)
                    // EXPECT: `take_ready` returning true means exactly this seq was recorded as stashed, and every Stash classification stores the envelope under its seq.
                    .expect("stashed envelope missing for ready seq");
                return self.finish_delivery(from, env);
            }
            // ORDERING: Relaxed on all state words — monitoring only; see
            // `SharedState::deadlock_report` for why stale reads are safe.
            self.shared.task_state[self.rank].store(from as u64, Ordering::Relaxed);
            let wire = loop {
                match self.receivers[from].recv_timeout(WATCHDOG_POLL) {
                    Ok(w) => break w,
                    Err(RecvTimeoutError::Timeout) => {
                        // ORDERING: Relaxed — abort flag is poll-only; the
                        // panic/unwind path needs no payload ordering.
                        if self.shared.aborted.load(Ordering::Relaxed) {
                            panic!("cluster aborted while task {} waited on recv", self.rank);
                        }
                        if let Some(report) = self.shared.deadlock_report() {
                            // First observer wins; others unwind via `aborted`.
                            // ORDERING: Relaxed — peers poll the flag, as above.
                            self.shared.aborted.store(true, Ordering::Relaxed);
                            panic!("{report}");
                        }
                        if let Some(report) = self.shared.stall_report(self.rank, from) {
                            // ORDERING: Relaxed — peers poll the flag, as above.
                            self.shared.aborted.store(true, Ordering::Relaxed);
                            panic!("{report}");
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        panic!("sending task exited before sending")
                    }
                }
            };
            let Wire::Env(env) = wire else {
                // A duplicate ghost: discard and keep waiting.
                self.tally(|f| f.duplicates_discarded += 1);
                continue;
            };
            let Some(plan) = self.fault_plan else {
                return self.finish_delivery(from, env);
            };
            // Reorder injection: opportunistically pull the wire behind
            // `env` off the channel early. Receiver-side by design — a
            // sender-side holdback could starve a dst the sender never
            // writes to again, whereas pulling ahead here always leaves
            // the expected envelope reachable (it is stashed and served
            // at its turn by the loop head), so this cannot deadlock.
            let mut pending = vec![env];
            if plan.decide_reorder(from, self.rank, next) {
                if let Ok(w2) = self.receivers[from].try_recv() {
                    self.tally(|f| f.reorders += 1);
                    self.note_fault();
                    match w2 {
                        Wire::Dup => self.tally(|f| f.duplicates_discarded += 1),
                        Wire::Env(e2) => pending.push(e2),
                    }
                }
            }
            let mut deliver = None;
            for e in pending {
                match self.dedup[from].borrow_mut().classify(next, e.seq) {
                    Offer::Deliver => deliver = Some(e),
                    Offer::Stash => {
                        self.stash[from].borrow_mut().insert(e.seq, e);
                        self.tally(|f| f.stashed += 1);
                    }
                    // A duplicate real envelope cannot occur (dups ship as
                    // ghosts), but the protocol discards it idempotently.
                    Offer::Duplicate => self.tally(|f| f.duplicates_discarded += 1),
                }
            }
            if let Some(env) = deliver {
                return self.finish_delivery(from, env);
            }
        }
    }
}

/// Best-effort view of a panic payload as a string (for classifying
/// secondary "cluster aborted" unwinds when re-raising a task failure).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        ""
    }
}

/// Run `body` on every rank of a simulated cluster and collect results.
/// Each rank's observer records into `config.recorder`, and every message
/// and crash boundary runs under `config.fault_plan` (see
/// [`ClusterConfig`]); the run's fault totals come back in
/// [`ClusterResult::faults`].
///
/// Panics in any task propagate (the run fails loudly, like an MPI abort).
pub fn run_cluster<'a, M, R, F>(config: ClusterConfig<'a>, body: F) -> ClusterResult<R>
where
    M: Payload,
    R: Send,
    F: Fn(&mut TaskCtx<'a, M>) -> R + Sync,
{
    run_cluster_inner(config, 0, body)
}

fn run_cluster_inner<'a, M, R, F>(config: ClusterConfig<'a>, seed: u64, body: F) -> ClusterResult<R>
where
    M: Payload,
    R: Send,
    F: Fn(&mut TaskCtx<'a, M>) -> R + Sync,
{
    let p = config.tasks;
    // Channel matrix: matrix[from][to].
    let mut senders: Vec<Vec<Sender<Wire<M>>>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
    let mut receivers: Vec<Vec<Option<Receiver<Wire<M>>>>> =
        (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
    for from in 0..p {
        for rx_row in receivers.iter_mut() {
            let (s, r) = crate::sync::channel::unbounded();
            senders[from].push(s);
            rx_row[from] = Some(r);
        }
    }
    let inbox_depth: Vec<Vec<DepthProbe>> = receivers
        .iter()
        .map(|row| {
            row.iter()
                // EXPECT: the wiring loop above fills all p*p receiver slots.
                .map(|r| r.as_ref().expect("filled").depth_probe())
                .collect()
        })
        .collect();

    let counters = || (0..p).map(|_| AtomicU64::new(0)).collect();
    let shared = Arc::new(SharedState {
        bytes_sent: counters(),
        messages_sent: counters(),
        bytes_received: counters(),
        messages_received: counters(),
        task_state: (0..p).map(|_| AtomicU64::new(STATE_RUNNING)).collect(),
        aborted: AtomicBool::new(false),
        inbox_depth,
        epoch: std::time::Instant::now(),
        last_progress: counters(),
        // Saturate: a timeout past u64 nanoseconds (~584 years) means never.
        stall_after_ns: u64::try_from(config.watchdog_timeout.as_nanos()).unwrap_or(u64::MAX),
    });

    let rec = config.recorder;
    let mut ctxs: Vec<TaskCtx<'a, M>> = senders
        .into_iter()
        .zip(receivers)
        .enumerate()
        .map(|(rank, (s, r))| TaskCtx {
            rank,
            size: p,
            senders: s,
            // EXPECT: the wiring loop filled all p*p receiver slots.
            receivers: r.into_iter().map(|o| o.expect("filled")).collect(),
            shared: Arc::clone(&shared),
            pool: rayon::ThreadPoolBuilder::new()
                .num_threads(config.threads_per_task)
                .build()
                // EXPECT: pool build fails only when the OS cannot spawn threads, unrecoverable for a compute cluster.
                .expect("failed to build task thread pool"),
            // Distinct non-zero stream per task (splitmix-style spread);
            // seed 0 disables jitter entirely.
            jitter: Cell::new(if seed == 0 {
                0
            } else {
                seed ^ (rank as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            }),
            send_seq: (0..p).map(|_| Cell::new(0)).collect(),
            recv_seq: (0..p).map(|_| Cell::new(0)).collect(),
            fault_plan: config.fault_plan,
            dedup: (0..p).map(|_| RefCell::new(DedupState::new())).collect(),
            stash: (0..p).map(|_| RefCell::new(BTreeMap::new())).collect(),
            crashes_fired: RefCell::new(BTreeSet::new()),
            obs: RefCell::new(TaskObs::new(rec, rank as u32)),
            faults: Cell::new(FaultStats::default()),
            enclosing: Cell::new(UNSPANNED),
        })
        .collect();

    let body = &body;
    let shared_for_tasks = &shared;
    let results: Vec<R> = std::thread::scope(|scope| {
        let handles: Vec<_> = ctxs
            .iter_mut()
            .map(|ctx| {
                scope.spawn(move || {
                    let rank = ctx.rank;
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let out = body(ctx);
                        ctx.obs.replace(TaskObs::new(rec, rank as u32)).finish();
                        out
                    }));
                    // ORDERING: Relaxed — monitoring-only state word.
                    shared_for_tasks.task_state[rank].store(STATE_DONE, Ordering::Relaxed);
                    if out.is_err() {
                        // Release peers blocked in recv so the scope
                        // join below completes and the panic propagates.
                        shared_for_tasks.aborted.store(true, Ordering::Relaxed);
                    }
                    out
                })
            })
            .collect();
        let outs: Vec<std::thread::Result<R>> = handles
            .into_iter()
            // EXPECT: the closure catches its own panics (the inner `thread::Result`), so `join` can only fail on a non-unwinding abort.
            .map(|h| h.join().expect("task thread died"))
            .collect();
        if outs.iter().any(Result::is_err) {
            // Re-raise the root cause: prefer any payload that is NOT a
            // secondary "cluster aborted" unwind (tasks released by the
            // abort flag after another task already failed).
            let mut secondary = None;
            for out in outs {
                if let Err(payload) = out {
                    // `&*payload`: downcast the payload itself, not the Box.
                    if panic_message(&*payload).starts_with("cluster aborted") {
                        secondary.get_or_insert(payload);
                    } else {
                        std::panic::resume_unwind(payload);
                    }
                }
            }
            // EXPECT: this branch runs only when some task returned Err, and every payload either resumed already or was stashed in `secondary`.
            std::panic::resume_unwind(secondary.expect("some task panicked"));
        }
        outs.into_iter()
            // EXPECT: the branch above resume-unwinds if any entry is Err, so all remaining are Ok.
            .map(|o| o.expect("checked above"))
            .collect()
    });

    // ORDERING: Relaxed — the thread scope join above is the
    // synchronization point; every read through this closure is
    // sequential afterwards.
    let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
    let faults: FaultStats = ctxs.iter().map(|c| c.faults.get()).sum();
    let stats: Vec<CommStats> = (0..p)
        .map(|r| CommStats {
            bytes_sent: ld(&shared.bytes_sent[r]),
            messages_sent: ld(&shared.messages_sent[r]),
            bytes_received: ld(&shared.bytes_received[r]),
            messages_received: ld(&shared.messages_received[r]),
        })
        .collect();

    // Message conservation, generalized over the fault plane: every
    // logical send and every duplicate ghost was either consumed, is
    // still queued on a channel, or sits in a receive stash. Reduces to
    // `sent == received + queued` on a fault-free run. A failure here is
    // a channel/delivery-layer bug, never a user error, so it asserts
    // unconditionally.
    let sent: u64 = stats.iter().map(|s| s.messages_sent).sum();
    let received: u64 = stats.iter().map(|s| s.messages_received).sum();
    let queued: u64 = shared
        .inbox_depth
        .iter()
        .flatten()
        .map(|d| d.len() as u64)
        .sum();
    let stash_outstanding: u64 = ctxs
        .iter()
        .map(|c| c.stash.iter().map(|s| s.borrow().len() as u64).sum::<u64>())
        .sum();
    assert_eq!(
        sent + faults.duplicates_sent,
        received + faults.duplicates_discarded + queued + stash_outstanding,
        "message conservation violated: {sent} sent + {} dup-pushed != {received} received \
         + {} dup-discarded + {queued} queued + {stash_outstanding} stashed",
        faults.duplicates_sent,
        faults.duplicates_discarded,
    );
    // Every drop decision on a completed run was answered by a retry
    // (the alternative is the retries-exhausted escalation, which
    // unwinds before reaching this point).
    assert_eq!(
        faults.drops, faults.retries,
        "delivery bookkeeping violated: {} drops != {} retries",
        faults.drops, faults.retries,
    );
    // Byte conservation: once every inbox and stash drained, every
    // sent byte was received exactly once — duplicate ghosts carry
    // no payload, so the logical totals must match. (With messages
    // still queued the byte totals legitimately differ — the depth
    // probes count messages, not payload bytes.)
    if queued == 0 && stash_outstanding == 0 {
        let bytes_sent: u64 = stats.iter().map(|s| s.bytes_sent).sum();
        let bytes_received: u64 = stats.iter().map(|s| s.bytes_received).sum();
        assert_eq!(
            bytes_sent, bytes_received,
            "byte conservation violated: {bytes_sent} sent != {bytes_received} received"
        );
    }

    ClusterResult {
        results,
        stats,
        faults,
    }
}

/// Run `body` once per seed under deterministic schedule jitter — every
/// task yields a pseudo-random number of times before each send and
/// receive, perturbing the interleaving reproducibly — and return
/// every run's result. The caller asserts cross-run invariants
/// (e.g. that results are schedule-independent); the harness itself
/// already enforces deadlock-freedom and message conservation on every
/// run via the watchdog machinery above.
pub fn explore_schedules<'a, M, R, F>(
    config: ClusterConfig<'a>,
    seeds: &[u64],
    body: F,
) -> Vec<ClusterResult<R>>
where
    M: Payload,
    R: Send,
    F: Fn(&mut TaskCtx<'a, M>) -> R + Sync,
{
    seeds
        .iter()
        .map(|&s| run_cluster_inner(config, s.max(1), &body))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_task_runs() {
        let r = run_cluster::<Vec<u8>, _, _>(ClusterConfig::new(1, 1), |ctx| {
            assert_eq!(ctx.rank(), 0);
            assert_eq!(ctx.size(), 1);
            42usize
        });
        assert_eq!(r.results, vec![42]);
        assert_eq!(r.stats[0].bytes_sent, 0);
    }

    #[test]
    fn ranks_are_distinct_and_complete() {
        let r = run_cluster::<Vec<u8>, _, _>(ClusterConfig::new(8, 1), |ctx| ctx.rank());
        let mut got = r.results.clone();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        // results are rank-indexed
        assert_eq!(r.results, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn point_to_point_roundtrip() {
        let r = run_cluster::<Vec<u32>, _, _>(ClusterConfig::new(2, 1), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, vec![1, 2, 3]);
                ctx.recv_from(1)
            } else {
                let v = ctx.recv_from(0);
                let doubled: Vec<u32> = v.iter().map(|x| x * 2).collect();
                ctx.send(0, doubled.clone());
                doubled
            }
        });
        assert_eq!(r.results[0], vec![2, 4, 6]);
    }

    #[test]
    fn byte_accounting() {
        let r = run_cluster::<Vec<u64>, _, _>(ClusterConfig::new(2, 1), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, vec![0u64; 100]); // 800 bytes
            } else {
                let _ = ctx.recv_from(0);
            }
        });
        assert_eq!(r.stats[0].bytes_sent, 800);
        assert_eq!(r.stats[0].messages_sent, 1);
        assert_eq!(r.stats[1].bytes_sent, 0);
        // Receive side mirrors it on the other rank.
        assert_eq!(r.stats[1].bytes_received, 800);
        assert_eq!(r.stats[1].messages_received, 1);
        assert_eq!(r.stats[0].bytes_received, 0);
        let sent: u64 = r.stats.iter().map(|s| s.bytes_sent).sum();
        let received: u64 = r.stats.iter().map(|s| s.bytes_received).sum();
        assert_eq!(sent, received);
    }

    #[test]
    fn task_pools_have_requested_threads() {
        let r = run_cluster::<Vec<u8>, _, _>(ClusterConfig::new(2, 3), |ctx| {
            ctx.pool().current_num_threads()
        });
        assert_eq!(r.results, vec![3, 3]);
    }

    #[test]
    fn messages_queue_in_order() {
        let r = run_cluster::<Vec<u32>, _, _>(ClusterConfig::new(2, 1), |ctx| {
            if ctx.rank() == 0 {
                for i in 0..10u32 {
                    ctx.send(1, vec![i]);
                }
                Vec::new()
            } else {
                (0..10).map(|_| ctx.recv_from(0)[0]).collect()
            }
        });
        assert_eq!(r.results[1], (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn task_panic_propagates() {
        run_cluster::<Vec<u8>, _, _>(ClusterConfig::new(2, 1), |ctx| {
            if ctx.rank() == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    #[should_panic(expected = "DEADLOCK")]
    fn cross_recv_deadlock_is_reported_not_hung() {
        // Both tasks wait for a message the other never sends. The
        // watchdog must turn the hang into a per-task report.
        run_cluster::<Vec<u8>, _, _>(ClusterConfig::new(2, 1), |ctx| {
            let peer = 1 - ctx.rank();
            let _ = ctx.recv_from(peer);
        });
    }

    #[test]
    #[should_panic(expected = "DEADLOCK")]
    fn recv_from_a_returned_peer_deadlock_is_reported() {
        // Task 0 returns without sending, task 1 waits for a message from
        // it: the watchdog counts a done task as one that will never send.
        run_cluster::<Vec<u8>, _, _>(ClusterConfig::new(2, 1), |ctx| {
            if ctx.rank() == 1 {
                let _ = ctx.recv_from(0);
            }
        });
    }

    #[test]
    fn watchdog_quiet_on_slow_but_live_cluster() {
        // A sender that dawdles past several watchdog polls must not be
        // declared deadlocked: its RUNNING state keeps the watchdog off.
        let r = run_cluster::<Vec<u8>, _, _>(ClusterConfig::new(2, 1), |ctx| {
            if ctx.rank() == 0 {
                std::thread::sleep(std::time::Duration::from_millis(120));
                ctx.send(1, vec![9]);
                0u8
            } else {
                ctx.recv_from(0)[0]
            }
        });
        assert_eq!(r.results, vec![0, 9]);
    }

    /// A plan firing all four message faults often, with enough retries
    /// that a run always completes.
    fn chaos_plan(seed: u64) -> FaultPlan {
        use crate::faults::FaultKind;
        let mut plan = FaultPlan::new(seed)
            .with_rule(FaultKind::Drop, 150_000)
            .with_rule(FaultKind::Delay, 100_000)
            .with_rule(FaultKind::Duplicate, 150_000)
            .with_rule(FaultKind::Reorder, 200_000);
        plan.delivery.max_retries = 64;
        plan.delay_max_us = 50;
        plan
    }

    /// Every rank sends 40 tagged messages to every peer and checks it
    /// receives each peer's stream in order.
    fn chaos_exchange(ctx: &mut TaskCtx<'_, Vec<u32>>) {
        let p = ctx.size();
        for i in 0..40u32 {
            for to in 0..p {
                if to != ctx.rank() {
                    ctx.send(to, vec![ctx.rank() as u32, i]);
                }
            }
        }
        for from in 0..p {
            if from == ctx.rank() {
                continue;
            }
            for i in 0..40u32 {
                let got = ctx.recv_from(from);
                assert_eq!(got, vec![from as u32, i]);
            }
        }
    }

    #[test]
    fn faulted_exchange_delivers_in_order_exactly_once() {
        for seed in [1u64, 2, 3, 42] {
            let plan = chaos_plan(seed);
            let config = ClusterConfig::new(3, 1).with_fault_plan(&plan);
            let r = run_cluster(config, chaos_exchange);
            // The plan's probabilities make at least some injection all
            // but certain over 240 messages; the real guarantees (order,
            // exactly-once, conservation) asserted above and by the
            // harness are what matter.
            let f = r.faults;
            assert!(
                f.drops + f.delays + f.duplicates_sent + f.reorders > 0,
                "seed {seed}: no faults fired"
            );
            assert_eq!(f.drops, f.retries);
        }
    }

    #[test]
    fn faulted_exchange_is_exact_under_every_schedule_jitter() {
        // Fault plane and schedule jitter together: the chaos exchange
        // still delivers in order, exactly once, under every seed.
        let plan = chaos_plan(7);
        let config = ClusterConfig::new(3, 1).with_fault_plan(&plan);
        let runs = explore_schedules(config, &[1, 2, 3, 4, 5, 6], chaos_exchange);
        assert_eq!(runs.len(), 6);
        for r in &runs {
            assert_eq!(r.faults.drops, r.faults.retries);
            assert!(
                r.faults.drops + r.faults.duplicates_sent > 0,
                "no faults fired"
            );
        }
    }

    #[test]
    fn duplicates_are_discarded_idempotently() {
        use crate::faults::FaultKind;
        // Every message duplicated; every duplicate must be discarded.
        let plan = FaultPlan::new(5).with_rule(FaultKind::Duplicate, crate::faults::PPM);
        let r =
            run_cluster::<Vec<u32>, _, _>(ClusterConfig::new(2, 1).with_fault_plan(&plan), |ctx| {
                if ctx.rank() == 0 {
                    for i in 0..20u32 {
                        ctx.send(1, vec![i]);
                    }
                    Vec::new()
                } else {
                    (0..20).map(|_| ctx.recv_from(0)[0]).collect()
                }
            });
        assert_eq!(r.results[1], (0..20).collect::<Vec<_>>());
        assert_eq!(r.faults.duplicates_sent, 20);
        // The ghost behind the 20th envelope is never popped (the
        // receiver stops after its 20th delivery), so it stays queued —
        // the generalized conservation assert in the harness balances
        // it; only the 19 ghosts *between* deliveries get discarded.
        assert_eq!(r.faults.duplicates_discarded, 19);
        assert_eq!(r.stats[1].messages_received, 20);
    }

    #[test]
    #[should_panic(expected = "FAULT REPORT")]
    fn retry_exhaustion_escalates_a_structured_report() {
        use crate::faults::FaultKind;
        let mut plan = FaultPlan::new(1).with_rule(FaultKind::Drop, crate::faults::PPM);
        plan.delivery.max_retries = 3;
        plan.delivery.backoff_base_us = 1;
        plan.delivery.backoff_cap_us = 10;
        run_cluster::<Vec<u8>, _, _>(ClusterConfig::new(2, 1).with_fault_plan(&plan), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, vec![1]);
            } else {
                let _ = ctx.recv_from(0);
            }
        });
    }

    #[test]
    #[should_panic(expected = "STALL")]
    fn stalled_task_trips_the_configured_watchdog() {
        // Rank 0 wedges (no channel progress) for far longer than the
        // configured timeout; rank 1, blocked on it, must escalate a
        // structured stall report instead of waiting forever.
        let config =
            ClusterConfig::new(2, 1).with_watchdog_timeout(std::time::Duration::from_millis(40));
        run_cluster::<Vec<u8>, _, _>(config, |ctx| {
            if ctx.rank() == 0 {
                std::thread::sleep(std::time::Duration::from_millis(400));
                ctx.send(1, vec![1]);
            } else {
                let _ = ctx.recv_from(0);
            }
        });
    }

    #[test]
    fn watchdog_timeout_is_configurable() {
        let config =
            ClusterConfig::new(2, 1).with_watchdog_timeout(std::time::Duration::from_secs(30));
        assert_eq!(config.watchdog_timeout, std::time::Duration::from_secs(30));
        // And a generous timeout keeps a slow-but-live cluster quiet.
        let r = run_cluster::<Vec<u8>, _, _>(config, |ctx| {
            if ctx.rank() == 0 {
                std::thread::sleep(std::time::Duration::from_millis(60));
                ctx.send(1, vec![7]);
                0u8
            } else {
                ctx.recv_from(0)[0]
            }
        });
        assert_eq!(r.results, vec![0, 7]);
    }

    #[test]
    fn a_timeout_past_u64_nanoseconds_never_stalls() {
        // 2^64 ns and more must saturate, not wrap to a threshold shorter
        // than a peer's pause: rank 0 sleeps past several watchdog polls.
        let never = std::time::Duration::from_millis(18_446_744_073_710);
        let config = ClusterConfig::new(2, 1).with_watchdog_timeout(never);
        let r = run_cluster::<Vec<u8>, _, _>(config, |ctx| {
            if ctx.rank() == 0 {
                std::thread::sleep(WATCHDOG_POLL * 3);
                ctx.send(1, vec![7]);
                0u8
            } else {
                ctx.recv_from(0)[0]
            }
        });
        assert_eq!(r.results, vec![0, 7]);
    }

    #[test]
    fn jittered_runs_agree() {
        let all = explore_schedules::<Vec<u32>, _, _>(
            ClusterConfig::new(3, 1),
            &[1, 2, 3, 4, 5, 6, 7, 8],
            |ctx| {
                // Ring exchange: send rank to the right, receive from left.
                let right = (ctx.rank() + 1) % ctx.size();
                let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
                ctx.send(right, vec![ctx.rank() as u32]);
                ctx.recv_from(left)[0]
            },
        );
        for run in &all {
            assert_eq!(run.results, vec![2, 0, 1]);
        }
    }

    #[test]
    fn a_declared_crash_is_due_once_and_counted() {
        use metaprep_obs::{Event, MemRecorder};
        // Rank 1's crash at Pass(0) is due the first time it reaches that
        // boundary and never again; it counts as one injected fault.
        let plan = FaultPlan::new(3).with_crash(1, Boundary::Pass(0));
        let rec = MemRecorder::new(2);
        let config = ClusterConfig::new(2, 1)
            .with_recorder(&rec)
            .with_fault_plan(&plan);
        let r = run_cluster::<Vec<u8>, _, _>(config, |ctx| {
            let at = [Boundary::Pass(0), Boundary::Pass(0), Boundary::Pass(1)];
            at.map(|b| ctx.crash_due(b))
        });
        assert_eq!(r.results, vec![[false; 3], [true, false, false]]);
        let faults: Vec<_> = rec
            .into_events()
            .into_iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::Counter {
                        kind: CounterKind::FaultsInjected,
                        ..
                    }
                )
            })
            .collect();
        let want = Event::Counter {
            task: 1,
            kind: CounterKind::FaultsInjected,
            value: 1,
        };
        assert_eq!(faults, vec![want]);
    }
}
