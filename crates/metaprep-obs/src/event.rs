//! The event model: one span type ([`SpanEvent`]), one edge type
//! ([`EdgeEvent`]), counters, and the event stream that wraps them.
//!
//! The recorder, both exporters, the JSONL parser and the analysis all
//! share these two types. Their names are `Cow<'static, str>`: recording
//! borrows a constant and never allocates, and a parsed trace owns its
//! strings.

use std::borrow::Cow;

/// Span names of the eight paper pipeline steps, in pipeline order.
/// Mirrors `metaprep_core::Step::all()` (asserted by a test over there);
/// kept here so exporters and reports can order rows without depending on
/// the pipeline crate.
pub const STEP_NAMES: [&str; 8] = [
    "KmerGen-I/O",
    "KmerGen",
    "KmerGen-Comm",
    "LocalSort",
    "LocalCC-Opt",
    "Merge-Comm",
    "MergeCC",
    "CC-I/O",
];

/// Span name of the sequential index-construction phase (paper Table 5).
pub const INDEX_CREATE: &str = "IndexCreate";

/// Span name of one stage of the staged all-to-all (`detail` = stage).
pub const ALLTOALL_STAGE: &str = "alltoall-stage";

/// Span name of a checkpoint write (`detail` = pass or merge round).
/// Deliberately NOT in [`STEP_NAMES`]: checkpointing is recovery
/// machinery, not a paper pipeline step, so analysis treats it as a
/// sub-span inside whatever step it interrupts.
pub const CHECKPOINT: &str = "checkpoint";

/// Span name covering a task restart (checkpoint load +
/// state restore after an injected crash). Not in [`STEP_NAMES`], like
/// [`CHECKPOINT`].
pub const TASK_RESTART: &str = "task-restart";

/// Span name covering the driver-side pass planning (memory-model
/// inversion for a budget + building the per-pass range plan). Driver span
/// like [`INDEX_CREATE`]; not in [`STEP_NAMES`].
pub const PASS_PLAN: &str = "pass-plan";

/// One recorded interval: `step × task × pass`, with start/end timestamps
/// in nanoseconds against the run-relative monotonic clock.
///
/// `name` is borrowed when recorded (no allocation) and owned when parsed
/// back from a file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Simulated task (MPI rank) the span belongs to.
    pub task: u32,
    /// Step or phase name (one of [`STEP_NAMES`], [`INDEX_CREATE`], …).
    pub name: Cow<'static, str>,
    /// Pass index for multi-pass steps, if applicable.
    pub pass: Option<u32>,
    /// Extra discriminator: all-to-all stage, merge round, …
    pub detail: Option<u32>,
    /// Start, nanoseconds since the run clock's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run clock's origin.
    pub end_ns: u64,
    /// Recording task's Lamport clock when the span closed (0 for spans
    /// recorded outside a task's causal timeline, e.g. driver-side).
    pub lamport: u64,
}

impl SpanEvent {
    /// Span duration in nanoseconds (0 if end precedes start).
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Whether the span is a paper step or IndexCreate. The other spans
    /// (all-to-all stages, checkpoints, streaming sub-phases, …) nest
    /// inside these.
    pub(crate) fn is_top_level(&self) -> bool {
        STEP_NAMES.contains(&&*self.name) || self.name == INDEX_CREATE
    }
}

/// Which endpoint of a message an edge event records.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeDir {
    /// The sender-side (`MessageSend`) endpoint, recorded by `src`.
    Send,
    /// The receiver-side (`MessageRecv`) endpoint, recorded by `dst`.
    Recv,
}

/// One endpoint of one message: a `MessageSend` or `MessageRecv` event.
///
/// A matched send/recv pair — same `(src, dst, seq)` — is a causal edge
/// of the happens-before DAG. `stage` is borrowed when recorded (no
/// allocation) and owned when parsed back from a file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeEvent {
    /// Send or receive endpoint.
    pub dir: EdgeDir,
    /// Sending task (MPI rank).
    pub src: u32,
    /// Receiving task (MPI rank).
    pub dst: u32,
    /// Communication stage the message belongs to (`KmerGen-Comm`,
    /// `Merge-Comm`, `CC-I/O`, …).
    pub stage: Cow<'static, str>,
    /// All-to-all pass / merge-tree round discriminator, if applicable.
    pub round: Option<u32>,
    /// Payload size in bytes (as counted by `CommStats`).
    pub bytes: u64,
    /// Per-(src, dst) FIFO sequence number: the n-th send from `src` to
    /// `dst` matches the n-th recv — channels are FIFO and conservation
    /// is asserted, so both sides derive the same number independently.
    pub seq: u64,
    /// Recording endpoint's Lamport clock after this event.
    pub lamport: u64,
    /// Timestamp, nanoseconds since the run clock's origin.
    pub at_ns: u64,
}

macro_rules! counter_kinds {
    ($($variant:ident => $name:literal),+ $(,)?) => {
        /// Everything the pipeline counts, one monotonically-accumulated
        /// value per `(task, kind)`.
        #[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
        pub enum CounterKind {
            $(
                #[doc = $name]
                $variant,
            )+
        }

        impl CounterKind {
            /// All kinds, in declaration order.
            pub const ALL: [CounterKind; counter_kinds!(@count $($variant)+)] =
                [$(CounterKind::$variant),+];

            /// Stable wire name (JSONL `kind` field).
            pub fn as_str(&self) -> &'static str {
                match self {
                    $(CounterKind::$variant => $name),+
                }
            }

            /// Parse a wire name back into a kind.
            // Option-returning lookup, not a FromStr parse with errors.
            #[allow(clippy::should_implement_trait)]
            pub fn from_str(s: &str) -> Option<CounterKind> {
                match s {
                    $($name => Some(CounterKind::$variant),)+
                    _ => None,
                }
            }
        }
    };
    (@count $($tok:ident)+) => { [$(counter_kinds!(@unit $tok)),+].len() };
    (@unit $tok:ident) => { () };
}

counter_kinds! {
    TuplesEmitted => "tuples_emitted",
    TuplesReceived => "tuples_received",
    SortElements => "sort_elements",
    UfFinds => "uf_finds",
    UfUnions => "uf_unions",
    UfPathSplits => "uf_path_splits",
    MergeBytes => "merge_bytes",
    ChunkRecordsStreamed => "chunk_records_streamed",
    BytesSent => "bytes_sent",
    BytesReceived => "bytes_received",
    MessagesSent => "messages_sent",
    MessagesReceived => "messages_received",
    MemModeledBytes => "mem_modeled_bytes",
    MemPeakTupleBytes => "mem_peak_tuple_bytes",
    VmHwmBytes => "vm_hwm_bytes",
    RadixPassesRun => "radix_passes_run",
    RadixPassesPruned => "radix_passes_pruned",
    ScatterBytes => "scatter_bytes",
    EventsDropped => "events_dropped",
    FaultsInjected => "faults_injected",
    RetryAttempts => "retry_attempts",
    CheckpointWrites => "checkpoint_writes",
    TaskRestarts => "task_restarts",
    SketchFillPermille => "sketch_fill_permille",
    PresolveDroppedKmers => "presolve_dropped_kmers",
    PlannedPasses => "planned_passes",
    MemBudgetBytes => "mem_budget_bytes",
}

impl CounterKind {
    /// Dense index into per-task counter arrays.
    pub fn idx(&self) -> usize {
        *self as usize
    }
}

/// One run event — what the recorder drains into, the exporters consume
/// and the JSONL parser produces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// Run header: number of simulated tasks.
    Meta {
        /// Simulated task count `P`.
        tasks: u32,
    },
    /// A completed interval.
    Span(SpanEvent),
    /// One message endpoint.
    Edge(EdgeEvent),
    /// Final accumulated value of one `(task, kind)` counter.
    Counter {
        /// Simulated task the counter belongs to.
        task: u32,
        /// What was counted.
        kind: CounterKind,
        /// Accumulated value.
        value: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_kind_roundtrip() {
        for k in CounterKind::ALL {
            assert_eq!(CounterKind::from_str(k.as_str()), Some(k));
        }
        assert_eq!(CounterKind::from_str("nonsense"), None);
    }

    #[test]
    fn counter_idx_is_dense() {
        for (i, k) in CounterKind::ALL.iter().enumerate() {
            assert_eq!(k.idx(), i);
        }
    }

    #[test]
    fn span_duration_saturates() {
        let s = SpanEvent {
            task: 0,
            name: "KmerGen".into(),
            pass: None,
            detail: None,
            start_ns: 10,
            end_ns: 4,
            lamport: 0,
        };
        assert_eq!(s.dur_ns(), 0);
    }

    #[test]
    fn step_names_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for n in STEP_NAMES {
            assert!(seen.insert(n), "duplicate step name {n}");
        }
    }
}
