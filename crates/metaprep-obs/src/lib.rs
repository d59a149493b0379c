//! Run telemetry for METAPREP: structured spans and counters with JSONL
//! and Chrome `trace_event` export, plus the trace analysis that reads a
//! run back.
//!
//! The paper's entire evaluation (Tables 5–9, Figures 5–9) is built from
//! per-task, per-step, per-pass measurements. This crate turns every run
//! into that raw material:
//!
//! * [`SpanEvent`] — one `step × task × pass` interval with start/end
//!   timestamps against a run-relative monotonic clock ([`RunClock`]),
//!   and [`EdgeEvent`] — one send or receive endpoint of a message. They
//!   are the only span and edge types: the recorder buffers them,
//!   [`Event::Span`] / [`Event::Edge`] wrap them for the exporters and the
//!   parser, and the analysis reads them back. A recorded name borrows a
//!   constant, a parsed one owns its string (`Cow<'static, str>`);
//! * [`CounterKind`] — tuple, sort, union-find, communication and memory
//!   counters, batched per task;
//! * [`MemRecorder`] — the one sink: a lock-free in-memory collector with
//!   one single-writer slot per simulated task (consistent with the
//!   cluster simulator's no-shared-memory rule: tasks never touch each
//!   other's buffers, and the run thread reads them only after the task
//!   flushed). [`MemRecorder::off`], the default of a run, keeps nothing
//!   but still owns the run clock;
//! * [`TaskObs`] — the per-task handle the pipeline instruments with. It
//!   buffers locally (plain `Vec` + fixed counter array, no atomics, no
//!   locks) and flushes **once** when the task body ends, so the per-tuple
//!   hot path never sees an allocation or a shared write;
//! * [`export`] — JSONL event stream and Perfetto-loadable Chrome
//!   `trace_event` JSON (one "process" per simulated task, one row per
//!   step), with a schema validator used by CI's bench smoke;
//! * [`TraceAnalysis`] — the one model built from an event stream.
//!   [`analysis`] matches [`EdgeEvent`] send/recv pairs into a
//!   happens-before DAG (per-rank Lamport clocks, FIFO sequence numbers),
//!   extracts the critical path (its segments tile the run makespan
//!   exactly), sums spans per step, task and pass, and derives per-stage
//!   load-imbalance factors with nearest-rank five-number rows
//!   ([`analysis::five_number`]), stragglers, Gantt rows and byte
//!   timelines. [`TraceAnalysis::render_report`] is its one text
//!   rendering, printed by `metaprep analyze`.

pub mod analysis;
pub mod event;
pub mod export;
pub mod json;
pub mod rec;

pub use analysis::TraceAnalysis;
pub use event::{CounterKind, EdgeDir, EdgeEvent, Event, SpanEvent};
pub use rec::{vm_hwm_bytes, MemRecorder, OpenSpan, RunClock, TaskObs};
