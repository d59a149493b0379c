//! Run telemetry for METAPREP: structured spans and counters with JSONL
//! and Chrome `trace_event` export, plus a paper-style run report.
//!
//! The paper's entire evaluation (Tables 5–9, Figures 5–9) is built from
//! per-task, per-step, per-pass measurements. This crate turns every run
//! into that raw material:
//!
//! * [`SpanEvent`] — one `step × task × pass` interval with start/end
//!   timestamps against a run-relative monotonic clock ([`RunClock`]);
//! * [`CounterKind`] — tuple, sort, union-find, communication and memory
//!   counters, batched per task;
//! * [`Recorder`] — the sink trait. [`NoopRecorder`] is the zero-cost
//!   default; [`MemRecorder`] is a lock-free in-memory collector with one
//!   single-writer slot per simulated task (consistent with the cluster
//!   simulator's no-shared-memory rule: tasks never touch each other's
//!   buffers, and the run thread reads them only after the task flushed);
//! * [`TaskObs`] — the per-task handle the pipeline instruments with. It
//!   buffers locally (plain `Vec` + fixed counter array, no atomics, no
//!   locks) and flushes **once** when the task body ends, so the per-tuple
//!   hot path never sees an allocation or a shared write;
//! * [`export`] — JSONL event stream and Perfetto-loadable Chrome
//!   `trace_event` JSON (one "process" per simulated task, one row per
//!   step), with a schema validator used by CI's bench smoke;
//! * [`TraceAnalysis`] — the one model built from an event stream, with
//!   two renderers. [`analysis`] matches [`EdgeEvent`] send/recv pairs
//!   into a happens-before DAG (per-rank Lamport clocks, FIFO sequence
//!   numbers), extracts the critical path (its segments tile the run
//!   makespan exactly), and derives per-stage load-imbalance factors,
//!   stragglers, Gantt rows and byte timelines behind `metaprep analyze`
//!   ([`TraceAnalysis::render_report`]); [`report`] renders the same
//!   per-step/per-pass/per-task sums and counter totals as the run
//!   summary table behind `metaprep report`
//!   ([`TraceAnalysis::render_summary`]), and holds the one
//!   [`report::five_number`] both use.

pub mod analysis;
pub mod event;
pub mod export;
pub mod json;
pub mod rec;
pub mod report;

pub use analysis::TraceAnalysis;
pub use event::{CounterKind, EdgeDir, EdgeEvent, Event, SpanEvent};
pub use rec::{
    noop_recorder, vm_hwm_bytes, MemRecorder, NoopRecorder, OpenSpan, Recorder, RunClock, TaskObs,
};
