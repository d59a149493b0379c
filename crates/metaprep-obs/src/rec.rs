//! Recorder trait, the no-op and in-memory recorders, and the per-task
//! instrumentation handle.
//!
//! Hot-path contract: instrumented code talks only to a [`TaskObs`],
//! which buffers into a plain `Vec` + fixed counter array owned by the
//! task's own thread. Nothing is shared while the pipeline runs — the
//! recorder sees one bulk [`Recorder::flush_task`] per task, at task
//! exit. With the [`NoopRecorder`] the flush drops everything, and the
//! per-tuple path (counters are batched per pass/range) costs nothing.

use crate::event::{CounterKind, EdgeDir, EdgeEvent, Event, SpanEvent};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Run-relative monotonic clock. Copies share the same origin, so every
/// task of a run stamps spans against one timeline.
#[derive(Copy, Clone, Debug)]
pub struct RunClock {
    origin: Instant,
}

impl RunClock {
    /// A clock whose origin is now.
    pub fn new() -> RunClock {
        RunClock {
            origin: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since the origin.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl Default for RunClock {
    fn default() -> Self {
        RunClock::new()
    }
}

/// The kernel's peak-RSS reading (`VmHWM` in `/proc/self/status`), in
/// bytes — the value of a [`CounterKind::VmHwmBytes`] counter. Monotone
/// over the process lifetime. `None` off Linux or if the field is missing.
pub fn vm_hwm_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Sink for run telemetry.
///
/// Implementations must tolerate concurrent calls from all simulated
/// tasks ([`Recorder::flush_task`] arrives from each task's thread) but
/// each `task` index flushes at most once per run.
pub trait Recorder: Sync {
    /// Whether events are kept. Instrumented code may skip *optional*
    /// detail (e.g. per-stage comm sub-spans) when this is `false`; the
    /// step spans that derive `StepTimings` are recorded regardless.
    fn enabled(&self) -> bool;

    /// The run clock all spans must be stamped against.
    fn clock(&self) -> RunClock;

    /// Bulk flush of one task's locally-buffered events at task exit.
    fn flush_task(
        &self,
        task: u32,
        spans: Vec<SpanEvent>,
        counters: Vec<(CounterKind, u64)>,
        edges: Vec<EdgeEvent>,
    );

    /// Run-level span recorded from the driver thread (e.g. IndexCreate).
    fn record_span(&self, span: SpanEvent);

    /// A driver-thread span (IndexCreate, its sub-phases, pass planning)
    /// on task 0's timeline: no pass, no detail, and Lamport 0, because
    /// it lies outside every task's causal timeline.
    fn record_driver_span(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.record_span(SpanEvent {
            task: 0,
            name,
            pass: None,
            detail: None,
            start_ns,
            end_ns,
            lamport: 0,
        });
    }

    /// Run-level counter recorded from the driver thread (comm totals,
    /// memory model numbers). Values for the same `(task, kind)` add.
    fn record_counter(&self, task: u32, kind: CounterKind, value: u64);
}

/// The zero-cost default recorder: drops everything.
#[derive(Debug)]
pub struct NoopRecorder {
    clock: RunClock,
}

impl NoopRecorder {
    /// A fresh no-op recorder (its clock origin is now).
    pub fn new() -> NoopRecorder {
        NoopRecorder {
            clock: RunClock::new(),
        }
    }
}

/// The process-wide [`NoopRecorder`]: the sink of a run built without a
/// recorder.
pub fn noop_recorder() -> &'static NoopRecorder {
    static NOOP: OnceLock<NoopRecorder> = OnceLock::new();
    NOOP.get_or_init(NoopRecorder::new)
}

impl Default for NoopRecorder {
    fn default() -> Self {
        NoopRecorder::new()
    }
}

impl Recorder for NoopRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    #[inline]
    fn clock(&self) -> RunClock {
        self.clock
    }

    #[inline]
    fn flush_task(
        &self,
        _task: u32,
        _spans: Vec<SpanEvent>,
        _counters: Vec<(CounterKind, u64)>,
        _edges: Vec<EdgeEvent>,
    ) {
    }

    #[inline]
    fn record_span(&self, _span: SpanEvent) {}

    #[inline]
    fn record_counter(&self, _task: u32, _kind: CounterKind, _value: u64) {}
}

/// One task's flushed telemetry.
#[derive(Debug, Default)]
struct TaskTrace {
    spans: Vec<SpanEvent>,
    counters: Vec<(CounterKind, u64)>,
    edges: Vec<EdgeEvent>,
}

/// Lock-free in-memory collector: one single-writer slot per simulated
/// task (each slot is set exactly once, by that task's own thread, when
/// the task flushes — mirroring the cluster simulator's rule that tasks
/// share no mutable state). Run-level events from the driver thread go
/// through a mutex that is never touched by task threads.
#[derive(Debug)]
pub struct MemRecorder {
    clock: RunClock,
    tasks: Vec<OnceLock<TaskTrace>>,
    run_events: Mutex<Vec<Event>>,
}

impl MemRecorder {
    /// Collector for a run of `tasks` simulated tasks.
    pub fn new(tasks: usize) -> MemRecorder {
        MemRecorder {
            clock: RunClock::new(),
            tasks: (0..tasks).map(|_| OnceLock::new()).collect(),
            run_events: Mutex::new(Vec::new()),
        }
    }

    /// Drain into an owned, export-ready event stream: the meta header,
    /// then all spans ordered by start time, then message edges ordered
    /// by timestamp, then counters aggregated per `(task, kind)`.
    pub fn into_events(self) -> Vec<Event> {
        let ntasks = self.tasks.len() as u32;
        let mut spans: Vec<Event> = Vec::new();
        let mut edges: Vec<Event> = Vec::new();
        let mut totals: std::collections::BTreeMap<(u32, CounterKind), u64> =
            std::collections::BTreeMap::new();

        for (task, slot) in self.tasks.into_iter().enumerate() {
            if let Some(trace) = slot.into_inner() {
                spans.extend(trace.spans.into_iter().map(Event::from));
                edges.extend(trace.edges.into_iter().map(Event::from));
                for (kind, value) in trace.counters {
                    *totals.entry((task as u32, kind)).or_insert(0) += value;
                }
            }
        }
        let run_events = self
            .run_events
            .into_inner()
            .unwrap_or_else(|e| e.into_inner());
        for ev in run_events {
            match ev {
                Event::Counter { task, kind, value } => {
                    *totals.entry((task, kind)).or_insert(0) += value;
                }
                edge @ Event::Edge { .. } => edges.push(edge),
                other => spans.push(other),
            }
        }

        spans.sort_by_key(|e| match e {
            Event::Span { start_ns, task, .. } => (*start_ns, *task),
            _ => (0, 0),
        });
        edges.sort_by_key(|e| match e {
            Event::Edge {
                at_ns,
                dir,
                src,
                dst,
                seq,
                ..
            } => (*at_ns, *dir, *src, *dst, *seq),
            _ => (0, EdgeDir::Send, 0, 0, 0),
        });

        let mut out = Vec::with_capacity(1 + spans.len() + edges.len() + totals.len());
        out.push(Event::Meta { tasks: ntasks });
        out.extend(spans);
        out.extend(edges);
        out.extend(
            totals
                .into_iter()
                .map(|((task, kind), value)| Event::Counter { task, kind, value }),
        );
        out
    }
}

impl Recorder for MemRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn clock(&self) -> RunClock {
        self.clock
    }

    fn flush_task(
        &self,
        task: u32,
        spans: Vec<SpanEvent>,
        counters: Vec<(CounterKind, u64)>,
        edges: Vec<EdgeEvent>,
    ) {
        // Flushes that cannot land in a slot (task out of range, or the
        // slot already taken by an earlier flush) are not silently lost:
        // the dropped event count is recorded per task so `report` and
        // `analyze` can flag the trace as incomplete. The drop path is
        // exceptional and one-shot, so taking the driver-side mutex here
        // does not contend with the lock-free happy path.
        let dropped = |n: usize| {
            self.run_events
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Event::Counter {
                    task,
                    kind: CounterKind::EventsDropped,
                    value: n as u64,
                });
        };
        let n_events = spans.len() + counters.len() + edges.len();
        let Some(slot) = self.tasks.get(task as usize) else {
            dropped(n_events);
            return;
        };
        let ok = slot
            .set(TaskTrace {
                spans,
                counters,
                edges,
            })
            .is_ok();
        if !ok {
            dropped(n_events);
        }
    }

    fn record_span(&self, span: SpanEvent) {
        self.run_events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Event::from(span));
    }

    fn record_counter(&self, task: u32, kind: CounterKind, value: u64) {
        self.run_events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Event::Counter { task, kind, value });
    }
}

/// An open (started, not yet closed) span: just its start timestamp.
#[derive(Copy, Clone, Debug)]
pub struct OpenSpan {
    /// Start, nanoseconds since the run origin.
    pub start_ns: u64,
}

/// Per-task instrumentation handle. Owned by the task body; buffers
/// spans, counters, and message edges locally and flushes once via
/// [`TaskObs::finish`]. Also owns the task's Lamport clock: it ticks on
/// every span close and message send, and merges (`max(local, sender) +
/// 1`) on every message receive, so a receive is always causally after
/// its send.
pub struct TaskObs<'r> {
    rec: &'r dyn Recorder,
    clock: RunClock,
    task: u32,
    export: bool,
    lamport: u64,
    spans: Vec<SpanEvent>,
    edges: Vec<EdgeEvent>,
    counters: [u64; CounterKind::ALL.len()],
}

impl<'r> TaskObs<'r> {
    /// Handle for simulated task `task` recording into `rec`.
    pub fn new(rec: &'r dyn Recorder, task: u32) -> TaskObs<'r> {
        TaskObs {
            rec,
            clock: rec.clock(),
            task,
            export: rec.enabled(),
            lamport: 0,
            spans: Vec::new(),
            edges: Vec::new(),
            counters: [0; CounterKind::ALL.len()],
        }
    }

    /// The task this handle records for.
    pub fn task(&self) -> u32 {
        self.task
    }

    /// Whether the recorder keeps events — gate *optional* detail spans
    /// on this (the step spans themselves are always recorded, because
    /// `StepTimings` derives from them).
    #[inline]
    pub fn export_enabled(&self) -> bool {
        self.export
    }

    /// Start a span now.
    #[inline]
    pub fn open(&self) -> OpenSpan {
        OpenSpan {
            start_ns: self.clock.now_ns(),
        }
    }

    /// Close `open` now, recording it under `name`.
    #[inline]
    pub fn close(&mut self, open: OpenSpan, name: &'static str, pass: Option<u32>) {
        self.close_detail(open, name, pass, None);
    }

    /// Close `open` now with a `detail` discriminator (stage, round, …).
    #[inline]
    pub fn close_detail(
        &mut self,
        open: OpenSpan,
        name: &'static str,
        pass: Option<u32>,
        detail: Option<u32>,
    ) {
        let end_ns = self.clock.now_ns();
        self.lamport += 1;
        self.spans.push(SpanEvent {
            task: self.task,
            name,
            pass,
            detail,
            start_ns: open.start_ns,
            end_ns: end_ns.max(open.start_ns),
            lamport: self.lamport,
        });
    }

    /// Close `open` now as consecutive spans, one per `(name, weight)` in
    /// order, that tile its wall interval in proportion to the weights —
    /// for steps that interleave on every thread (KmerGen-I/O and KmerGen),
    /// whose CPU time is measured summed across the pool but whose wall
    /// time is only known together. The last span ends exactly at the
    /// close; with all weights zero it covers the whole interval.
    pub fn close_tiled(
        &mut self,
        open: OpenSpan,
        steps: &[(&'static str, u64)],
        pass: Option<u32>,
    ) {
        let end_ns = self.clock.now_ns().max(open.start_ns);
        let wall = u128::from(end_ns - open.start_ns);
        let total: u128 = steps.iter().map(|&(_, w)| u128::from(w)).sum();
        let (mut start_ns, mut before) = (open.start_ns, 0u128);
        for (i, &(name, weight)) in steps.iter().enumerate() {
            before += u128::from(weight);
            let end = if i + 1 == steps.len() {
                end_ns
            } else {
                open.start_ns + (wall * before).checked_div(total).unwrap_or(0) as u64
            };
            self.lamport += 1;
            self.spans.push(SpanEvent {
                task: self.task,
                name,
                pass,
                detail: None,
                start_ns,
                end_ns: end,
                lamport: self.lamport,
            });
            start_ns = end;
        }
    }

    /// Record the send endpoint of a message to `dst` and return the
    /// Lamport clock to ship with it. Ticks the local clock first
    /// (Lamport's rule: a send is a local event), so the receiver's
    /// merged clock is strictly greater than the value returned here.
    /// The edge is buffered only when the recorder keeps events; the
    /// clock still ticks so span stamps stay consistent either way.
    #[inline]
    pub fn record_send(
        &mut self,
        dst: u32,
        stage: &'static str,
        round: Option<u32>,
        bytes: u64,
        seq: u64,
    ) -> u64 {
        self.lamport += 1;
        if self.export {
            self.edges.push(EdgeEvent {
                dir: EdgeDir::Send,
                src: self.task,
                dst,
                stage,
                round,
                bytes,
                seq,
                lamport: self.lamport,
                at_ns: self.clock.now_ns(),
            });
        }
        self.lamport
    }

    /// Record the receive endpoint of a message from `src` carrying the
    /// sender's Lamport clock: the local clock becomes
    /// `max(local, sender) + 1`, so the recv event is causally after both
    /// the matching send and every prior local event.
    #[inline]
    pub fn record_recv(
        &mut self,
        src: u32,
        stage: &'static str,
        round: Option<u32>,
        bytes: u64,
        seq: u64,
        sender_lamport: u64,
    ) {
        self.lamport = self.lamport.max(sender_lamport) + 1;
        if self.export {
            self.edges.push(EdgeEvent {
                dir: EdgeDir::Recv,
                src,
                dst: self.task,
                stage,
                round,
                bytes,
                seq,
                lamport: self.lamport,
                at_ns: self.clock.now_ns(),
            });
        }
    }

    /// The task's current Lamport clock.
    pub fn lamport(&self) -> u64 {
        self.lamport
    }

    /// The message edges recorded so far.
    pub fn edges(&self) -> &[EdgeEvent] {
        &self.edges
    }

    /// Add `delta` to a counter (a plain array add — no atomics, no
    /// allocation; call it with batched per-pass/per-range deltas).
    #[inline]
    pub fn add(&mut self, kind: CounterKind, delta: u64) {
        self.counters[kind.idx()] += delta;
    }

    /// Current value of a counter.
    pub fn counter(&self, kind: CounterKind) -> u64 {
        self.counters[kind.idx()]
    }

    /// The spans recorded so far (pipeline derives `StepTimings` here).
    pub fn spans(&self) -> &[SpanEvent] {
        &self.spans
    }

    /// Flush everything to the recorder (no-op recorder: drop).
    pub fn finish(self) {
        if !self.export {
            return;
        }
        let counters: Vec<(CounterKind, u64)> = CounterKind::ALL
            .iter()
            .filter(|k| self.counters[k.idx()] != 0)
            .map(|&k| (k, self.counters[k.idx()]))
            .collect();
        self.rec
            .flush_task(self.task, self.spans, counters, self.edges);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_on_linux() {
        if cfg!(target_os = "linux") {
            let hwm = vm_hwm_bytes().expect("VmHWM present on Linux");
            assert!(hwm > 0);
        }
    }

    #[test]
    fn noop_recorder_keeps_nothing_but_clock_advances() {
        let rec = NoopRecorder::new();
        assert!(!rec.enabled());
        let a = rec.clock().now_ns();
        let b = rec.clock().now_ns();
        assert!(b >= a);
    }

    #[test]
    fn task_obs_buffers_and_flushes_once() {
        let rec = MemRecorder::new(2);
        {
            let mut obs = TaskObs::new(&rec, 1);
            let o = obs.open();
            obs.close(o, "KmerGen", Some(0));
            obs.add(CounterKind::TuplesEmitted, 10);
            obs.add(CounterKind::TuplesEmitted, 5);
            assert_eq!(obs.counter(CounterKind::TuplesEmitted), 15);
            assert_eq!(obs.spans().len(), 1);
            obs.finish();
        }
        let events = rec.into_events();
        assert_eq!(events[0], Event::Meta { tasks: 2 });
        assert!(matches!(
            &events[1],
            Event::Span { task: 1, name, .. } if name == "KmerGen"
        ));
        assert!(events.contains(&Event::Counter {
            task: 1,
            kind: CounterKind::TuplesEmitted,
            value: 15
        }));
    }

    #[test]
    fn close_tiled_splits_the_interval_by_weight() {
        let rec = NoopRecorder::new();
        let mut obs = TaskObs::new(&rec, 0);
        let open = OpenSpan { start_ns: 0 };
        obs.close_tiled(open, &[("KmerGen-I/O", 1), ("KmerGen", 3)], Some(0));
        let s = obs.spans();
        let end = s[1].end_ns;
        assert!(end <= obs.open().start_ns);
        assert_eq!((s[0].start_ns, s[0].end_ns), (0, end / 4));
        assert_eq!((s[1].start_ns, s[1].lamport), (end / 4, 2));
        // No weight at all: the last span takes the whole interval.
        obs.close_tiled(open, &[("a", 0), ("b", 0)], None);
        let s = &obs.spans()[2..];
        assert_eq!((s[0].start_ns, s[0].end_ns, s[1].start_ns), (0, 0, 0));
        assert!(s[1].end_ns >= end);
    }

    #[test]
    fn driver_side_events_merge_with_task_counters() {
        let rec = MemRecorder::new(1);
        {
            let mut obs = TaskObs::new(&rec, 0);
            obs.add(CounterKind::BytesSent, 7);
            obs.finish();
        }
        rec.record_counter(0, CounterKind::BytesSent, 3);
        let events = rec.into_events();
        assert!(events.contains(&Event::Counter {
            task: 0,
            kind: CounterKind::BytesSent,
            value: 10
        }));
    }

    #[test]
    fn spans_sorted_by_start() {
        let rec = MemRecorder::new(2);
        rec.record_driver_span("IndexCreate", 50, 60);
        {
            let mut obs = TaskObs::new(&rec, 1);
            obs.close_tiled(OpenSpan { start_ns: 10 }, &[("KmerGen", 1)], None);
            obs.finish();
        }
        let events = rec.into_events();
        let starts: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                Event::Span { start_ns, .. } => Some(*start_ns),
                _ => None,
            })
            .collect();
        assert_eq!(starts, vec![10, 50]);
    }

    #[test]
    fn lamport_ticks_on_spans_and_sends_and_merges_on_recv() {
        let rec = MemRecorder::new(2);
        let mut obs = TaskObs::new(&rec, 0);
        assert_eq!(obs.lamport(), 0);
        let o = obs.open();
        obs.close(o, "KmerGen", None);
        assert_eq!(obs.lamport(), 1);
        let shipped = obs.record_send(1, "KmerGen-Comm", Some(0), 32, 0);
        assert_eq!(shipped, 2);
        // A recv carrying a far-ahead sender clock jumps past it.
        obs.record_recv(1, "KmerGen-Comm", Some(0), 8, 0, 100);
        assert_eq!(obs.lamport(), 101);
        // A recv from a lagging sender still ticks.
        obs.record_recv(1, "KmerGen-Comm", Some(0), 8, 1, 3);
        assert_eq!(obs.lamport(), 102);
        assert_eq!(obs.edges().len(), 3);
        obs.finish();
        let n_edges = rec
            .into_events()
            .iter()
            .filter(|e| matches!(e, Event::Edge { .. }))
            .count();
        assert_eq!(n_edges, 3);
    }

    #[test]
    fn flushed_edges_survive_into_events() {
        let rec = MemRecorder::new(2);
        {
            let mut obs = TaskObs::new(&rec, 0);
            obs.record_send(1, "Merge-Comm", Some(2), 64, 0);
            obs.finish();
        }
        let events = rec.into_events();
        assert!(events.iter().any(|e| matches!(
            e,
            Event::Edge {
                dir: EdgeDir::Send,
                src: 0,
                dst: 1,
                round: Some(2),
                bytes: 64,
                ..
            }
        )));
    }

    #[test]
    fn noop_recorder_skips_edge_buffering_but_clock_still_ticks() {
        let rec = NoopRecorder::new();
        let mut obs = TaskObs::new(&rec, 0);
        let shipped = obs.record_send(1, "KmerGen-Comm", None, 8, 0);
        assert_eq!(shipped, 1);
        assert!(obs.edges().is_empty());
    }

    #[test]
    fn dropped_flushes_are_counted_per_task() {
        let rec = MemRecorder::new(1);
        {
            let mut obs = TaskObs::new(&rec, 0);
            let o = obs.open();
            obs.close(o, "KmerGen", None);
            obs.finish();
        }
        // Second flush for the same task: slot already taken, 2 events
        // (1 span + 1 counter) dropped.
        let span = SpanEvent {
            task: 0,
            name: "KmerGen",
            pass: None,
            detail: None,
            start_ns: 0,
            end_ns: 1,
            lamport: 1,
        };
        rec.flush_task(0, vec![span], vec![(CounterKind::TuplesEmitted, 1)], vec![]);
        // Out-of-range task: 1 span dropped, attributed to that task id.
        rec.flush_task(9, vec![span], vec![], vec![]);
        let events = rec.into_events();
        assert!(events.contains(&Event::Counter {
            task: 0,
            kind: CounterKind::EventsDropped,
            value: 2
        }));
        assert!(events.contains(&Event::Counter {
            task: 9,
            kind: CounterKind::EventsDropped,
            value: 1
        }));
    }
}
