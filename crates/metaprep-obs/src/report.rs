//! Run report: rebuild the paper-style summary (per-step max /
//! five-number across tasks, per-pass breakdown, communication volume,
//! memory model vs measured) from an exported event stream.

use crate::event::{
    step_label, CounterKind, Event, CPU_SUMMED_NOTE, CPU_SUMMED_STEPS, INDEX_CREATE, STEP_NAMES,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Five-number summary (min, lower quartile, median, upper quartile,
/// max) using `f64::total_cmp`, so NaNs order deterministically instead
/// of panicking. Empty input yields all zeros.
pub fn five_number(xs: &[f64]) -> [f64; 5] {
    if xs.is_empty() {
        return [0.0; 5];
    }
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    let q = |f: f64| xs[((xs.len() - 1) as f64 * f).round() as usize];
    [q(0.0), q(0.25), q(0.5), q(0.75), q(1.0)]
}

/// Aggregates reconstructed from one run's event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Simulated task count (from the meta header, else max task + 1).
    pub tasks: u32,
    /// Per paper step: summed span nanoseconds per task (index = task).
    step_ns: BTreeMap<String, Vec<u64>>,
    /// Per `(pass, step)`: summed span nanoseconds per task.
    pass_step_ns: BTreeMap<(u32, String), Vec<u64>>,
    /// Total nanoseconds of the sequential IndexCreate phase.
    pub index_create_ns: u64,
    /// Summed nanoseconds of spans that are neither paper steps nor
    /// IndexCreate (all-to-all stages, streaming sub-phases), by name.
    other_ns: BTreeMap<String, u64>,
    /// Final counter values per `(task, kind)`.
    counters: BTreeMap<(u32, CounterKind), u64>,
}

impl RunSummary {
    /// Build a summary from an event stream (order-insensitive; repeated
    /// spans/counters for the same key accumulate).
    pub fn from_events(events: &[Event]) -> RunSummary {
        let mut tasks = 0u32;
        for ev in events {
            match ev {
                Event::Meta { tasks: n } => tasks = tasks.max(*n),
                Event::Span { task, .. } | Event::Counter { task, .. } => {
                    tasks = tasks.max(task + 1)
                }
                Event::Edge { src, dst, .. } => tasks = tasks.max(src.max(dst) + 1),
            }
        }
        let mut s = RunSummary {
            tasks,
            step_ns: BTreeMap::new(),
            pass_step_ns: BTreeMap::new(),
            index_create_ns: 0,
            other_ns: BTreeMap::new(),
            counters: BTreeMap::new(),
        };
        for ev in events {
            match ev {
                Event::Meta { .. } => {}
                // Message edges carry causal structure, not durations;
                // the analysis module consumes them.
                Event::Edge { .. } => {}
                Event::Span {
                    task,
                    name,
                    pass,
                    start_ns,
                    end_ns,
                    ..
                } => {
                    let dur = end_ns.saturating_sub(*start_ns);
                    if STEP_NAMES.contains(&name.as_str()) {
                        let per_task = s
                            .step_ns
                            .entry(name.clone())
                            .or_insert_with(|| vec![0; tasks as usize]);
                        per_task[*task as usize] += dur;
                        if let Some(p) = pass {
                            let per_task = s
                                .pass_step_ns
                                .entry((*p, name.clone()))
                                .or_insert_with(|| vec![0; tasks as usize]);
                            per_task[*task as usize] += dur;
                        }
                    } else if name == INDEX_CREATE {
                        s.index_create_ns += dur;
                    } else {
                        *s.other_ns.entry(name.clone()).or_insert(0) += dur;
                    }
                }
                Event::Counter { task, kind, value } => {
                    *s.counters.entry((*task, *kind)).or_insert(0) += value;
                }
            }
        }
        s
    }

    /// Exact per-task summed nanoseconds for one paper step, if any span
    /// of that step was recorded.
    pub fn step_task_ns(&self, name: &str) -> Option<&[u64]> {
        self.step_ns.get(name).map(Vec::as_slice)
    }

    /// Per-task pipeline totals (sum of the eight paper steps), exact ns.
    pub fn pipeline_task_ns(&self) -> Vec<u64> {
        let mut totals = vec![0u64; self.tasks as usize];
        for name in STEP_NAMES {
            if let Some(per_task) = self.step_ns.get(name) {
                for (t, ns) in per_task.iter().enumerate() {
                    totals[t] += ns;
                }
            }
        }
        totals
    }

    /// Final value of one `(task, kind)` counter (0 if never emitted).
    pub fn counter(&self, task: u32, kind: CounterKind) -> u64 {
        self.counters.get(&(task, kind)).copied().unwrap_or(0)
    }

    /// Sum of a counter across all tasks.
    pub fn counter_total(&self, kind: CounterKind) -> u64 {
        self.counters
            .iter()
            .filter(|((_, k), _)| *k == kind)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Passes that appear in the per-pass breakdown, ascending.
    pub fn passes(&self) -> Vec<u32> {
        let mut ps: Vec<u32> = self.pass_step_ns.keys().map(|(p, _)| *p).collect();
        ps.sort_unstable();
        ps.dedup();
        ps
    }

    /// Render the paper-style plain-text report.
    pub fn render(&self) -> String {
        let sec = |ns: u64| ns as f64 / 1e9;
        let mut out = String::new();
        let _ = writeln!(out, "METAPREP run report — {} simulated tasks", self.tasks);
        let _ = writeln!(out);

        // Per-step wall time: max across tasks drives the pipeline's
        // critical path (the paper reports max), five-number shows skew.
        let _ = writeln!(
            out,
            "{:<14} {:>10}   {:>9} {:>9} {:>9} {:>9} {:>9}",
            "step", "max (s)", "min", "q1", "median", "q3", "max"
        );
        for name in STEP_NAMES {
            let per_task = match self.step_ns.get(name) {
                Some(v) => v,
                None => continue,
            };
            let secs: Vec<f64> = per_task.iter().map(|&ns| sec(ns)).collect();
            let [mn, q1, med, q3, mx] = five_number(&secs);
            let label = step_label(name);
            let _ = writeln!(
                out,
                "{label:<14} {mx:>10.4}   {mn:>9.4} {q1:>9.4} {med:>9.4} {q3:>9.4} {mx:>9.4}"
            );
        }
        let totals: Vec<f64> = self.pipeline_task_ns().iter().map(|&ns| sec(ns)).collect();
        if totals.iter().any(|&t| t > 0.0) {
            let [mn, q1, med, q3, mx] = five_number(&totals);
            let _ = writeln!(
                out,
                "{:<14} {mx:>10.4}   {mn:>9.4} {q1:>9.4} {med:>9.4} {q3:>9.4} {mx:>9.4}",
                "pipeline"
            );
        }
        if self.index_create_ns > 0 {
            let _ = writeln!(
                out,
                "{:<14} {:>10.4}   (sequential)",
                "IndexCreate",
                sec(self.index_create_ns)
            );
        }
        if CPU_SUMMED_STEPS
            .iter()
            .any(|n| self.step_ns.contains_key(*n))
        {
            let _ = writeln!(out, "{CPU_SUMMED_NOTE}");
        }

        let passes = self.passes();
        if !passes.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "per-pass breakdown (max across tasks, s)");
            let _ = write!(out, "{:<6}", "pass");
            for name in STEP_NAMES {
                let _ = write!(out, " {:>12}", step_label(name));
            }
            let _ = writeln!(out);
            for p in passes {
                let _ = write!(out, "{p:<6}");
                for name in STEP_NAMES {
                    let max_ns = self
                        .pass_step_ns
                        .get(&(p, name.to_string()))
                        .map(|v| v.iter().copied().max().unwrap_or(0))
                        .unwrap_or(0);
                    let _ = write!(out, " {:>12.4}", sec(max_ns));
                }
                let _ = writeln!(out);
            }
        }

        let comm = [
            CounterKind::BytesSent,
            CounterKind::BytesReceived,
            CounterKind::MessagesSent,
            CounterKind::MessagesReceived,
        ];
        if comm.iter().any(|&k| self.counter_total(k) > 0) {
            let _ = writeln!(out);
            let _ = writeln!(out, "communication (totals across tasks)");
            for k in comm {
                let _ = writeln!(out, "  {:<20} {:>16}", k.as_str(), self.counter_total(k));
            }
        }

        let work = [
            CounterKind::TuplesEmitted,
            CounterKind::TuplesReceived,
            CounterKind::SortElements,
            CounterKind::UfFinds,
            CounterKind::UfUnions,
            CounterKind::UfPathSplits,
            CounterKind::MergeBytes,
            CounterKind::ChunkRecordsStreamed,
        ];
        if work.iter().any(|&k| self.counter_total(k) > 0) {
            let _ = writeln!(out);
            let _ = writeln!(out, "work counters (totals across tasks)");
            for k in work {
                let v = self.counter_total(k);
                if v > 0 {
                    let _ = writeln!(out, "  {:<24} {v:>16}", k.as_str());
                }
            }
        }

        let mem = [
            (CounterKind::MemModeledBytes, "modeled peak (model)"),
            (CounterKind::MemPeakTupleBytes, "measured peak tuples"),
            (CounterKind::VmHwmBytes, "process VmHWM"),
        ];
        if mem.iter().any(|&(k, _)| self.counter_total(k) > 0) {
            let _ = writeln!(out);
            let _ = writeln!(out, "memory (bytes)");
            for (k, label) in mem {
                let v = self.counter_total(k);
                if v > 0 {
                    let _ = writeln!(out, "  {label:<24} {v:>16}");
                }
            }
        }

        let presolve = [
            (CounterKind::PlannedPasses, "planned passes"),
            (CounterKind::MemBudgetBytes, "memory budget (B)"),
            (CounterKind::SketchFillPermille, "sketch fill (permille)"),
            (CounterKind::PresolveDroppedKmers, "k-mers presolved away"),
        ];
        // `planned_passes` alone (every run plans) is not worth a section;
        // the budget/sketch/drop counters only exist when the tier is on.
        if presolve[1..]
            .iter()
            .any(|&(k, _)| self.counter_total(k) > 0)
        {
            let _ = writeln!(out);
            let _ = writeln!(out, "presolve & pass planning");
            for (k, label) in presolve {
                let v = self.counter_total(k);
                if v > 0 {
                    let _ = writeln!(out, "  {label:<24} {v:>16}");
                }
            }
        }

        if !self.other_ns.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "other instrumented phases (summed, s)");
            for (name, ns) in &self.other_ns {
                let _ = writeln!(out, "  {name:<24} {:>12.4}", sec(*ns));
            }
        }

        let dropped = self.counter_total(CounterKind::EventsDropped);
        if dropped > 0 {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "WARNING: trace is incomplete — {dropped} event(s) dropped by the recorder"
            );
            for t in 0..self.tasks {
                let d = self.counter(t, CounterKind::EventsDropped);
                if d > 0 {
                    let _ = writeln!(out, "  task {t:<4} {d:>12} dropped");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SpanEvent;

    #[test]
    fn five_number_handles_nan_without_panicking() {
        let xs = [3.0, f64::NAN, 1.0, 2.0];
        let [mn, _, _, _, mx] = five_number(&xs);
        // total_cmp orders NaN above +inf, so max is NaN but min is real.
        assert_eq!(mn, 1.0);
        assert!(mx.is_nan());
        assert_eq!(five_number(&[]), [0.0; 5]);
        assert_eq!(five_number(&[7.0]), [7.0; 5]);
    }

    fn span(task: u32, name: &'static str, pass: u32, start: u64, end: u64) -> Event {
        Event::from(SpanEvent {
            task,
            name,
            pass: Some(pass),
            detail: None,
            start_ns: start,
            end_ns: end,
            lamport: 0,
        })
    }

    #[test]
    fn summary_accumulates_passes_and_is_exact() {
        let events = vec![
            Event::Meta { tasks: 2 },
            span(0, "KmerGen", 0, 0, 100),
            span(0, "KmerGen", 1, 200, 350),
            span(1, "KmerGen", 0, 0, 90),
            span(1, "LocalSort", 0, 90, 100),
            Event::Counter {
                task: 0,
                kind: CounterKind::TuplesEmitted,
                value: 5,
            },
            Event::Counter {
                task: 1,
                kind: CounterKind::TuplesEmitted,
                value: 7,
            },
        ];
        let s = RunSummary::from_events(&events);
        assert_eq!(s.tasks, 2);
        assert_eq!(s.step_task_ns("KmerGen"), Some(&[250u64, 90][..]));
        assert_eq!(s.pipeline_task_ns(), vec![250, 100]);
        assert_eq!(s.passes(), vec![0, 1]);
        assert_eq!(s.counter_total(CounterKind::TuplesEmitted), 12);
        assert_eq!(s.counter(1, CounterKind::TuplesEmitted), 7);
        let text = s.render();
        // KmerGen's time is CPU-summed: its row is starred and footnoted,
        // LocalSort's (wall time) is not.
        assert!(text.lines().any(|l| l.starts_with("KmerGen* ")), "{text}");
        assert!(text.lines().any(|l| l.starts_with("LocalSort ")), "{text}");
        assert!(text.contains(CPU_SUMMED_NOTE), "{text}");
        assert!(text.contains("per-pass breakdown"));
        assert!(text.contains("tuples_emitted"));
    }

    #[test]
    fn index_create_and_other_spans_kept_separate() {
        let events = vec![
            Event::Span {
                task: 0,
                name: "IndexCreate".to_string(),
                pass: None,
                detail: None,
                start_ns: 0,
                end_ns: 1_000,
                lamport: 0,
            },
            Event::Span {
                task: 0,
                name: "alltoall-stage".to_string(),
                pass: Some(0),
                detail: Some(2),
                start_ns: 0,
                end_ns: 10,
                lamport: 0,
            },
        ];
        let s = RunSummary::from_events(&events);
        assert_eq!(s.index_create_ns, 1_000);
        assert_eq!(s.pipeline_task_ns(), vec![0]);
        assert!(s.render().contains("alltoall-stage"));
    }

    #[test]
    fn presolve_counters_render_their_own_section() {
        let counter = |kind, value| Event::Counter {
            task: 0,
            kind,
            value,
        };
        let events = vec![
            Event::Meta { tasks: 1 },
            counter(CounterKind::PlannedPasses, 3),
            counter(CounterKind::MemBudgetBytes, 1 << 20),
            counter(CounterKind::SketchFillPermille, 42),
            counter(CounterKind::PresolveDroppedKmers, 999),
        ];
        let text = RunSummary::from_events(&events).render();
        assert!(text.contains("presolve & pass planning"));
        assert!(text.contains("planned passes"));
        assert!(text.contains("k-mers presolved away"));
        assert!(text.contains("999"));
        // The pass count alone (every run plans) does not open the section.
        let plain = vec![
            Event::Meta { tasks: 1 },
            counter(CounterKind::PlannedPasses, 2),
        ];
        assert!(!RunSummary::from_events(&plain)
            .render()
            .contains("presolve & pass planning"));
    }

    #[test]
    fn dropped_events_surface_as_warning() {
        let events = vec![
            Event::Meta { tasks: 2 },
            span(0, "KmerGen", 0, 0, 100),
            Event::Counter {
                task: 1,
                kind: CounterKind::EventsDropped,
                value: 3,
            },
        ];
        let s = RunSummary::from_events(&events);
        let text = s.render();
        assert!(text.contains("WARNING: trace is incomplete"));
        assert!(text.contains("3 dropped") || text.contains("3"));
        // A clean trace has no warning.
        let clean = RunSummary::from_events(&[Event::Meta { tasks: 1 }]);
        assert!(!clean.render().contains("WARNING"));
    }
}
