//! The paper-style run summary behind `metaprep report` (per-step max /
//! five-number across tasks, per-pass breakdown, communication volume,
//! memory model vs measured): a second renderer over [`TraceAnalysis`].

use crate::analysis::TraceAnalysis;
use crate::event::{step_label, CounterKind, CPU_SUMMED_NOTE, CPU_SUMMED_STEPS, STEP_NAMES};
use std::fmt::Write as _;

/// Five-number summary (min, lower quartile, median, upper quartile,
/// max) by nearest rank — every value is one of the samples — using
/// `f64::total_cmp`, so NaNs order deterministically instead of
/// panicking. Empty input yields all zeros.
pub fn five_number(xs: &[f64]) -> [f64; 5] {
    if xs.is_empty() {
        return [0.0; 5];
    }
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    let q = |f: f64| xs[((xs.len() - 1) as f64 * f).round() as usize];
    [q(0.0), q(0.25), q(0.5), q(0.75), q(1.0)]
}

impl TraceAnalysis {
    /// Render the paper-style plain-text run summary.
    pub fn render_summary(&self) -> String {
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
        let row = |out: &mut String, label: &str, per_task: &[u64]| {
            let secs: Vec<f64> = per_task.iter().map(|&ns| sec(ns)).collect();
            let [mn, q1, med, q3, mx] = five_number(&secs);
            let _ = writeln!(
                out,
                "{label:<14} {mx:>10.4}   {mn:>9.4} {q1:>9.4} {med:>9.4} {q3:>9.4} {mx:>9.4}"
            );
        };
        let steps: Vec<(&str, Vec<u64>)> = STEP_NAMES
            .into_iter()
            .filter_map(|name| Some((name, self.step_task_ns(name, None)?)))
            .collect();
        for (name, per_task) in &steps {
            row(&mut out, &step_label(name), per_task);
        }
        let totals = self.pipeline_task_ns();
        if totals.iter().any(|&ns| ns > 0) {
            row(&mut out, "pipeline", &totals);
        }
        let index_create_ns = self.index_create_ns();
        if index_create_ns > 0 {
            let _ = writeln!(
                out,
                "{:<14} {:>10.4}   (sequential)",
                "IndexCreate",
                sec(index_create_ns)
            );
        }
        if steps.iter().any(|(n, _)| CPU_SUMMED_STEPS.contains(n)) {
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
                    let per_task = self.step_task_ns(name, Some(p)).unwrap_or_default();
                    let max_ns = per_task.into_iter().max().unwrap_or(0);
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

        // A titled block of the non-zero totals among `rows`, written only
        // when a counter of `gate` is non-zero.
        type Rows<'a> = [(CounterKind, &'a str)];
        let section = |out: &mut String, title: &str, rows: &Rows, gate: &Rows| {
            if gate.iter().all(|&(k, _)| self.counter_total(k) == 0) {
                return;
            }
            let _ = writeln!(out);
            let _ = writeln!(out, "{title}");
            for &(k, label) in rows {
                let v = self.counter_total(k);
                if v > 0 {
                    let _ = writeln!(out, "  {label:<24} {v:>16}");
                }
            }
        };
        let work = [
            CounterKind::TuplesEmitted,
            CounterKind::TuplesReceived,
            CounterKind::SortElements,
            CounterKind::UfFinds,
            CounterKind::UfUnions,
            CounterKind::UfPathSplits,
            CounterKind::MergeBytes,
            CounterKind::ChunkRecordsStreamed,
        ]
        .map(|k| (k, k.as_str()));
        section(
            &mut out,
            "work counters (totals across tasks)",
            &work,
            &work,
        );
        let mem = [
            (CounterKind::MemModeledBytes, "modeled peak (model)"),
            (CounterKind::MemPeakTupleBytes, "measured peak tuples"),
            (CounterKind::VmHwmBytes, "process VmHWM"),
        ];
        section(&mut out, "memory (bytes)", &mem, &mem);
        let presolve = [
            (CounterKind::PlannedPasses, "planned passes"),
            (CounterKind::MemBudgetBytes, "memory budget (B)"),
            (CounterKind::SketchFillPermille, "sketch fill (permille)"),
            (CounterKind::PresolveDroppedKmers, "k-mers presolved away"),
        ];
        // `planned_passes` alone (every run plans) is not worth a section;
        // the budget/sketch/drop counters only exist when the tier is on.
        section(
            &mut out,
            "presolve & pass planning",
            &presolve,
            &presolve[1..],
        );

        let other = self.other_phase_ns();
        if !other.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "other instrumented phases (summed, s)");
            for (name, ns) in other {
                let _ = writeln!(out, "  {name:<24} {:>12.4}", sec(ns));
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
    use crate::event::{Event, SpanEvent};

    #[test]
    fn five_number_is_nearest_rank_and_total_order() {
        let xs = [3.0, f64::NAN, 1.0, 2.0];
        let [mn, _, _, _, mx] = five_number(&xs);
        // total_cmp orders NaN above +inf, so max is NaN but min is real.
        assert_eq!(mn, 1.0);
        assert!(mx.is_nan());
        assert_eq!(five_number(&[]), [0.0; 5]);
        assert_eq!(five_number(&[7.0]), [7.0; 5]);
        // Known data: the quartiles are exact ranks.
        assert_eq!(
            five_number(&[1.0, 2.0, 3.0, 4.0, 5.0]),
            [1.0, 2.0, 3.0, 4.0, 5.0]
        );
        // Regression: the sort used partial_cmp(..).expect("no NaN");
        // total_cmp orders every f64, zeros and subnormals included.
        let ns = |n: u64| n as f64 / 1e9;
        let xs = [0, u64::from(u32::MAX), 1, 0, 500].map(ns);
        let [mn, _, med, _, mx] = five_number(&xs);
        assert_eq!(mn, 0.0);
        // Sorted: [0, 0, 1, 500, u32::MAX] ns — the median is the 1 ns
        // sample (an exact rank, no interpolation).
        assert_eq!(med, 1e-9);
        assert_eq!(mx, ns(u64::from(u32::MAX)));
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
        let s = TraceAnalysis::from_events(&events);
        assert_eq!(s.tasks, 2);
        assert_eq!(s.step_task_ns("KmerGen", None), Some(vec![250, 90]));
        assert_eq!(s.step_task_ns("KmerGen", Some(1)), Some(vec![150, 0]));
        assert_eq!(s.pipeline_task_ns(), vec![250, 100]);
        assert_eq!(s.passes(), vec![0, 1]);
        assert_eq!(s.counter_total(CounterKind::TuplesEmitted), 12);
        assert_eq!(s.counter(1, CounterKind::TuplesEmitted), 7);
        let text = s.render_summary();
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
        let s = TraceAnalysis::from_events(&events);
        assert_eq!(s.index_create_ns(), 1_000);
        assert_eq!(s.pipeline_task_ns(), vec![0]);
        assert!(s.render_summary().contains("alltoall-stage"));
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
        let text = TraceAnalysis::from_events(&events).render_summary();
        assert!(text.contains("presolve & pass planning"));
        assert!(text.contains("planned passes"));
        assert!(text.contains("k-mers presolved away"));
        assert!(text.contains("999"));
        // The pass count alone (every run plans) does not open the section.
        let plain = vec![
            Event::Meta { tasks: 1 },
            counter(CounterKind::PlannedPasses, 2),
        ];
        assert!(!TraceAnalysis::from_events(&plain)
            .render_summary()
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
        let s = TraceAnalysis::from_events(&events);
        let text = s.render_summary();
        assert!(text.contains("WARNING: trace is incomplete"));
        assert!(text.contains("3 dropped") || text.contains("3"));
        // A clean trace has no warning.
        let clean = TraceAnalysis::from_events(&[Event::Meta { tasks: 1 }]);
        assert!(!clean.render_summary().contains("WARNING"));
    }
}
