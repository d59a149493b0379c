//! Per-step, per-task timing — the raw material of every scaling figure.

use metaprep_obs::event::STEP_NAMES;
use metaprep_obs::SpanEvent;
use std::time::Duration;

/// The pipeline steps, named as in the paper's figures.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Step {
    /// Reading FASTQ chunk data (KmerGen-I/O).
    KmerGenIo = 0,
    /// Enumerating `(k-mer, read)` tuples.
    KmerGen = 1,
    /// The P-stage all-to-all (KmerGen-Comm).
    KmerGenComm = 2,
    /// Range partition + per-thread serial radix sort.
    LocalSort = 3,
    /// Concurrent union-find over the implicit edges (LocalCC / -Opt).
    LocalCc = 4,
    /// Sending/receiving component arrays in the merge rounds (Merge-Comm).
    MergeComm = 5,
    /// Absorbing received component arrays (MergeCC).
    MergeCc = 6,
    /// Broadcasting final labels and partitioning output reads (CC-I/O).
    CcIo = 7,
}

impl Step {
    /// All steps in pipeline order.
    pub fn all() -> [Step; 8] {
        [
            Step::KmerGenIo,
            Step::KmerGen,
            Step::KmerGenComm,
            Step::LocalSort,
            Step::LocalCc,
            Step::MergeComm,
            Step::MergeCc,
            Step::CcIo,
        ]
    }

    /// Display name matching the paper's legends: the step's entry in
    /// the span-name list `metaprep_obs::event::STEP_NAMES`.
    pub fn name(&self) -> &'static str {
        STEP_NAMES[*self as usize]
    }

    /// Inverse of [`Step::name`] — used to rebuild timings from spans.
    pub fn from_name(name: &str) -> Option<Step> {
        let i = STEP_NAMES.iter().position(|&n| n == name)?;
        Some(Step::all()[i])
    }
}

/// One task's accumulated time per step (summed over passes).
#[derive(Clone, Debug, Default)]
pub struct TaskTimings {
    durations: [Duration; 8],
}

impl TaskTimings {
    /// Add `d` to `step`.
    pub fn add(&mut self, step: Step, d: Duration) {
        self.durations[step as usize] += d;
    }

    /// Accumulated time of `step`.
    pub fn get(&self, step: Step) -> Duration {
        self.durations[step as usize]
    }

    /// Sum over all steps.
    pub fn total(&self) -> Duration {
        self.durations.iter().sum()
    }

    /// Rebuild one task's timings from its recorded step spans: every
    /// span whose name matches a paper step adds its duration. This is
    /// how the pipeline derives `StepTimings` from telemetry — spans are
    /// the source of truth, and a differential test in `pipeline.rs`
    /// pins this to the historical ad-hoc accumulation.
    pub fn from_spans(spans: &[SpanEvent]) -> TaskTimings {
        let mut t = TaskTimings::default();
        for span in spans {
            if let Some(step) = Step::from_name(&span.name) {
                t.add(step, Duration::from_nanos(span.dur_ns()));
            }
        }
        t
    }
}

/// Timings of a whole run: one [`TaskTimings`] per task, plus the
/// sequential index-creation time.
#[derive(Clone, Debug, Default)]
pub struct StepTimings {
    /// IndexCreate time (sequential, once per dataset; paper Table 5).
    pub index_create: Duration,
    /// Per-task step timings, indexed by rank.
    pub per_task: Vec<TaskTimings>,
}

impl StepTimings {
    /// Maximum (critical-path) time of a step across tasks — what the
    /// stacked bars of Figures 5–7 show.
    pub fn max_of(&self, step: Step) -> Duration {
        self.per_task
            .iter()
            .map(|t| t.get(step))
            .max()
            .unwrap_or_default()
    }

    /// End-to-end pipeline time: max total across tasks (excludes
    /// IndexCreate, which the paper reports separately).
    pub fn total(&self) -> Duration {
        self.per_task
            .iter()
            .map(|t| t.total())
            .max()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let mut t = TaskTimings::default();
        t.add(Step::LocalSort, Duration::from_millis(5));
        t.add(Step::LocalSort, Duration::from_millis(7));
        assert_eq!(t.get(Step::LocalSort), Duration::from_millis(12));
        assert_eq!(t.get(Step::KmerGen), Duration::ZERO);
        assert_eq!(t.total(), Duration::from_millis(12));
    }

    #[test]
    fn max_of_across_tasks() {
        let mut a = TaskTimings::default();
        a.add(Step::KmerGen, Duration::from_millis(10));
        let mut b = TaskTimings::default();
        b.add(Step::KmerGen, Duration::from_millis(30));
        let st = StepTimings {
            index_create: Duration::ZERO,
            per_task: vec![a, b],
        };
        assert_eq!(st.max_of(Step::KmerGen), Duration::from_millis(30));
        assert_eq!(st.total(), Duration::from_millis(30));
    }

    #[test]
    fn empty_timings_total_zero() {
        assert_eq!(StepTimings::default().total(), Duration::ZERO);
    }

    #[test]
    fn step_names_match_paper() {
        assert_eq!(Step::KmerGenComm.name(), "KmerGen-Comm");
        assert_eq!(Step::all().len(), 8);
    }

    #[test]
    fn step_all_is_discriminant_order_and_names_round_trip() {
        for (i, step) in Step::all().into_iter().enumerate() {
            assert_eq!(step as usize, i, "{step:?}");
            assert_eq!(Step::from_name(step.name()), Some(step));
        }
        assert_eq!(Step::from_name("NotAStep"), None);
    }

    #[test]
    fn from_spans_accumulates_matching_names_only() {
        let mk = |name: &'static str, start_ns, end_ns| SpanEvent {
            task: 0,
            name: name.into(),
            pass: Some(0),
            detail: None,
            start_ns,
            end_ns,
            lamport: 0,
        };
        let spans = [
            mk("KmerGen", 0, 100),
            mk("KmerGen", 200, 250),
            mk("alltoall-stage", 300, 400), // sub-span: not a step
            mk("LocalSort", 400, 450),
        ];
        let t = TaskTimings::from_spans(&spans);
        assert_eq!(t.get(Step::KmerGen), Duration::from_nanos(150));
        assert_eq!(t.get(Step::LocalSort), Duration::from_nanos(50));
        assert_eq!(t.total(), Duration::from_nanos(200));
    }
}
