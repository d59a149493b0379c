//! Pipeline configuration.

use metaprep_dist::FaultPlan;
use metaprep_index::SketchParams;
use std::fmt;
use std::path::PathBuf;

/// Errors surfaced by pipeline validation or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The configuration is internally inconsistent.
    InvalidConfig(String),
    /// The input violates a pipeline limit (e.g. too many fragments).
    InvalidInput(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::InvalidConfig(s) => write!(f, "invalid configuration: {s}"),
            PipelineError::InvalidInput(s) => write!(f, "invalid input: {s}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Full configuration of a METAPREP run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipelineConfig {
    /// k-mer length (`1..=63`; the paper uses 27 by default and 63 for the
    /// large-k experiments). `k <= 32` uses 64-bit tuples, larger k 128-bit.
    pub k: usize,
    /// m-mer prefix length for the index histograms (`m <= min(k, 16)`;
    /// the paper uses 10; we default to 8 which gives 64Ki bins — plenty
    /// for the scaled datasets while keeping `FASTQPart` small).
    pub m: usize,
    /// Number of I/O passes `S` over the input (§3.1: more passes, less
    /// memory per task). `None` runs one pass, or lets the planner choose
    /// when [`Self::memory_budget`] is set. A pass count that is set always
    /// wins over the planner, but a budget it cannot meet is a
    /// configuration error instead of a silent overshoot.
    pub passes: Option<usize>,
    /// Per-task memory budget in bytes for the adaptive pass planner.
    /// When set (and `passes` is not) the pipeline computes the smallest
    /// pass count whose §3.7 modeled footprint fits.
    pub memory_budget: Option<u64>,
    /// Presolve drop threshold: k-mers whose sketch-estimated occurrence
    /// count *exceeds* this value are dropped inside KmerGen, before any
    /// tuple is materialized or shipped. `None` disables the presolve
    /// tier; the threshold must lie in `1..=254`, below the sketch's
    /// saturating 8-bit counters. The estimate never under-counts, so
    /// every k-mer truly above the threshold is dropped; rare sketch collisions can only drop
    /// extra high-side k-mers, never resurrect one. The drops, and so the
    /// partition, depend on `tasks × threads`: each IndexCreate worker
    /// fills its own conservative sketch and the merge forgoes the
    /// conservative updates across workers, so compare presolve runs only
    /// at equal `tasks` and `threads`.
    pub presolve_threshold: Option<u32>,
    /// Shape and seed of the presolve count-min sketch built during
    /// IndexCreate (used only when `presolve_threshold` is set).
    pub sketch: SketchParams,
    /// Number of simulated MPI tasks `P`.
    pub tasks: usize,
    /// Threads per task `T`.
    pub threads: usize,
    /// Number of logical FASTQ chunks `C`; 0 means `4 * tasks * threads`.
    pub chunks: usize,
    /// k-mer frequency filter: only k-mers whose occurrence count lies in
    /// `lo..=hi` generate read-graph edges (paper §4.4; `KF < 30` is
    /// `(1, 29)`, `10 <= KF < 30` is `(10, 29)`).
    pub kf_filter: Option<(u32, u32)>,
    /// Probe window in bytes for the streaming file IndexCreate's chunk cuts
    /// (0 = auto, `metaprep_io::DEFAULT_INDEX_WINDOW`). Indexing memory per
    /// thread is O(window + `metaprep_io::WALK_WINDOW`); the window only
    /// needs to span a few FASTQ records.
    pub index_window: usize,
    /// Radix digit width in bits for the standalone LocalSort,
    /// `metaprep_sort::fused_local_sort` (`1..=16`; the paper uses 8 — 256
    /// bucket counters stay L1-resident). The pipeline sorts nothing and
    /// does not read it; `benchmark/`'s sort probe does.
    pub sort_digit_bits: u32,
    /// Deterministic fault-injection plan applied to every cluster
    /// message and to the chosen crash boundaries (`None` = fault-free).
    /// Crashes in the plan require [`PipelineConfig::checkpoint_dir`].
    pub fault_plan: Option<FaultPlan>,
    /// Directory for pass-level checkpoints (`rank{r}.ckpt`). When set,
    /// each task persists its restartable state at every pass and merge
    /// boundary; a task restarted after an injected crash replays from the
    /// last one it wrote in this run. Checkpoints other runs left in the
    /// directory are never restored; this run's writes overwrite them.
    pub checkpoint_dir: Option<PathBuf>,
    /// Stall watchdog threshold in milliseconds (`None` = the cluster
    /// default; `Some(0)` is rejected by validation).
    pub watchdog_timeout_ms: Option<u64>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            k: 27,
            m: 8,
            passes: None,
            memory_budget: None,
            presolve_threshold: None,
            sketch: SketchParams::default(),
            tasks: 1,
            threads: 1,
            chunks: 0,
            kf_filter: None,
            index_window: 0,
            sort_digit_bits: 8,
            fault_plan: None,
            checkpoint_dir: None,
            watchdog_timeout_ms: None,
        }
    }
}

impl PipelineConfig {
    /// Start building a configuration from the defaults.
    pub fn builder() -> PipelineConfigBuilder {
        PipelineConfigBuilder {
            cfg: Self::default(),
        }
    }

    /// Effective chunk count.
    pub fn effective_chunks(&self) -> usize {
        if self.chunks == 0 {
            4 * self.tasks * self.threads
        } else {
            self.chunks
        }
    }

    /// Validate invariants; called when a [`crate::Pipeline`] run starts.
    pub fn validate(&self) -> Result<(), PipelineError> {
        let err = |s: String| Err(PipelineError::InvalidConfig(s));
        if self.k < 1 || self.k > 63 {
            return err(format!("k = {} not in 1..=63", self.k));
        }
        if self.m < 1 || self.m > self.k.min(16) {
            return err(format!("m = {} not in 1..=min(k, 16)", self.m));
        }
        if self.passes == Some(0) {
            return err("passes must be >= 1".into());
        }
        if self.tasks < 1 {
            return err("tasks must be >= 1".into());
        }
        if self.threads < 1 {
            return err("threads must be >= 1".into());
        }
        if let Some((lo, hi)) = self.kf_filter {
            if lo > hi || lo == 0 {
                return err(format!("kf_filter ({lo}, {hi}) must satisfy 1 <= lo <= hi"));
            }
        }
        if !(1..=16).contains(&self.sort_digit_bits) {
            return err(format!(
                "sort_digit_bits = {} not in 1..=16",
                self.sort_digit_bits
            ));
        }
        if let Some(plan) = &self.fault_plan {
            if !plan.crashes.is_empty() && self.checkpoint_dir.is_none() {
                return err("fault plan injects crashes but no checkpoint_dir is set \
                     (restart needs somewhere to replay from)"
                    .into());
            }
            for c in &plan.crashes {
                if c.rank as usize >= self.tasks {
                    return err(format!(
                        "fault plan crashes rank {} but the run has only {} tasks",
                        c.rank, self.tasks
                    ));
                }
            }
        }
        if self.watchdog_timeout_ms == Some(0) {
            return err("watchdog_timeout_ms must be nonzero".into());
        }
        if self.memory_budget == Some(0) {
            return err("memory_budget must be nonzero".into());
        }
        if self.presolve_threshold == Some(0) {
            return err(
                "presolve_threshold must be >= 1 (a zero threshold drops every k-mer)".into(),
            );
        }
        let counter_max = metaprep_index::countmin::COUNTER_MAX;
        if let Some(t) = self.presolve_threshold.filter(|&t| t >= counter_max) {
            return err(format!(
                "presolve_threshold = {t} must be below {counter_max}, where the sketch's \
                 counters saturate"
            ));
        }
        let depths = 1..=metaprep_index::countmin::MAX_DEPTH;
        if self.presolve_threshold.is_some()
            && (self.sketch.width < 16 || !depths.contains(&self.sketch.depth))
        {
            return err(format!(
                "presolve sketch must be at least 16 counters wide and {} to {} rows deep, \
                 got {} x {}",
                depths.start(),
                depths.end(),
                self.sketch.width,
                self.sketch.depth
            ));
        }
        Ok(())
    }
}

/// Builder for [`PipelineConfig`].
#[derive(Clone, Debug)]
pub struct PipelineConfigBuilder {
    cfg: PipelineConfig,
}

impl PipelineConfigBuilder {
    /// Set the k-mer length.
    pub fn k(mut self, k: usize) -> Self {
        self.cfg.k = k;
        self
    }

    /// Set the m-mer prefix length.
    pub fn m(mut self, m: usize) -> Self {
        self.cfg.m = m;
        self
    }

    /// Set the number of I/O passes — the adaptive planner then never
    /// overrides it (a [`PipelineConfig::memory_budget`] it cannot meet
    /// becomes a configuration error at run time).
    pub fn passes(mut self, s: usize) -> Self {
        self.cfg.passes = Some(s);
        self
    }

    /// Set the per-task memory budget in bytes for the adaptive planner.
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.cfg.memory_budget = Some(bytes);
        self
    }

    /// Enable the presolve tier: drop k-mers whose estimated occurrence
    /// count exceeds `threshold` before tuples are generated.
    pub fn presolve_threshold(mut self, threshold: u32) -> Self {
        self.cfg.presolve_threshold = Some(threshold);
        self
    }

    /// Shape the presolve count-min sketch.
    pub fn sketch(mut self, params: SketchParams) -> Self {
        self.cfg.sketch = params;
        self
    }

    /// Set the number of simulated tasks.
    pub fn tasks(mut self, p: usize) -> Self {
        self.cfg.tasks = p;
        self
    }

    /// Set threads per task.
    pub fn threads(mut self, t: usize) -> Self {
        self.cfg.threads = t;
        self
    }

    /// Set the logical chunk count (0 = auto).
    pub fn chunks(mut self, c: usize) -> Self {
        self.cfg.chunks = c;
        self
    }

    /// Restrict read-graph edges to k-mers with frequency in `lo..=hi`.
    pub fn kf_filter(mut self, lo: u32, hi: u32) -> Self {
        self.cfg.kf_filter = Some((lo, hi));
        self
    }

    /// Set the streaming IndexCreate probe/read window in bytes (0 = auto).
    pub fn index_window(mut self, bytes: usize) -> Self {
        self.cfg.index_window = bytes;
        self
    }

    /// Set the standalone LocalSort's radix digit width in bits (`1..=16`).
    pub fn sort_digit_bits(mut self, bits: u32) -> Self {
        self.cfg.sort_digit_bits = bits;
        self
    }

    /// Inject faults according to `plan` (see [`FaultPlan`]).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.cfg.fault_plan = Some(plan);
        self
    }

    /// Persist pass-level checkpoints under `dir`.
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cfg.checkpoint_dir = Some(dir.into());
        self
    }

    /// Set the stall watchdog threshold in milliseconds (nonzero).
    pub fn watchdog_timeout_ms(mut self, ms: u64) -> Self {
        self.cfg.watchdog_timeout_ms = Some(ms);
        self
    }

    /// Finish building.
    pub fn build(self) -> PipelineConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        assert!(PipelineConfig::default().validate().is_ok());
    }

    #[test]
    fn builder_sets_fields() {
        let c = PipelineConfig::builder()
            .k(63)
            .m(10)
            .passes(4)
            .tasks(8)
            .threads(3)
            .chunks(96)
            .kf_filter(10, 29)
            .index_window(1 << 20)
            .sort_digit_bits(11)
            .build();
        assert_eq!(c.k, 63);
        assert_eq!(c.m, 10);
        assert_eq!(c.passes, Some(4));
        assert_eq!(c.tasks, 8);
        assert_eq!(c.threads, 3);
        assert_eq!(c.chunks, 96);
        assert_eq!(c.kf_filter, Some((10, 29)));
        assert_eq!(c.index_window, 1 << 20);
        assert_eq!(c.sort_digit_bits, 11);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn effective_chunks_auto() {
        let c = PipelineConfig::builder().tasks(2).threads(3).build();
        assert_eq!(c.effective_chunks(), 24);
        let c = PipelineConfig::builder().chunks(7).build();
        assert_eq!(c.effective_chunks(), 7);
    }

    #[test]
    fn rejects_bad_k() {
        assert!(PipelineConfig::builder().k(0).build().validate().is_err());
        assert!(PipelineConfig::builder().k(64).build().validate().is_err());
        assert!(PipelineConfig::builder().k(63).build().validate().is_ok());
    }

    #[test]
    fn rejects_bad_m() {
        assert!(PipelineConfig::builder()
            .k(6)
            .m(7)
            .build()
            .validate()
            .is_err());
        assert!(PipelineConfig::builder().m(0).build().validate().is_err());
        assert!(PipelineConfig::builder()
            .k(27)
            .m(16)
            .build()
            .validate()
            .is_ok());
    }

    #[test]
    fn rejects_bad_filter() {
        assert!(PipelineConfig::builder()
            .kf_filter(5, 2)
            .build()
            .validate()
            .is_err());
        assert!(PipelineConfig::builder()
            .kf_filter(0, 5)
            .build()
            .validate()
            .is_err());
        assert!(PipelineConfig::builder()
            .kf_filter(1, 1)
            .build()
            .validate()
            .is_ok());
    }

    #[test]
    fn rejects_bad_sort_digit_bits() {
        for bits in [0u32, 17, 64] {
            assert!(PipelineConfig::builder()
                .sort_digit_bits(bits)
                .build()
                .validate()
                .is_err());
        }
        for bits in [1u32, 8, 16] {
            assert!(PipelineConfig::builder()
                .sort_digit_bits(bits)
                .build()
                .validate()
                .is_ok());
        }
    }

    #[test]
    fn fault_builder_sets_fields() {
        let plan = FaultPlan::new(7);
        let c = PipelineConfig::builder()
            .fault_plan(plan.clone())
            .checkpoint_dir("/tmp/ckpt")
            .watchdog_timeout_ms(250)
            .build();
        assert_eq!(c.fault_plan, Some(plan));
        assert_eq!(c.checkpoint_dir, Some(PathBuf::from("/tmp/ckpt")));
        assert_eq!(c.watchdog_timeout_ms, Some(250));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn crashes_require_a_checkpoint_dir() {
        use metaprep_dist::Boundary;
        let plan = FaultPlan::new(1).with_crash(0, Boundary::Pass(0));
        assert!(PipelineConfig::builder()
            .fault_plan(plan.clone())
            .build()
            .validate()
            .is_err());
        assert!(PipelineConfig::builder()
            .fault_plan(plan)
            .checkpoint_dir("/tmp/ckpt")
            .build()
            .validate()
            .is_ok());
    }

    #[test]
    fn crash_rank_must_exist() {
        use metaprep_dist::Boundary;
        let plan = FaultPlan::new(1).with_crash(5, Boundary::Pass(0));
        assert!(PipelineConfig::builder()
            .tasks(2)
            .fault_plan(plan)
            .checkpoint_dir("/tmp/ckpt")
            .build()
            .validate()
            .is_err());
    }

    #[test]
    fn rejects_zero_watchdog() {
        assert!(PipelineConfig::builder()
            .watchdog_timeout_ms(0)
            .build()
            .validate()
            .is_err());
    }

    #[test]
    fn passes_builder_sets_the_pass_count() {
        assert_eq!(PipelineConfig::default().passes, None);
        let c = PipelineConfig::builder().passes(2).build();
        assert_eq!(c.passes, Some(2));
        // A budget alone leaves the pass count to the planner.
        let c = PipelineConfig::builder().memory_budget(1 << 30).build();
        assert_eq!(c.passes, None);
        assert_eq!(c.memory_budget, Some(1 << 30));
    }

    #[test]
    fn presolve_builder_and_validation() {
        let c = PipelineConfig::builder()
            .presolve_threshold(20)
            .sketch(SketchParams {
                width: 1 << 10,
                depth: 3,
                seed: 5,
            })
            .build();
        assert_eq!(c.presolve_threshold, Some(20));
        assert_eq!(c.sketch.depth, 3);
        assert!(c.validate().is_ok());
        assert!(PipelineConfig::builder()
            .presolve_threshold(0)
            .build()
            .validate()
            .is_err());
        // The sketch's counters saturate at 255: a threshold there or above
        // would keep every k-mer.
        assert!(PipelineConfig::builder()
            .presolve_threshold(254)
            .build()
            .validate()
            .is_ok());
        for t in [255, u32::MAX] {
            let saturated = PipelineConfig::builder()
                .presolve_threshold(t)
                .build()
                .validate();
            assert!(
                matches!(&saturated, Err(PipelineError::InvalidConfig(m)) if m.contains("must be below 255")),
                "{saturated:?}"
            );
        }
        assert!(PipelineConfig::builder()
            .presolve_threshold(5)
            .sketch(SketchParams {
                width: 4,
                depth: 0,
                seed: 0,
            })
            .build()
            .validate()
            .is_err());
        // An update keeps a key's cells on the stack: at most MAX_DEPTH rows.
        let too_deep = PipelineConfig::builder()
            .presolve_threshold(5)
            .sketch(SketchParams {
                width: 1 << 10,
                depth: metaprep_index::countmin::MAX_DEPTH + 1,
                seed: 0,
            })
            .build()
            .validate();
        assert!(
            matches!(&too_deep, Err(PipelineError::InvalidConfig(m)) if m.contains("1 to 8 rows deep")),
            "{too_deep:?}"
        );
    }

    #[test]
    fn rejects_zero_memory_budget() {
        assert!(PipelineConfig::builder()
            .memory_budget(0)
            .build()
            .validate()
            .is_err());
        assert!(PipelineConfig::builder()
            .memory_budget(1 << 20)
            .build()
            .validate()
            .is_ok());
    }

    #[test]
    fn rejects_zero_parallelism() {
        assert!(PipelineConfig::builder()
            .passes(0)
            .build()
            .validate()
            .is_err());
        assert!(PipelineConfig::builder()
            .tasks(0)
            .build()
            .validate()
            .is_err());
        assert!(PipelineConfig::builder()
            .threads(0)
            .build()
            .validate()
            .is_err());
    }
}
