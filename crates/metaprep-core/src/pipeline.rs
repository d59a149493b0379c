//! Pipeline orchestration: the distributed METAPREP flow.
//!
//! A task's timeline is a sequence of [`Boundary`] values — `Pass(s)` for
//! every planned pass, then `MergeRound(r)` for every level of the merge
//! tree up to the one the task retires in — each a quiescent point where
//! the task may crash and where what it carries onward (`TaskState`) is
//! exactly what a checkpoint stores. `Task::drive` walks that sequence,
//! restarting from the checkpoint where an injected crash is due; the
//! stage functions after it each do one step's work and hand typed values
//! to the next.

use crate::checkpoint::{Forest, Progress, TaskState};
use crate::config::{PipelineConfig, PipelineError};
use crate::kmergen::{expected_incoming, kmergen_pass, KmerGenOutput, PipelineKmer};
use crate::localcc::{bucket_walk, LocalCcStats};
use crate::memmodel::MemoryReport;
use crate::planner::{plan_passes, PlanInputs};
use crate::source::{ChunkSource, Spool};
use crate::timings::{Step, StepTimings, TaskTimings};
use metaprep_cc::{ComponentMsg, ComponentStats, ConcurrentDisjointSet, DisjointSet};
use metaprep_dist::collectives::{alltoall, broadcast};
use metaprep_dist::{run_cluster, Boundary, ClusterConfig, CommStats, Payload, TaskCtx};
use metaprep_index::{BucketPlan, CountMinSketch, FastqPart, HighFreqFilter, MerHist, RangePlan};
use metaprep_io::ReadStore;
use metaprep_kmer::{simd, Kmer128, Kmer64};
use metaprep_obs::event::{CHECKPOINT, INDEX_CREATE, PASS_PLAN, TASK_RESTART};
use metaprep_obs::{CounterKind, MemRecorder};
use metaprep_sort::BUCKET_BYTES;
use std::path::Path;
use std::time::Duration;

/// Message type moved between simulated tasks. One enum for all phases:
/// a `TaskCtx` carries one payload type, and `benchmark/` binds
/// `run_cluster`'s `M`, so a typed channel per phase would change the
/// cluster API. The `unreachable!` arms below guard a case `drive` cannot
/// produce.
#[derive(Clone)]
enum Msg<T> {
    /// k-mer tuples (KmerGen-Comm).
    Tuples(Vec<T>),
    /// A task's components (Merge-Comm and the CC-I/O broadcast).
    Components(ComponentMsg),
}

impl<T: Send + 'static> Payload for Msg<T> {
    fn size_bytes(&self) -> usize {
        match self {
            Msg::Tuples(v) => v.size_bytes(),
            Msg::Components(c) => c.size_bytes(),
        }
    }
}

/// Everything a METAPREP run produces.
#[derive(Clone, Debug)]
pub struct PipelineResult {
    /// Component statistics of the final labeling.
    pub components: ComponentStats,
    /// Final component label per fragment (fully compressed).
    pub labels: Vec<u32>,
    /// Per-task, per-step timings plus IndexCreate.
    pub timings: StepTimings,
    /// Per-task communication volumes.
    pub comm: Vec<CommStats>,
    /// Modeled + measured per-task memory.
    pub memory: MemoryReport,
    /// Total tuples enumerated across all passes and tasks.
    pub tuples_total: u64,
    /// LocalCC counters summed over tasks and passes.
    pub localcc: LocalCcStats,
    /// K-mer occurrences dropped by the presolve filter before tuple
    /// generation (0 when the probabilistic tier is off). Conservation:
    /// `tuples_total + presolve_dropped` equals the merHist total.
    pub presolve_dropped: u64,
    /// The pass count the run actually executed — `cfg.passes` (1 when
    /// unset), or the planner's choice when only `memory_budget` was set.
    pub planned_passes: usize,
}

impl PipelineResult {
    /// Fraction of fragments in the largest component (Table 7's metric).
    pub fn largest_component_fraction(&self) -> f64 {
        self.components.largest_fraction()
    }
}

/// What IndexCreate builds: the two histogram tables, plus the presolve
/// sketch when that tier is on.
struct IndexTables {
    merhist: MerHist,
    fastqpart: FastqPart,
    sketch: Option<CountMinSketch>,
}

/// A configured METAPREP pipeline and the recorder its runs report to.
pub struct Pipeline<'r> {
    cfg: PipelineConfig,
    rec: &'r MemRecorder,
}

impl<'r> Pipeline<'r> {
    /// Create a pipeline that records nothing. The configuration is
    /// validated when a run starts.
    pub fn new(cfg: PipelineConfig) -> Self {
        Self {
            cfg,
            rec: MemRecorder::off(),
        }
    }

    /// Send the runs' telemetry to `rec`: every step of every task becomes
    /// a recorded span (the returned `StepTimings` are *derived* from those
    /// spans) and work/comm/memory counters flow into it.
    pub fn with_recorder(mut self, rec: &'r MemRecorder) -> Self {
        self.rec = rec;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// Run the full preprocessing pipeline over in-memory reads: the store
    /// is written as a FASTQ file under `std::env::temp_dir()` (so the run
    /// needs disk space for it) and run by [`Pipeline::run_fastq_file`],
    /// the path `metaprep partition` takes; the file is removed on every
    /// path out. A store whose fragments are all mate pairs runs as
    /// interleaved paired input, one whose fragments are all single reads
    /// as unpaired input. A store that mixes the two, which no FASTQ file
    /// holds, is `PipelineError::InvalidInput` naming the first sequence
    /// off the layout (`ReadStore::paired`).
    pub fn run_reads(&self, reads: &ReadStore) -> Result<PipelineResult, PipelineError> {
        self.cfg.validate()?;
        let paired = reads.paired().map_err(|i| {
            PipelineError::InvalidInput(format!(
                "sequence {i} (fragment {}) mixes mate pairs with single reads; \
                 a FASTQ file holds one or the other",
                reads.frag_id(i)
            ))
        })?;
        let spool = Spool::write(reads)?;
        self.run_fastq_file(spool.path(), paired)
    }

    /// Run the pipeline directly over a FASTQ *file*: IndexCreate scans the
    /// file once to build the chunk table, and every pass re-reads the
    /// chunks from disk — the paper's actual multi-pass I/O behaviour. Both
    /// read records in place through `metaprep_io::record_views`; no
    /// `ReadStore` is built. `paired` treats the file as interleaved mate
    /// pairs. IndexCreate is timed and recorded as one span (paper Table 5).
    pub fn run_fastq_file(
        &self,
        path: impl AsRef<Path>,
        paired: bool,
    ) -> Result<PipelineResult, PipelineError> {
        let (cfg, rec) = (&self.cfg, self.rec);
        cfg.validate()?;
        let path = path.as_ref();
        let start_ns = rec.clock().now_ns();
        let (tables, total_seqs) = index_fastq_file(path, paired, cfg, rec)?;
        let end_ns = rec.clock().now_ns();
        rec.record_driver_span(INDEX_CREATE, start_ns, end_ns);
        // Derive the duration from the span's own endpoints so a report
        // built from the exported events reproduces it exactly.
        let index_create = Duration::from_nanos(end_ns.saturating_sub(start_ns));
        let source = ChunkSource::new(path.to_path_buf(), paired, total_seqs);
        self.run(tables, &source, index_create)
    }

    /// Arm the presolve filter and run the passes over `source` with the
    /// tuple width `k` needs.
    fn run(
        &self,
        mut tables: IndexTables,
        source: &ChunkSource,
        index_create: Duration,
    ) -> Result<PipelineResult, PipelineError> {
        let (cfg, rec) = (&self.cfg, self.rec);
        let filter = tables
            .sketch
            .take()
            .zip(cfg.presolve_threshold)
            .map(|(s, t)| HighFreqFilter::new(s, t));
        let run = if cfg.k <= 32 {
            run_generic::<Kmer64>
        } else {
            run_generic::<Kmer128>
        };
        run(cfg, source, &tables, filter.as_ref(), index_create, rec)
    }
}

/// Build the index tables by scanning a FASTQ file once with the streaming
/// chunker: boundaries are located through bounded probe windows, chunks
/// are histogrammed thread-parallel from byte-range reads, and the file is
/// never materialized whole (`metaprep_index::index_fastq_file_streaming`).
/// With the presolve tier on, the same scan also feeds the count-min
/// sketch — no extra pass over the reads. The sequence count is
/// range-checked into the pipeline's 32-bit id space.
fn index_fastq_file(
    path: &Path,
    paired: bool,
    cfg: &PipelineConfig,
    rec: &MemRecorder,
) -> Result<(IndexTables, u32), PipelineError> {
    use metaprep_index::{index_fastq_file_streaming_sketched_recorded, StreamingOptions};
    let (merhist, fastqpart, total_seqs, sketch) = index_fastq_file_streaming_sketched_recorded(
        path,
        paired,
        cfg.effective_chunks(),
        cfg.k,
        cfg.m,
        StreamingOptions {
            window: cfg.index_window,
            threads: cfg.tasks * cfg.threads,
        },
        cfg.presolve_threshold.map(|_| cfg.sketch),
        rec,
    )
    .map_err(|e| PipelineError::InvalidInput(format!("index {path:?}: {e}")))?;
    let tables = IndexTables {
        merhist,
        fastqpart,
        sketch,
    };
    Ok((tables, guard_total_seqs(total_seqs, paired)?))
}

/// Checked conversion of a streamed sequence count into the pipeline's
/// 32-bit id space, the one guard of every input: an unchecked `as u32`
/// would silently wrap on >4Gi-read inputs.
fn guard_total_seqs(total_seqs: u64, paired: bool) -> Result<u32, PipelineError> {
    let fragments = if paired { total_seqs / 2 } else { total_seqs };
    if total_seqs > u32::MAX as u64 || fragments >= u32::MAX as u64 {
        return Err(PipelineError::InvalidInput(format!(
            "input has {total_seqs} sequences ({fragments} fragments); \
             fragment count must be < u32::MAX"
        )));
    }
    Ok(total_seqs as u32)
}

/// Everything about a run that every rank reads and none mutates: built
/// once by `run_generic`, borrowed by every task.
pub(crate) struct RunCtx<'a> {
    pub(crate) cfg: &'a PipelineConfig,
    pub(crate) source: &'a ChunkSource,
    pub(crate) fastqpart: &'a FastqPart,
    /// The pass/task/thread k-mer ranges. Its pass count is the one that
    /// runs — `cfg.passes`, or the planner's choice.
    pub(crate) plan: &'a RangePlan,
    /// The sort buckets of every (pass, task), derived from the plan and
    /// the global histogram — the same on every rank, so KmerGen can emit
    /// into the buckets LocalSort on the receiving rank will group.
    pub(crate) buckets: BucketPlan,
    pub(crate) filter: Option<&'a HighFreqFilter>,
    /// The backend of KmerGen's owned-k-mer kernel: [`simd::active`] in a
    /// run; the tests pin each one.
    pub(crate) simd: simd::Backend,
}

/// The merge round `rank` retires in, sending its components to
/// `rank - 2^round` (Figure 4): the lowest set bit of the rank. Rank 0
/// never retires.
fn retirement_round(rank: usize) -> Option<u32> {
    (rank > 0).then(|| rank.trailing_zeros())
}

/// The timeline of `rank` (of `tasks`) from `from` on: the remaining
/// passes, then the remaining merge rounds — all `ceil(log2 P)` of them on
/// rank 0, up to and including its retirement round on any other.
fn walk(passes: u32, tasks: usize, rank: usize, from: Boundary) -> impl Iterator<Item = Boundary> {
    let rounds =
        retirement_round(rank).map_or(tasks.next_power_of_two().trailing_zeros(), |r| r + 1);
    let (pass, round) = match from {
        Boundary::Pass(s) => (s, 0),
        Boundary::MergeRound(r) => (passes, r),
    };
    let merge = (round..rounds).map(Boundary::MergeRound);
    (pass..passes).map(Boundary::Pass).chain(merge)
}

/// A declared crash at a boundary its rank never reaches would leave the
/// run to finish without the restart it names: reject it once the pass
/// count is known.
fn check_crashes_reachable(cfg: &PipelineConfig, passes: usize) -> Result<(), PipelineError> {
    for c in cfg.fault_plan.iter().flat_map(|plan| &plan.crashes) {
        let rank = c.rank as usize;
        if !walk(passes as u32, cfg.tasks, rank, Boundary::Pass(0)).any(|b| b == c.at) {
            return Err(PipelineError::InvalidConfig(format!(
                "fault plan crashes rank {rank} at {}, a boundary it never reaches \
                 ({passes} passes, {} tasks)",
                c.at, cfg.tasks
            )));
        }
    }
    Ok(())
}

fn run_generic<K: PipelineKmer>(
    cfg: &PipelineConfig,
    source: &ChunkSource,
    tables: &IndexTables,
    filter: Option<&HighFreqFilter>,
    index_create: Duration,
    rec: &MemRecorder,
) -> Result<PipelineResult, PipelineError> {
    let (merhist, fastqpart) = (&tables.merhist, &tables.fastqpart);
    let chunk_bytes: u64 = fastqpart.chunks().iter().map(|ch| ch.spec.bytes).sum();
    // The §3.7 model's inputs, shared by the planner and the report.
    let inputs = PlanInputs {
        m: cfg.m,
        chunks: fastqpart.len(),
        threads: cfg.threads,
        avg_chunk_bytes: chunk_bytes.checked_div(fastqpart.len() as u64).unwrap_or(0),
        total_tuples: merhist.total(),
        tuple_bytes: std::mem::size_of::<K::Tuple>(),
        tasks: cfg.tasks,
        reads: u64::from(source.num_fragments()),
    };

    // ---- Pass planning: invert the §3.7 memory model for the budget ----
    let plan_t0_ns = rec.clock().now_ns();
    let passes = match (cfg.passes, cfg.memory_budget) {
        // An explicit --passes wins over the planner, but it still has to
        // fit the budget it was paired with.
        (Some(passes), Some(budget)) => {
            let modeled = inputs.modeled_at(passes);
            if modeled > budget {
                return Err(PipelineError::InvalidConfig(format!(
                    "explicit passes={passes} models {modeled} B/task, over the {budget} B \
                     memory budget; drop --passes to let the planner choose, or \
                     raise the budget"
                )));
            }
            passes
        }
        (Some(passes), None) => passes,
        (None, Some(budget)) => plan_passes(&inputs, budget)?.passes,
        (None, None) => 1,
    };
    check_crashes_reachable(cfg, passes)?;
    let plan = RangePlan::build(merhist, passes, cfg.tasks, cfg.threads);
    rec.record_driver_span(PASS_PLAN, plan_t0_ns, rec.clock().now_ns());

    let run_ctx = RunCtx {
        cfg,
        source,
        fastqpart,
        plan: &plan,
        buckets: plan.bucket_plan(
            merhist,
            (BUCKET_BYTES / std::mem::size_of::<K::Tuple>()) as u64,
        ),
        filter,
        simd: simd::active(),
    };
    let mut cluster = ClusterConfig::new(cfg.tasks, cfg.threads).with_recorder(rec);
    if let Some(ms) = cfg.watchdog_timeout_ms {
        cluster = cluster.with_watchdog_timeout(Duration::from_millis(ms));
    }
    if let Some(plan) = &cfg.fault_plan {
        cluster = cluster.with_fault_plan(plan);
    }
    let run = run_cluster(cluster, |ctx| Task::<K>::new(ctx, &run_ctx).drive());

    // ---- assemble the result ----
    // The exchange's global ledger must balance whether or not the
    // presolve filter shrank the traffic — drops happen before sends.
    debug_assert_eq!(metaprep_dist::check_conservation(&run.stats), Ok(()));
    let mut labels = None;
    let mut per_task = Vec::with_capacity(cfg.tasks);
    let mut total = Progress::default();
    for out in run.results {
        per_task.push(out.timings);
        total.tuples_emitted += out.progress.tuples_emitted;
        total.presolve_dropped += out.progress.presolve_dropped;
        total.localcc.merge(out.progress.localcc);
        total.peak_tuples = total.peak_tuples.max(out.progress.peak_tuples);
        labels = labels.or(out.labels);
    }
    // EXPECT: CC-I/O broadcasts the labels from rank 0, so exactly one task result carries `Some`.
    let labels = labels.expect("rank 0 must produce labels");
    let components = ComponentStats::from_component_array(&labels);

    // The differential guarantee of the presolve tier: every enumerated
    // k-mer occurrence was either shipped as a tuple or explicitly dropped
    // by the filter — never silently lost. A release assert, like the
    // receive-count check.
    assert_eq!(
        total.tuples_emitted + total.presolve_dropped,
        merhist.total(),
        "presolve conservation: emitted + dropped must equal the merHist total"
    );

    let mut memory = MemoryReport::model(&inputs, passes);
    memory.record_peak(total.peak_tuples, std::mem::size_of::<K::Tuple>());

    // Driver-side counters: communication volume comes from the cluster's
    // own byte/message accounting (the single source of truth — the
    // collectives record stage *spans* only), and the memory model's
    // totals ride along so a report can show modeled vs measured.
    for (task, s) in run.stats.iter().enumerate() {
        let task = task as u32;
        rec.record_counter(task, CounterKind::BytesSent, s.bytes_sent);
        rec.record_counter(task, CounterKind::MessagesSent, s.messages_sent);
        rec.record_counter(task, CounterKind::BytesReceived, s.bytes_received);
        rec.record_counter(task, CounterKind::MessagesReceived, s.messages_received);
    }
    rec.record_counter(0, CounterKind::MemModeledBytes, memory.total_modeled());
    rec.record_counter(
        0,
        CounterKind::MemPeakTupleBytes,
        memory.measured_peak_tuple_bytes,
    );
    rec.record_counter(0, CounterKind::PlannedPasses, passes as u64);
    if let Some(budget) = cfg.memory_budget {
        rec.record_counter(0, CounterKind::MemBudgetBytes, budget);
    }
    if let Some(f) = filter {
        rec.record_counter(0, CounterKind::SketchFillPermille, f.fill_ratio_permille());
    }

    Ok(PipelineResult {
        components,
        labels,
        timings: StepTimings {
            index_create,
            per_task,
        },
        comm: run.stats,
        memory,
        tuples_total: total.tuples_emitted,
        localcc: total.localcc,
        presolve_dropped: total.presolve_dropped,
        planned_passes: passes,
    })
}

/// Per-task return value from the cluster run.
struct TaskResult {
    timings: TaskTimings,
    labels: Option<Vec<u32>>,
    progress: Progress,
}

/// One rank's handles on the run, shared by the driver and every stage.
/// Its telemetry lives in the cluster context (`ctx.obs()`, `ctx.span`).
struct Task<'t, 'c, K: PipelineKmer> {
    ctx: &'t TaskCtx<'c, Msg<K::Tuple>>,
    run: &'t RunCtx<'t>,
    my_chunks: Vec<usize>,
}

impl<'t, 'c, K: PipelineKmer> Task<'t, 'c, K> {
    fn new(ctx: &'t TaskCtx<'c, Msg<K::Tuple>>, run: &'t RunCtx<'t>) -> Self {
        // Chunk ownership is round-robin over tasks (chunks are
        // size-balanced by construction, so this is the paper's static
        // assignment).
        let my_chunks = (ctx.rank()..run.fastqpart.len())
            .step_by(ctx.size())
            .collect();
        Task {
            ctx,
            run,
            my_chunks,
        }
    }

    /// The task's work: walk the boundaries from a fresh start and, each
    /// time an injected crash is due at one, drop everything the task holds
    /// and walk on from the rank's checkpoint. Crashes only ever fire at a
    /// boundary top — a quiescent point where this task owes no in-flight
    /// message — so resuming from the checkpoint written for that boundary
    /// re-sends nothing and the replay is exact.
    fn drive(&self) -> TaskResult {
        let (mut st, mut resume_at) = self.fresh();
        let mut wrote = false;
        let (passes, size, rank) = (
            self.run.plan.passes() as u32,
            self.ctx.size(),
            self.ctx.rank(),
        );
        'walk: loop {
            for boundary in walk(passes, size, rank, resume_at) {
                if self.ctx.crash_due(boundary) {
                    drop(st);
                    (st, resume_at) = self.restart(wrote);
                    continue 'walk;
                }
                // Work that changed the state names the boundary to resume
                // at and the index its checkpoint span is filed under.
                let (next, index) = match boundary {
                    Boundary::Pass(s) => {
                        self.run_pass(&mut st, s);
                        (Boundary::Pass(s + 1), s)
                    }
                    Boundary::MergeRound(r) => {
                        let mut local = st.forest.into_sequential();
                        let absorbed = self.merge_round(&mut local, r);
                        st.forest = Forest::Sequential(local);
                        if !absorbed {
                            continue;
                        }
                        (Boundary::MergeRound(r + 1), r)
                    }
                };
                if let Some(dir) = self.run.cfg.checkpoint_dir.as_deref() {
                    self.ctx.span(CHECKPOINT, None, Some(index), || {
                        // EXPECT: a checkpoint that cannot be persisted would leave a later restart silently unprotected — abort the run instead.
                        st.checkpoint(dir, rank as u32, next)
                            .expect("checkpoint write failed")
                    });
                    self.ctx.obs().add(CounterKind::CheckpointWrites, 1);
                    wrote = true;
                }
            }
            break;
        }
        let labels = self.cc_io(st.forest.into_sequential());
        TaskResult {
            // Derived from the spans, so the exported trace and the
            // in-process timings can never disagree.
            timings: TaskTimings::from_spans(self.ctx.obs().spans()),
            labels,
            progress: st.progress,
        }
    }

    /// A fresh forest at `Pass(0)`.
    fn fresh(&self) -> (TaskState<K::Tuple>, Boundary) {
        let fragments = self.run.source.num_fragments() as usize;
        (TaskState::fresh(fragments), Boundary::Pass(0))
    }

    /// After an injected crash: count the restart and reload the
    /// checkpoint this rank `wrote` in this run. Without one the crash hit
    /// the very first boundary, before any work or sends, so a fresh start
    /// IS the exact replay. Checkpoints that other runs left in the
    /// directory are never restored; this run's writes overwrite them.
    fn restart(&self, wrote: bool) -> (TaskState<K::Tuple>, Boundary) {
        self.ctx.obs().add(CounterKind::TaskRestarts, 1);
        let rank = self.ctx.rank() as u32;
        let restored = self.run.cfg.checkpoint_dir.as_deref().and_then(|dir| {
            self.ctx.span(TASK_RESTART, None, None, || {
                // EXPECT: an unreadable/corrupt checkpoint after a crash cannot be replayed safely (a from-scratch rerun would re-send consumed messages) — abort.
                wrote.then(|| TaskState::restore(dir, rank).expect("checkpoint load after restart"))
            })
        });
        restored.unwrap_or_else(|| self.fresh())
    }

    /// One pass: the stages in order, each handing its output to the next,
    /// and the running totals a checkpoint will need. The task's tuple
    /// buffer goes round with them: the previous pass's self-addressed part
    /// becomes this pass's, which the all-to-all moves back to this task;
    /// LocalSort and LocalCC read every part where it lies, and the
    /// self-addressed one is kept for the next pass. So a pass holds its
    /// received tuples, never a second pass-sized buffer.
    fn run_pass(&self, st: &mut TaskState<K::Tuple>, pass: u32) {
        let forest = st.forest.concurrent();
        let gen = self.kmergen(forest, pass, std::mem::take(&mut st.own_part));
        let emitted = tuple_count(&gen.outgoing);
        st.progress.tuples_emitted += emitted;
        st.progress.presolve_dropped += gen.dropped;

        let mut parts = self.exchange(gen.outgoing, pass);
        let received = tuple_count(&parts);
        // What a message-passing run of this pass would hold at its two
        // peaks: send buffers next to receive buffers during the all-to-all
        // (out + in), and the received parts next to a sorted copy of them
        // during LocalSort (2 * in; the per-thread grouping workspaces are
        // cache-sized and not counted). The in-process run holds less — the
        // self-addressed part is moved, never copied, and LocalSort groups
        // the parts where they lie, so the pass peaks at `in` — but the
        // formula is serialized into the checkpoints and stays. Capacity
        // the recycled buffer carries between passes is deliberately not
        // modeled — the measured allocator peak covers it.
        let peak = (emitted + received).max(2 * received);
        st.progress.peak_tuples = st.progress.peak_tuples.max(peak);

        let stats = self.local_sort_cc(forest, &parts, pass);
        st.progress.localcc.merge(stats);
        st.own_part = std::mem::take(&mut parts[self.ctx.rank()]);
    }

    /// KmerGen (+ chunk I/O): enumerate this task's tuples for `pass`,
    /// the self-addressed ones into `recycled`.
    fn kmergen(
        &self,
        forest: &ConcurrentDisjointSet,
        pass: u32,
        recycled: Vec<K::Tuple>,
    ) -> KmerGenOutput<K::Tuple> {
        let pass_start = self.ctx.obs().open();
        // LocalCC-Opt (§3.5.1): after the first pass, enumerate
        // `(k-mer, component id)` instead of `(k-mer, read id)` for
        // locality in the component array.
        let use_opt = pass > 0;
        let read_label = |frag| if use_opt { forest.find(frag) } else { frag };
        let (pool, chunks) = (self.ctx.pool(), &self.my_chunks);
        let at = (pass as usize, self.ctx.rank());
        let gen = kmergen_pass::<K>(pool, self.run, chunks, at, recycled, read_label);
        // I/O and generation interleave on every thread, so their times are
        // CPU-nanos summed across the pool, not two wall intervals. The
        // stage's wall interval is split between their spans in proportion
        // to those sums: the spans tile the stage and end where it ends.
        let mut obs = self.ctx.obs();
        let steps = [
            (Step::KmerGenIo.name(), gen.io_nanos),
            (Step::KmerGen.name(), gen.gen_nanos),
        ];
        obs.close_tiled(pass_start, &steps, Some(pass));
        obs.add(CounterKind::TuplesEmitted, tuple_count(&gen.outgoing));
        if gen.dropped > 0 {
            obs.add(CounterKind::PresolveDroppedKmers, gen.dropped);
        }
        gen
    }

    /// KmerGen-Comm: the P-stage all-to-all. Returns the per-sender
    /// buffers as received, each still grouped by this task's sort buckets.
    fn exchange(&self, outgoing: Vec<Vec<K::Tuple>>, pass: u32) -> Vec<Vec<K::Tuple>> {
        let (ctx, run) = (self.ctx, self.run);
        let parts = ctx.span(Step::KmerGenComm.name(), Some(pass), None, || {
            let outgoing = outgoing.into_iter().map(Msg::Tuples).collect();
            let parts: Vec<Vec<K::Tuple>> = alltoall(ctx, outgoing)
                .into_iter()
                .map(|msg| match msg {
                    Msg::Tuples(v) => v,
                    Msg::Components(_) => unreachable!("no components during KmerGen-Comm"),
                })
                .collect();
            let received = tuple_count(&parts);
            let rank = ctx.rank();
            let expected = expected_incoming(run.fastqpart, run.plan, pass as usize, rank);
            // A release-mode check: the FASTQPart receive-count
            // precomputation is what lets buffers be sized and scatter
            // offsets trusted, so a mismatch must abort the run. With the
            // presolve filter active the bin-granular precomputation is an
            // upper bound (drops are value-granular), so the check relaxes
            // to `<=` — the exact balance is enforced globally by the
            // driver's `emitted + dropped == enumerated` conservation
            // assert.
            let holds = match run.filter {
                Some(_) => received <= expected,
                None => received == expected,
            };
            assert!(
                holds,
                "receive-count precomputation: task {rank} pass {pass} got {received} \
                 tuples but FASTQPart predicts {expected}"
            );
            parts
        });
        ctx.obs()
            .add(CounterKind::TuplesReceived, tuple_count(&parts));
        parts
    }

    /// LocalSort + LocalCC: the parts arrive grouped by this task's sort
    /// buckets, and each thread's worker groups its buckets' tuples by
    /// k-mer and folds their implicit edges into the forest
    /// ([`bucket_walk`]). The stage's wall interval is split between the
    /// two steps' spans in proportion to the workers' summed time in each.
    fn local_sort_cc(
        &self,
        forest: &ConcurrentDisjointSet,
        parts: &[Vec<K::Tuple>],
        pass: u32,
    ) -> LocalCcStats {
        let (ctx, run) = (self.ctx, self.run);
        let open = ctx.obs().open();
        let rank = ctx.rank();
        let slots = run.buckets.task_slots(pass as usize, rank);
        let lower: Vec<<K as metaprep_kmer::Kmer>::Repr> = slots
            .clone()
            .map(|s| K::repr_from_u128(run.buckets.slot_lower_bound(s)))
            .collect();
        let first: Vec<usize> = run
            .buckets
            .thread_slots(pass as usize, rank)
            .iter()
            .map(|s| s - slots.start)
            .collect();
        let kf_filter = run.cfg.kf_filter;
        let walk = bucket_walk::<K>(ctx.pool(), forest, parts, &lower, &first, kf_filter);
        let mut obs = ctx.obs();
        let steps = [
            (Step::LocalSort.name(), walk.group_nanos),
            (Step::LocalCc.name(), walk.connect_nanos),
        ];
        obs.close_tiled(open, &steps, Some(pass));
        let stats = walk.stats;
        obs.add(CounterKind::SortElements, tuple_count(parts));
        obs.add(CounterKind::UfFinds, stats.uf.finds);
        obs.add(CounterKind::UfUnions, stats.uf.unions);
        obs.add(CounterKind::UfPathSplits, stats.uf.path_splits);
        stats
    }

    /// MergeCC round `round`: ranks `stride = 2^round` apart pair up
    /// (Figure 4); the upper one sends its components down and retires.
    /// Returns whether this rank absorbed a peer's components, i.e. whether
    /// its forest changed.
    fn merge_round(&self, local: &mut DisjointSet, round: u32) -> bool {
        let (ctx, rank, stride) = (self.ctx, self.ctx.rank(), 1usize << round);
        let (comm, merge, at) = (Step::MergeComm.name(), Step::MergeCc.name(), Some(round));
        if retirement_round(rank) == Some(round) {
            ctx.span(comm, None, at, || {
                let msg = Msg::Components(ComponentMsg::of(local));
                ctx.obs()
                    .add(CounterKind::MergeBytes, msg.size_bytes() as u64);
                ctx.send(rank - stride, msg);
            });
            false
        } else if rank + stride < ctx.size() {
            let msg = ctx.span(comm, None, at, || ctx.recv_from(rank + stride));
            ctx.obs()
                .add(CounterKind::MergeBytes, msg.size_bytes() as u64);
            ctx.span(merge, None, at, || match msg {
                Msg::Components(c) => c.absorb_into(local),
                Msg::Tuples(_) => unreachable!("no tuples during MergeCC"),
            });
            true
        } else {
            false
        }
    }

    /// CC-I/O: broadcast the final components from rank 0. Returns the
    /// labels on rank 0, from its own forest. The files are written after
    /// the run, from these labels: `output::write_partitions_streamed`
    /// walks the input file once more, `output::write_partitions` splits a
    /// resident store — outside the timed region, as in the paper's harness.
    fn cc_io(&self, mut local: DisjointSet) -> Option<Vec<u32>> {
        let ctx = self.ctx;
        ctx.span(Step::CcIo.name(), None, None, || {
            let root = ctx.rank() == 0;
            let msg = root.then(|| Msg::Components(ComponentMsg::of(&mut local)));
            broadcast(ctx, 0, msg);
            root.then(|| local.into_component_array())
        })
    }
}

/// Tuples held across a set of per-peer buffers.
fn tuple_count<T>(bufs: &[Vec<T>]) -> u64 {
    bufs.iter().map(|v| v.len() as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PipelineConfig, PipelineConfigBuilder};
    use metaprep_cc::DisjointSet;
    use metaprep_kmer::{for_each_canonical_kmer, Kmer64 as K64};
    use metaprep_synth::{simulate_community, CommunityProfile};
    use std::collections::HashMap;

    /// Brute-force reference: hash k-mers to read lists, union.
    fn reference_labels(reads: &ReadStore, k: usize, kf: Option<(u32, u32)>) -> Vec<u32> {
        if k <= 32 {
            reference_labels_of::<K64>(reads, k, kf)
        } else {
            reference_labels_of::<Kmer128>(reads, k, kf)
        }
    }

    fn reference_labels_of<K: metaprep_kmer::Kmer>(
        reads: &ReadStore,
        k: usize,
        kf: Option<(u32, u32)>,
    ) -> Vec<u32> {
        let mut groups: HashMap<K::Repr, Vec<u32>> = HashMap::new();
        for (seq, frag) in reads.iter() {
            for_each_canonical_kmer::<K>(seq, k, |v, _| {
                groups.entry(v).or_default().push(frag);
            });
        }
        let mut ds = DisjointSet::new(reads.num_fragments() as usize);
        for (_, rs) in groups {
            let freq = rs.len() as u32;
            if let Some((lo, hi)) = kf {
                if freq < lo || freq > hi {
                    continue;
                }
            }
            for w in rs.windows(2) {
                ds.union(w[0], w[1]);
            }
        }
        ds.into_component_array()
    }

    fn same_partition(a: &[u32], b: &[u32]) -> bool {
        let mut fwd = HashMap::new();
        let mut bwd = HashMap::new();
        for (&x, &y) in a.iter().zip(b) {
            if *fwd.entry(x).or_insert(y) != y || *bwd.entry(y).or_insert(x) != x {
                return false;
            }
        }
        true
    }

    fn small_reads() -> ReadStore {
        let mut p = CommunityProfile::quickstart();
        p.read_pairs = 400;
        p.species = 8;
        simulate_community(&p, 17).reads
    }

    #[test]
    fn matches_reference_single_task() {
        let reads = small_reads();
        let cfg = PipelineConfig::builder().k(21).m(6).build();
        let res = Pipeline::new(cfg).run_reads(&reads).unwrap();
        let want = reference_labels(&reads, 21, None);
        assert!(same_partition(&res.labels, &want));
    }

    #[test]
    fn matches_reference_across_configs() {
        // The label matrix: (tasks, threads) in {1, 2, 3}^2, one and three
        // passes, both tuple widths, with and without the k-mer filter,
        // each against the sequential oracle.
        let reads = small_reads();
        for k in [27, 63] {
            for kf in [None, Some((2, 6))] {
                let want = reference_labels(&reads, k, kf);
                for (p, t, s) in
                    (1..=3).flat_map(|p| (1..=3).flat_map(move |t| [1, 3].map(move |s| (p, t, s))))
                {
                    let mut cfg = PipelineConfig::builder()
                        .k(k)
                        .m(6)
                        .passes(s)
                        .tasks(p)
                        .threads(t);
                    if let Some((lo, hi)) = kf {
                        cfg = cfg.kf_filter(lo, hi);
                    }
                    let res = Pipeline::new(cfg.build()).run_reads(&reads).unwrap();
                    assert_eq!(
                        res.labels, want,
                        "k={k} kf={kf:?} S={s} P={p} T={t} disagrees with reference"
                    );
                }
            }
        }
    }

    #[test]
    fn kf_filter_matches_reference() {
        let reads = small_reads();
        let kf = (2, 10);
        let cfg = PipelineConfig::builder()
            .k(21)
            .m(6)
            .passes(2)
            .tasks(2)
            .threads(2)
            .kf_filter(kf.0, kf.1)
            .build();
        let res = Pipeline::new(cfg).run_reads(&reads).unwrap();
        let want = reference_labels(&reads, 21, Some(kf));
        assert!(same_partition(&res.labels, &want));
    }

    #[test]
    fn wide_kmers_run_and_reduce_connectivity() {
        let reads = small_reads();
        let frac = |k: usize| {
            let cfg = PipelineConfig::builder()
                .k(k)
                .m(6)
                .tasks(2)
                .threads(2)
                .build();
            Pipeline::new(cfg)
                .run_reads(&reads)
                .unwrap()
                .largest_component_fraction()
        };
        let f27 = frac(27);
        let f63 = frac(63);
        // Larger k can only remove edges (fewer shared k-mers).
        assert!(f63 <= f27 + 1e-9, "f27={f27} f63={f63}");
    }

    #[test]
    fn tuples_total_matches_kmer_count() {
        let reads = small_reads();
        let cfg = PipelineConfig::builder()
            .k(21)
            .m(6)
            .passes(2)
            .tasks(2)
            .build();
        let res = Pipeline::new(cfg).run_reads(&reads).unwrap();
        let mut count = 0u64;
        for (seq, _) in reads.iter() {
            for_each_canonical_kmer::<K64>(seq, 21, |_, _| count += 1);
        }
        assert_eq!(res.tuples_total, count);
    }

    #[test]
    fn memory_peak_decreases_with_passes() {
        let reads = small_reads();
        let peak = |s: usize| {
            let cfg = PipelineConfig::builder().k(21).m(6).passes(s).build();
            Pipeline::new(cfg)
                .run_reads(&reads)
                .unwrap()
                .memory
                .measured_peak_tuples
        };
        let p1 = peak(1);
        let p4 = peak(4);
        assert!(p4 < p1, "p1={p1} p4={p4}");
    }

    #[test]
    fn comm_bytes_zero_for_single_task() {
        let reads = small_reads();
        let cfg = PipelineConfig::builder().k(21).m(6).build();
        let res = Pipeline::new(cfg).run_reads(&reads).unwrap();
        assert_eq!(res.comm[0].bytes_sent, 0);
    }

    #[test]
    fn comm_bytes_positive_for_multi_task() {
        let reads = small_reads();
        let cfg = PipelineConfig::builder().k(21).m(6).tasks(4).build();
        let res = Pipeline::new(cfg).run_reads(&reads).unwrap();
        assert!(res.comm.iter().any(|s| s.bytes_sent > 0));
        // Every task participates in the merge or all-to-all.
        assert!(res.comm.iter().all(|s| s.messages_sent > 0));
    }

    #[test]
    fn merge_comm_goes_sparse_when_forests_touch_few_reads() {
        use metaprep_obs::{Event, MemRecorder};
        // Short reads (few k-mers each) at 2x coverage of one genome, spread
        // over many tasks: many small components, and each task's local
        // forest touches a minority of the reads, so the non-root pairs are
        // fewer bytes than the dense component array.
        let mut x = 5u64;
        let mut next = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
            x
        };
        let genome: Vec<u8> = (0..39_000)
            .map(|_| b"ACGT"[(next() >> 62) as usize])
            .collect();
        let mut reads = ReadStore::new();
        for _ in 0..3000 {
            let at = (next() >> 33) as usize % (genome.len() - 26);
            reads.push_single(&genome[at..at + 26]);
        }
        let tasks = 16;
        let cfg = PipelineConfig::builder().k(21).m(6).tasks(tasks).build();
        let rec = MemRecorder::new(tasks);
        let res = Pipeline::new(cfg)
            .with_recorder(&rec)
            .run_reads(&reads)
            .unwrap();
        assert_eq!(res.labels, reference_labels(&reads, 21, None));
        assert!((2..3000).contains(&res.components.components));
        let merge_bytes: u64 = rec
            .into_events()
            .iter()
            .filter_map(|e| match e {
                Event::Counter {
                    kind: CounterKind::MergeBytes,
                    value,
                    ..
                } => Some(*value),
                _ => None,
            })
            .sum();
        // Each of the `tasks - 1` Merge-Comm messages is counted by its
        // sender and its receiver; dense, each would be 4 bytes a read.
        let dense = 2 * (tasks as u64 - 1) * 4 * reads.num_fragments() as u64;
        assert!(
            merge_bytes < dense,
            "merge bytes {merge_bytes} >= dense {dense}"
        );
    }

    #[test]
    fn file_pipeline_matches_memory_pipeline() {
        let reads = small_reads();
        let dir = std::env::temp_dir().join("metaprep_core_filepipe_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reads.fastq");
        metaprep_io::write_fastq_path(&path, &reads).unwrap();

        let cfg = PipelineConfig::builder()
            .k(21)
            .m(6)
            .tasks(3)
            .threads(2)
            .passes(2)
            .build();
        let mem = Pipeline::new(cfg.clone()).run_reads(&reads).unwrap();
        let file = Pipeline::new(cfg).run_fastq_file(&path, true).unwrap();
        assert_eq!(file.labels.len(), mem.labels.len());
        assert!(same_partition(&file.labels, &mem.labels));
        assert_eq!(file.tuples_total, mem.tuples_total);
        // File path measures real chunk reads.
        assert!(file.timings.max_of(Step::KmerGenIo) > std::time::Duration::ZERO);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_pipeline_unpaired() {
        let reads = small_reads();
        let mut single = ReadStore::new();
        for (seq, _) in reads.iter().take(201) {
            single.push_single(seq);
        }
        let dir = std::env::temp_dir().join("metaprep_core_filepipe_unpaired");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reads.fastq");
        metaprep_io::write_fastq_path(&path, &single).unwrap();
        let cfg = PipelineConfig::builder().k(21).m(6).tasks(2).build();
        let mem = Pipeline::new(cfg.clone()).run_reads(&single).unwrap();
        let file = Pipeline::new(cfg).run_fastq_file(&path, false).unwrap();
        assert!(same_partition(&file.labels, &mem.labels));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_pipeline_missing_file_errors() {
        let cfg = PipelineConfig::builder().k(21).m(6).build();
        assert!(Pipeline::new(cfg)
            .run_fastq_file("/nonexistent/reads.fastq", true)
            .is_err());
    }

    #[test]
    fn timings_populated() {
        let reads = small_reads();
        let cfg = PipelineConfig::builder()
            .k(21)
            .m(6)
            .tasks(2)
            .threads(2)
            .build();
        let res = Pipeline::new(cfg).run_reads(&reads).unwrap();
        assert_eq!(res.timings.per_task.len(), 2);
        assert!(res.timings.index_create > std::time::Duration::ZERO);
        assert!(res.timings.max_of(Step::KmerGen) > std::time::Duration::ZERO);
        assert!(res.timings.max_of(Step::LocalSort) > std::time::Duration::ZERO);
    }

    #[test]
    fn span_derived_report_reproduces_timings_exactly() {
        // The acceptance bar for the telemetry layer: a report rebuilt
        // from the exported event stream must agree with the in-process
        // `StepTimings` to the nanosecond — both are derived from the
        // same spans, so any drift is a wiring bug.
        use metaprep_obs::export::{parse_jsonl, write_jsonl};
        use metaprep_obs::{MemRecorder, TraceAnalysis};
        let reads = small_reads();
        let cfg = PipelineConfig::builder()
            .k(21)
            .m(6)
            .tasks(3)
            .threads(2)
            .passes(2)
            .build();
        let rec = MemRecorder::new(3);
        let res = Pipeline::new(cfg)
            .with_recorder(&rec)
            .run_reads(&reads)
            .unwrap();
        // Through the JSONL file `metaprep analyze` reads.
        let events = parse_jsonl(&write_jsonl(&rec.into_events())).unwrap();
        let s = TraceAnalysis::from_events(&events);

        assert_eq!(s.tasks, 3);
        assert_eq!(
            s.index_create_ns(),
            res.timings.index_create.as_nanos() as u64
        );
        for step in Step::all() {
            let per_task = s.step_task_ns(step.name(), None).unwrap_or_default();
            for (task, tt) in res.timings.per_task.iter().enumerate() {
                let want = tt.get(step).as_nanos() as u64;
                let got = per_task.get(task).copied().unwrap_or(0);
                assert_eq!(got, want, "step {} task {task}", step.name());
            }
        }
        // Communication counters mirror the cluster's own accounting.
        for (task, cs) in res.comm.iter().enumerate() {
            let task = task as u32;
            assert_eq!(s.counter(task, CounterKind::BytesSent), cs.bytes_sent);
            assert_eq!(
                s.counter(task, CounterKind::BytesReceived),
                cs.bytes_received
            );
            assert_eq!(s.counter(task, CounterKind::MessagesSent), cs.messages_sent);
            assert_eq!(
                s.counter(task, CounterKind::MessagesReceived),
                cs.messages_received
            );
        }
        // Work and memory counters match the run's own totals.
        assert_eq!(
            s.counter_total(CounterKind::TuplesEmitted),
            res.tuples_total
        );
        assert_eq!(
            s.counter_total(CounterKind::TuplesReceived),
            res.tuples_total
        );
        assert_eq!(
            s.counter_total(CounterKind::UfUnions),
            res.localcc.uf.unions
        );
        assert_eq!(
            s.counter_total(CounterKind::MemModeledBytes),
            res.memory.total_modeled()
        );
        assert_eq!(
            s.counter_total(CounterKind::MemPeakTupleBytes),
            res.memory.measured_peak_tuple_bytes
        );
        // Per-pass breakdown covers both passes, and the rendered report
        // mentions every paper step.
        assert_eq!(s.passes(), vec![0, 1]);
        let text = s.render_report(5);
        for step in Step::all() {
            assert!(text.contains(step.name()), "report missing {}", step.name());
        }
    }

    #[test]
    fn critical_path_tiles_recorded_run_makespan_exactly() {
        // Acceptance bar for the causal-tracing layer: on a real recorded
        // partition run, the analyzer's critical path must tile the run
        // interval exactly (segment durations sum to the makespan to the
        // nanosecond), every send must pair with a recv in Lamport order,
        // and the Chrome export (now with flow events) must still pass
        // the schema validator.
        use metaprep_obs::analysis::SegmentKind;
        use metaprep_obs::export::{validate_chrome, write_chrome};
        use metaprep_obs::{Event, MemRecorder, TraceAnalysis};
        let reads = small_reads();
        let cfg = PipelineConfig::builder()
            .k(21)
            .m(6)
            .tasks(4)
            .threads(2)
            .passes(2)
            .build();
        let rec = MemRecorder::new(4);
        let res = Pipeline::new(cfg)
            .with_recorder(&rec)
            .run_reads(&reads)
            .unwrap();
        let events = rec.into_events();

        let a = TraceAnalysis::from_events(&events);
        a.check_conservation()
            .expect("every send matches exactly one recv");
        a.check_causality()
            .expect("lamport order along every channel");
        assert!(a.counter_total(CounterKind::EventsDropped) == 0 && a.warnings().is_empty());
        // Real messages moved: P-stage all-to-all × 2 passes + merge tree
        // + broadcast.
        assert!(a.pairs().len() >= 4 * 3 * 2);

        let path = a.critical_path();
        assert!(!path.is_empty());
        let sum: u64 = path.iter().map(|s| s.dur_ns()).sum();
        assert_eq!(sum, a.makespan_ns(), "critical path must tile the run");
        // The analyzer's makespan is the span-derived run interval — the
        // same spans `StepTimings` is built from. IndexCreate
        // starts at the run clock's origin on task 0.
        let span_end = events
            .iter()
            .filter_map(|e| match e {
                Event::Span(s) => Some(s.end_ns),
                _ => None,
            })
            .max()
            .unwrap();
        let span_start = events
            .iter()
            .filter_map(|e| match e {
                Event::Span(s) => Some(s.start_ns),
                _ => None,
            })
            .min()
            .unwrap();
        assert_eq!(a.makespan_ns(), span_end - span_start);
        assert!(a.makespan_ns() >= res.timings.index_create.as_nanos() as u64);

        // The path is causally contiguous: each segment hands off exactly
        // where the next begins.
        for w in path.windows(2) {
            assert_eq!(w[0].end_ns, w[1].start_ns);
        }
        // Every rank's first step waits on the driver's IndexCreate, so
        // the path holds all of it and no startup segment, whichever rank
        // the walk reaches it from.
        assert!(!path.iter().any(|s| s.kind == SegmentKind::Startup));
        let on_path = path.iter().filter(|s| s.label() == INDEX_CREATE);
        assert_eq!(
            on_path.map(|s| s.dur_ns()).sum::<u64>(),
            a.index_create_ns()
        );

        // Imbalance stats exist for the paper steps that ran everywhere.
        let imb = a.stage_imbalance();
        assert!(imb.iter().any(|s| s.stage == "KmerGen"));
        for s in &imb {
            assert!(s.factor >= 1.0, "max/mean is at least 1");
        }

        // Chrome export with flow arrows still validates.
        let chrome = write_chrome(&events);
        validate_chrome(&chrome).expect("flow events must pass the schema validator");
        assert!(chrome.contains("\"ph\":\"s\"") && chrome.contains("\"ph\":\"f\""));
        let report = a.render_report(5);
        assert!(report.contains("critical path"));
    }

    #[test]
    fn kmergen_spans_tile_their_stage_with_two_threads() {
        // KmerGen-I/O and KmerGen interleave on both threads; their spans
        // split the stage's wall interval, so a task's spans never overlap,
        // the run ends with CC-I/O and the critical path walks through
        // LocalSort instead of a KmerGen span that ran past it.
        use metaprep_obs::{Event, MemRecorder, TraceAnalysis};
        let cfg = PipelineConfig::builder()
            .k(21)
            .m(6)
            .threads(2)
            .passes(2)
            .build();
        let rec = MemRecorder::new(1);
        Pipeline::new(cfg)
            .with_recorder(&rec)
            .run_reads(&small_reads())
            .unwrap();
        let events = rec.into_events();
        let mut spans: Vec<(u64, u64, &str)> = events
            .iter()
            .filter_map(|e| match e {
                Event::Span(s) => Some((s.start_ns, s.end_ns, &*s.name)),
                _ => None,
            })
            .collect();
        spans.sort_unstable();
        // IndexCreate's own sub-spans (`index-chunking`, `index-histogram`)
        // nest inside it; every other span tiles the timeline.
        let (sub, spans): (Vec<_>, Vec<_>) =
            spans.into_iter().partition(|s| s.2.starts_with("index-"));
        let index = spans.iter().find(|s| s.2 == INDEX_CREATE).unwrap();
        assert_eq!(sub.len(), 2);
        for s in &sub {
            assert!(index.0 <= s.0 && s.1 <= index.1, "{s:?} outside {index:?}");
        }
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "{:?} overlaps {:?}", w[0], w[1]);
        }
        let (first, last) = (spans[0], spans[spans.len() - 1]);
        assert_eq!(last.2, Step::CcIo.name());
        let a = TraceAnalysis::from_events(&events);
        assert_eq!(a.makespan_ns(), last.1 - first.0);
        let on_path = |step: Step| a.critical_path().iter().any(|s| s.label() == step.name());
        assert!(on_path(Step::LocalSort) && on_path(Step::KmerGen));
    }

    #[test]
    fn file_pipeline_records_streaming_index_spans() {
        use metaprep_obs::{Event, MemRecorder};
        let reads = small_reads();
        let dir = std::env::temp_dir().join("metaprep_core_filepipe_trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reads.fastq");
        metaprep_io::write_fastq_path(&path, &reads).unwrap();
        let cfg = PipelineConfig::builder().k(21).m(6).tasks(2).build();
        let rec = MemRecorder::new(2);
        Pipeline::new(cfg)
            .with_recorder(&rec)
            .run_fastq_file(&path, true)
            .unwrap();
        let events = rec.into_events();
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                Event::Span(s) => Some(&*s.name),
                _ => None,
            })
            .collect();
        assert!(names.contains(&"IndexCreate"));
        assert!(names.contains(&"index-chunking"));
        assert!(names.contains(&"index-histogram"));
        let streamed = events.iter().any(|e| {
            matches!(e, Event::Counter { kind, value, .. }
                if *kind == CounterKind::ChunkRecordsStreamed && *value > 0)
        });
        assert!(streamed, "ChunkRecordsStreamed counter missing");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Deterministic single-thread baseline for byte-identical replay
    /// assertions: with `threads(1)` the whole run (union order, path
    /// compression, labels) is a pure function of the input.
    fn chaos_cfg() -> PipelineConfigBuilder {
        PipelineConfig::builder()
            .k(21)
            .m(6)
            .passes(2)
            .tasks(4)
            .threads(1)
    }

    #[test]
    fn faulted_runs_are_byte_identical_to_fault_free() {
        // Differential gate over four plans combining all four
        // message-fault kinds: drop (+ retry), delay, duplicate (+ dedup),
        // and reorder (+ stash). Delivery must stay exactly-once in-order,
        // so the labels must match the fault-free run BYTE for byte.
        let reads = small_reads();
        let want = Pipeline::new(chaos_cfg().build())
            .run_reads(&reads)
            .unwrap()
            .labels;
        for spec in [
            "seed=7,drop=0.05,delay=0.05,dup=0.05,reorder=0.05",
            "seed=1234,drop=0.05,delay=0.05,dup=0.05,reorder=0.05",
            "seed=1234,drop=0.08,delay=0.03,dup=0.08,reorder=0.05",
            "seed=12648430,drop=0.05,delay=0.05,dup=0.05,reorder=0.05",
        ] {
            let plan = metaprep_dist::FaultPlan::parse_spec(spec).unwrap();
            let res = Pipeline::new(chaos_cfg().fault_plan(plan).build())
                .run_reads(&reads)
                .unwrap();
            assert_eq!(res.labels, want, "{spec} changed the labels");
        }
    }

    #[test]
    fn the_plans_retry_budget_is_the_only_one() {
        // `max-retries=0` in the spec leaves no retry: every send is
        // dropped, so the first one escalates a structured report.
        let reads = small_reads();
        let plan = metaprep_dist::FaultPlan::parse_spec("seed=1,drop=1,max-retries=0").unwrap();
        let cfg = PipelineConfig::builder()
            .k(21)
            .m(6)
            .tasks(2)
            .fault_plan(plan)
            .build();
        let run = std::panic::AssertUnwindSafe(|| Pipeline::new(cfg).run_reads(&reads));
        let payload = std::panic::catch_unwind(run).unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.starts_with("FAULT REPORT"), "{msg}");
        assert!(msg.contains("exhausted 1 delivery attempts"), "{msg}");
    }

    #[test]
    fn crashed_tasks_replay_byte_identically_from_checkpoints() {
        // Mid-run crashes at a pass boundary and at two merge-round
        // boundaries (one before the rank's first absorb — restoring a
        // Pass checkpoint — and one after — restoring a Merge checkpoint),
        // plus message faults on top. The restarts must replay
        // from the checkpoints to the exact same labels.
        use metaprep_dist::{Boundary, FaultPlan};
        use metaprep_obs::{MemRecorder, TraceAnalysis};
        let reads = small_reads();
        let want = Pipeline::new(chaos_cfg().build())
            .run_reads(&reads)
            .unwrap()
            .labels;
        let dir = std::env::temp_dir().join("metaprep_core_chaos_ckpt");
        let _ = std::fs::remove_dir_all(&dir);
        let plan = FaultPlan::parse_spec("seed=42,drop=0.03,dup=0.03,reorder=0.03")
            .unwrap()
            .with_crash(1, Boundary::Pass(1))
            .with_crash(2, Boundary::MergeRound(0))
            .with_crash(2, Boundary::MergeRound(1));
        let rec = MemRecorder::new(4);
        let res = Pipeline::new(chaos_cfg().fault_plan(plan).checkpoint_dir(&dir).build())
            .with_recorder(&rec)
            .run_reads(&reads)
            .unwrap();
        assert_eq!(res.labels, want, "restarted run changed the labels");
        // Every planned crash fired and was recovered by one restart.
        let a = TraceAnalysis::from_events(&rec.into_events());
        for (rank, want) in [0u64, 1, 2, 0].into_iter().enumerate() {
            let got = a.counter(rank as u32, CounterKind::TaskRestarts);
            assert_eq!(got, want, "rank {rank} restarts");
        }
        // Checkpoints were actually written for every rank.
        for rank in 0..4 {
            assert!(
                crate::checkpoint::Checkpoint::path_for(&dir, rank).exists(),
                "rank {rank} left no checkpoint"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_crash_at_every_boundary_of_every_rank_replays_exactly() {
        // Every rank crashes once at every boundary it reaches: both
        // passes, the merge rounds it absorbs in, the idle one (rank 2 of
        // 3 at merge0) and the one it retires in. Each crash is one
        // restart from the rank's latest checkpoint, and the run must
        // still end with the fault-free labels and a causal trace.
        use metaprep_dist::FaultPlan;
        use metaprep_obs::{MemRecorder, TraceAnalysis};
        let reads = small_reads();
        let rounds: [&[&[u32]]; 2] = [&[&[0, 1], &[0], &[0, 1]], &[&[0, 1], &[0], &[0, 1], &[0]]];
        for merge_rounds in rounds {
            let tasks = merge_rounds.len();
            let want = Pipeline::new(chaos_cfg().tasks(tasks).build())
                .run_reads(&reads)
                .unwrap()
                .labels;
            let mut plan = FaultPlan::new(tasks as u64);
            for (rank, rs) in merge_rounds.iter().enumerate() {
                let passes = (0..2).map(Boundary::Pass);
                for at in passes.chain(rs.iter().map(|&r| Boundary::MergeRound(r))) {
                    plan = plan.with_crash(rank as u32, at);
                }
            }
            let dir = std::env::temp_dir().join(format!("metaprep_core_crash_all_{tasks}"));
            let _ = std::fs::remove_dir_all(&dir);
            let rec = MemRecorder::new(tasks);
            let cfg = chaos_cfg().tasks(tasks).fault_plan(plan);
            let res = Pipeline::new(cfg.checkpoint_dir(&dir).build())
                .with_recorder(&rec)
                .run_reads(&reads)
                .unwrap();
            assert_eq!(res.labels, want, "tasks={tasks}");
            let a = TraceAnalysis::from_events(&rec.into_events());
            a.check_conservation().expect("no message is sent twice");
            a.check_causality()
                .expect("lamport order survives recovery");
            for (rank, rs) in merge_rounds.iter().enumerate() {
                let boundaries = 2 + rs.len() as u64;
                let counter = |kind| a.counter(rank as u32, kind);
                assert_eq!(
                    counter(CounterKind::TaskRestarts),
                    boundaries,
                    "rank {rank}"
                );
                assert_eq!(
                    counter(CounterKind::FaultsInjected),
                    boundaries,
                    "rank {rank}"
                );
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_crash_its_rank_never_reaches_is_a_config_error() {
        // Without this check each plan below would run to completion with
        // no restart and so test nothing. The check runs once the pass
        // count is known, before any task starts.
        use metaprep_dist::FaultPlan;
        let reads = small_reads();
        let budget = plan_inputs_for(&reads, &chaos_cfg().build()).modeled_at(2);
        let planned = || {
            let b = PipelineConfig::builder().k(21).m(6).tasks(4).threads(1);
            b.memory_budget(budget)
        };
        let dir = std::env::temp_dir().join("metaprep_core_unreachable_crash");
        let _ = std::fs::remove_dir_all(&dir);
        for (cfg, spec, want) in [
            (chaos_cfg(), "crash=rank1@pass2", "rank 1 at pass2"),
            (planned(), "crash=rank3@pass2", "rank 3 at pass2"),
            (chaos_cfg(), "crash=rank1@merge1", "rank 1 at merge1"),
            (chaos_cfg(), "crash=rank0@merge2", "rank 0 at merge2"),
        ] {
            let plan = FaultPlan::parse_spec(spec).unwrap();
            let cfg = cfg.fault_plan(plan).checkpoint_dir(&dir).build();
            match Pipeline::new(cfg).run_reads(&reads) {
                Err(PipelineError::InvalidConfig(msg)) => assert!(msg.contains(want), "{msg}"),
                other => panic!("{spec}: expected InvalidConfig, got {:?}", other.is_ok()),
            }
            assert!(!dir.exists(), "{spec}: a checkpoint was written");
        }
    }

    #[test]
    fn crash_at_the_first_boundary_replays_from_scratch() {
        // A crash at Pass(0) fires before anything is sent or
        // checkpointed; the rank has written no checkpoint, so a fresh
        // start is the exact replay. The directory holds what an earlier
        // fault-free run left (every rank's final checkpoint) and a torn
        // `plan.ckpt`: the restart must read none of it.
        use metaprep_dist::{Boundary, FaultPlan};
        let reads = small_reads();
        let want = Pipeline::new(chaos_cfg().build())
            .run_reads(&reads)
            .unwrap()
            .labels;
        let dir = std::env::temp_dir().join("metaprep_core_chaos_p0");
        let _ = std::fs::remove_dir_all(&dir);
        let earlier = Pipeline::new(chaos_cfg().checkpoint_dir(&dir).build())
            .run_reads(&reads)
            .unwrap();
        assert_eq!(earlier.labels, want);
        std::fs::write(dir.join("plan.ckpt"), [0x4d; 50]).unwrap();
        let plan = FaultPlan::new(9).with_crash(3, Boundary::Pass(0));
        let res = Pipeline::new(chaos_cfg().fault_plan(plan).checkpoint_dir(&dir).build())
            .run_reads(&reads)
            .unwrap();
        assert_eq!(res.labels, want);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulted_trace_passes_strict_analysis_with_recovery_visible() {
        // The recorded trace of a faulted run must still satisfy the
        // strict analyzer invariants (conservation + causality + no
        // drops): retries re-offer the SAME logical message, so each
        // traced send still pairs with exactly one traced recv. The
        // recovery machinery must be visible in the counters.
        use metaprep_dist::{Boundary, FaultPlan};
        use metaprep_obs::{MemRecorder, TraceAnalysis};
        let reads = small_reads();
        let dir = std::env::temp_dir().join("metaprep_core_chaos_trace");
        let _ = std::fs::remove_dir_all(&dir);
        let plan = FaultPlan::parse_spec("seed=5,drop=0.08,delay=0.05,dup=0.08,reorder=0.05")
            .unwrap()
            .with_crash(1, Boundary::Pass(1));
        let rec = MemRecorder::new(4);
        let res = Pipeline::new(chaos_cfg().fault_plan(plan).checkpoint_dir(&dir).build())
            .with_recorder(&rec)
            .run_reads(&reads)
            .unwrap();
        let want = Pipeline::new(chaos_cfg().build())
            .run_reads(&reads)
            .unwrap()
            .labels;
        assert_eq!(res.labels, want);

        let events = rec.into_events();
        let a = TraceAnalysis::from_events(&events);
        a.check_conservation()
            .expect("faulted trace conserves messages after dedup");
        a.check_causality()
            .expect("lamport order survives recovery");
        assert_eq!(a.counter_total(CounterKind::EventsDropped), 0);

        assert!(
            a.counter_total(CounterKind::FaultsInjected) > 0,
            "no faults visible in the trace"
        );
        assert!(
            a.counter_total(CounterKind::RetryAttempts) > 0,
            "no retries visible in the trace"
        );
        assert!(
            a.counter_total(CounterKind::CheckpointWrites) > 0,
            "no checkpoint writes visible in the trace"
        );
        assert_eq!(
            a.counter(1, CounterKind::TaskRestarts),
            1,
            "rank 1's restart must be visible"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The exact [`PlanInputs`] `run_generic` will derive for `cfg` over
    /// `reads` — so tests can compute budgets that force a chosen pass
    /// count.
    fn plan_inputs_for(reads: &ReadStore, cfg: &PipelineConfig) -> PlanInputs {
        let c = cfg.effective_chunks();
        let mh = MerHist::build(reads, cfg.k, cfg.m);
        let fp = FastqPart::build(reads, c, cfg.k, cfg.m);
        let avg = if fp.is_empty() {
            0
        } else {
            fp.chunks().iter().map(|ch| ch.spec.bytes).sum::<u64>() / fp.len() as u64
        };
        PlanInputs {
            m: cfg.m,
            chunks: fp.len(),
            threads: cfg.threads,
            avg_chunk_bytes: avg,
            total_tuples: mh.total(),
            tuple_bytes: std::mem::size_of::<<K64 as PipelineKmer>::Tuple>(),
            tasks: cfg.tasks,
            reads: reads.num_fragments() as u64,
        }
    }

    #[test]
    fn memory_budget_engages_the_planner() {
        let reads = small_reads();
        let probe = PipelineConfig::builder()
            .k(21)
            .m(6)
            .tasks(2)
            .threads(2)
            .build();
        let inputs = plan_inputs_for(&reads, &probe);
        // A budget exactly at the 2-pass model: 1 pass must not fit, so the
        // planner has a real decision to make.
        let budget = inputs.modeled_at(2);
        assert!(inputs.modeled_at(1) > budget, "budget must discriminate");

        let cfg = PipelineConfig::builder()
            .k(21)
            .m(6)
            .tasks(2)
            .threads(2)
            .memory_budget(budget)
            .build();
        let res = Pipeline::new(cfg).run_reads(&reads).unwrap();
        assert_eq!(res.planned_passes, 2, "planner should have chosen 2 passes");
        assert!(res.memory.total_modeled() <= budget);
        // An adaptively planned run is still a correct run.
        let want = reference_labels(&reads, 21, None);
        assert!(same_partition(&res.labels, &want));
    }

    #[test]
    fn explicit_passes_over_budget_is_a_runtime_config_error() {
        let reads = small_reads();
        // --passes wins over the planner, but 1 pass can never fit a 1-byte
        // budget; the combination must be rejected, not silently ignored.
        let cfg = PipelineConfig::builder()
            .k(21)
            .m(6)
            .passes(1)
            .memory_budget(1)
            .build();
        match Pipeline::new(cfg).run_reads(&reads) {
            Err(PipelineError::InvalidConfig(msg)) => {
                assert!(msg.contains("memory budget"), "{msg}");
            }
            other => panic!(
                "expected InvalidConfig, got {:?}",
                other.map(|r| r.labels.len())
            ),
        }
    }

    #[test]
    fn presolve_filter_matches_exact_counting_oracle() {
        // The tentpole differential guarantee: a presolve run (sketch-based
        // drops BEFORE tuples exist) must produce byte-identical labels to
        // a kf-filter run (exact counting AFTER the sort) with the same
        // upper threshold, provided the sketch makes no frequency
        // false-positives at this scale — which the test verifies against
        // exact counts first, so a failure points at the right layer.
        let reads = small_reads();
        let threshold = 3u32;

        let mut truth: HashMap<u64, u64> = HashMap::new();
        for (seq, _) in reads.iter() {
            for_each_canonical_kmer::<K64>(seq, 21, |v, _| {
                *truth.entry(v).or_insert(0) += 1;
            });
        }
        let mk_cfg = || {
            PipelineConfig::builder()
                .k(21)
                .m(6)
                .passes(2)
                .tasks(2)
                .threads(1)
        };
        // The sketch the presolve run builds: one per IndexCreate worker
        // (tasks × threads of them), merged.
        let cfg = mk_cfg().build();
        let spool = Spool::write(&reads).unwrap();
        let (.., sketch) = metaprep_index::index_fastq_file_streaming_sketched_recorded(
            spool.path(),
            true,
            cfg.effective_chunks(),
            cfg.k,
            cfg.m,
            metaprep_index::StreamingOptions {
                window: cfg.index_window,
                threads: cfg.tasks * cfg.threads,
            },
            Some(cfg.sketch),
            MemRecorder::off(),
        )
        .unwrap();
        let sketch = sketch.unwrap();
        for (&v, &n) in &truth {
            assert_eq!(
                sketch.estimate(v) > u64::from(threshold),
                n > u64::from(threshold),
                "sketch misclassifies a k-mer at this scale; enlarge the default sketch"
            );
        }

        let mk = |presolve: bool| {
            let mut b = mk_cfg();
            b = if presolve {
                b.presolve_threshold(threshold)
            } else {
                b.kf_filter(1, threshold)
            };
            Pipeline::new(b.build()).run_reads(&reads).unwrap()
        };
        let pre = mk(true);
        let oracle = mk(false);
        assert!(pre.presolve_dropped > 0, "nothing was presolved away");
        assert!(
            pre.tuples_total < oracle.tuples_total,
            "presolve must shrink tuple volume ({} vs {})",
            pre.tuples_total,
            oracle.tuples_total
        );
        let total: u64 = truth.values().sum();
        assert_eq!(
            pre.tuples_total + pre.presolve_dropped,
            total,
            "conservation"
        );
        assert_eq!(pre.labels, oracle.labels, "presolve changed the labels");
        // The comm ledger still balances under a filtered exchange.
        metaprep_dist::check_conservation(&pre.comm).unwrap();
    }

    #[test]
    fn adaptive_plan_crash_restart_replays_byte_identically() {
        // A crash mid-pass under a planner-chosen pass count must restart
        // from the checkpoints and reproduce the fault-free adaptive run's
        // labels byte for byte.
        use metaprep_dist::{Boundary, FaultPlan};
        let reads = small_reads();
        let probe = chaos_cfg().build();
        let inputs = plan_inputs_for(&reads, &probe);
        let budget = inputs.modeled_at(2);
        let mk = || {
            PipelineConfig::builder()
                .k(21)
                .m(6)
                .tasks(4)
                .threads(1)
                .memory_budget(budget)
                .presolve_threshold(3)
        };
        let want = Pipeline::new(mk().build()).run_reads(&reads).unwrap();
        assert_eq!(
            want.planned_passes, 2,
            "budget should have planned 2 passes"
        );

        let dir = std::env::temp_dir().join("metaprep_core_adaptive_chaos");
        let _ = std::fs::remove_dir_all(&dir);
        let plan = FaultPlan::new(11).with_crash(1, Boundary::Pass(1));
        let res = Pipeline::new(mk().fault_plan(plan).checkpoint_dir(&dir).build())
            .run_reads(&reads)
            .unwrap();
        assert_eq!(res.labels, want.labels, "restarted adaptive run drifted");
        assert_eq!(res.planned_passes, want.planned_passes);
        assert_eq!(res.presolve_dropped, want.presolve_dropped);
        // A re-run over the same directory crashes rank 1 before it has
        // written anything: it must start fresh, not restore the
        // checkpoint the first run left.
        let plan = FaultPlan::new(11).with_crash(1, Boundary::Pass(0));
        let again = Pipeline::new(mk().fault_plan(plan).checkpoint_dir(&dir).build())
            .run_reads(&reads)
            .unwrap();
        assert_eq!(again.labels, want.labels);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic]
    fn a_chunk_histogram_that_overcounts_aborts_the_run() {
        // KmerGen sizes and lays out its send buffers from the chunk
        // histograms. One phantom k-mer leaves a one-slot gap that the
        // compaction closes, so nothing uninitialised is ever claimed — and
        // the run still must not complete: debug builds trip the per-chunk
        // conservation check, release builds the receive-count assert.
        let reads = small_reads();
        let cfg = PipelineConfig::builder().k(21).m(6).tasks(2).build();
        let merhist = MerHist::build(&reads, cfg.k, cfg.m);
        let fastqpart = FastqPart::build(&reads, cfg.effective_chunks(), cfg.k, cfg.m);
        let mut rows = fastqpart.chunks().to_vec();
        let bin = rows[1].hist.iter().position(|&n| n > 0).unwrap();
        rows[1].hist[bin] += 1;
        let tables = IndexTables {
            merhist,
            fastqpart: FastqPart::from_parts(fastqpart.space(), rows),
            sketch: None,
        };
        let spool = Spool::write(&reads).unwrap();
        let source = ChunkSource::new(spool.path().to_path_buf(), true, reads.len() as u32);
        let _ = Pipeline::new(cfg).run(tables, &source, Duration::ZERO);
    }

    #[test]
    fn a_store_mixing_pairs_and_singles_is_an_input_error_naming_the_sequence() {
        let mut reads = small_reads();
        reads.push_single(b"ACGTACGTACGTACGTACGTACGT");
        let at = reads.len() - 1;
        let cfg = PipelineConfig::builder().k(21).m(6).build();
        match Pipeline::new(cfg).run_reads(&reads) {
            Err(PipelineError::InvalidInput(msg)) => {
                assert!(msg.starts_with(&format!("sequence {at} ")), "{msg}");
                assert!(msg.contains("mixes mate pairs with single reads"), "{msg}");
            }
            other => panic!(
                "expected InvalidInput, got {:?}",
                other.map(|r| r.labels.len())
            ),
        }
    }

    #[test]
    fn an_invalid_config_is_an_error_not_a_panic() {
        let cfg = PipelineConfig::builder().k(0).build();
        assert!(matches!(
            Pipeline::new(cfg).run_reads(&small_reads()),
            Err(PipelineError::InvalidConfig(msg)) if msg == "k = 0 not in 1..=63"
        ));
    }

    #[test]
    fn empty_input() {
        let cfg = PipelineConfig::builder().k(21).m(6).build();
        let res = Pipeline::new(cfg).run_reads(&ReadStore::new()).unwrap();
        assert_eq!(res.labels.len(), 0);
        assert_eq!(res.components.components, 0);
        assert_eq!(res.tuples_total, 0);
    }

    #[test]
    fn guard_total_seqs_accepts_in_range_counts() {
        assert_eq!(guard_total_seqs(0, false).unwrap(), 0);
        assert_eq!(guard_total_seqs(0, true).unwrap(), 0);
        assert_eq!(guard_total_seqs(1_000_000, false).unwrap(), 1_000_000);
        // Largest even paired count that fits the 32-bit sequence-id space.
        let max_paired = u32::MAX as u64 - 1;
        assert_eq!(
            guard_total_seqs(max_paired, true).unwrap(),
            max_paired as u32
        );
        // Largest unpaired count: u32::MAX sequences would be u32::MAX
        // fragments, which collides with the sentinel — must be rejected,
        // one below must pass.
        assert_eq!(
            guard_total_seqs(u32::MAX as u64 - 1, false).unwrap(),
            u32::MAX - 1
        );
    }

    #[test]
    fn guard_total_seqs_rejects_overflowing_counts() {
        // Sequence count itself over u32::MAX: an unchecked `as u32` would
        // silently wrap here.
        assert!(matches!(
            guard_total_seqs(u32::MAX as u64 + 1, true),
            Err(PipelineError::InvalidInput(_))
        ));
        assert!(matches!(
            guard_total_seqs(u64::MAX, false),
            Err(PipelineError::InvalidInput(_))
        ));
        // Fragment count hitting u32::MAX exactly is also out of id space
        // (unpaired: fragments == sequences).
        assert!(guard_total_seqs(u32::MAX as u64, false).is_err());
        // Paired inputs overflow via the sequence-count check: two
        // sequences per fragment means any fragment overflow implies
        // total_seqs > u32::MAX first.
        assert!(guard_total_seqs(2 * u32::MAX as u64, true).is_err());
    }

    #[test]
    fn measured_peak_covers_outgoing_and_incoming_tuples() {
        // `peak_tuples` charges a message-passing run: distinct send and
        // receive buffers, so `out + in = 2 * pass_tuples` per pass even
        // with a single task — where this in-process run moves the one
        // buffer through the exchange and sorts in it. Counting the
        // received side alone (`pass_tuples`) would under-report the charge.
        let reads = small_reads();
        let cfg = PipelineConfig::builder().k(21).m(6).passes(2).build();
        let res = Pipeline::new(cfg).run_reads(&reads).unwrap();
        assert!(res.tuples_total > 0);

        // Pigeonhole: the heaviest of the 2 passes carries at least
        // ceil(total / 2) tuples, so the peak (2 * heaviest pass) is at
        // least tuples_total; the received side alone would be roughly
        // tuples_total / 2 on this evenly-distributed input.
        assert!(
            res.memory.measured_peak_tuples >= res.tuples_total,
            "peak {} < total {}",
            res.memory.measured_peak_tuples,
            res.tuples_total
        );

        // And the measured peak must dominate the modeled per-pass tuple
        // footprint (send + receive buffers) from the memory report.
        let modeled = res.memory.kmer_out_bytes + res.memory.kmer_in_bytes;
        assert!(
            res.memory.measured_peak_tuple_bytes >= modeled,
            "measured {} < modeled {}",
            res.memory.measured_peak_tuple_bytes,
            modeled
        );
    }

    #[test]
    fn file_pipeline_with_tiny_index_window() {
        // A window far smaller than any chunk forces the streaming probe to
        // take its doubling path; the partition must not change.
        let reads = small_reads();
        let dir = std::env::temp_dir().join("metaprep_core_filepipe_window");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reads.fastq");
        metaprep_io::write_fastq_path(&path, &reads).unwrap();
        let cfg = PipelineConfig::builder().k(21).m(6).tasks(2).build();
        let mem = Pipeline::new(cfg).run_reads(&reads).unwrap();
        let cfg_small_window = PipelineConfig::builder()
            .k(21)
            .m(6)
            .tasks(2)
            .index_window(64)
            .build();
        let file = Pipeline::new(cfg_small_window)
            .run_fastq_file(&path, true)
            .unwrap();
        assert!(same_partition(&file.labels, &mem.labels));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
