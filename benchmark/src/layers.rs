//! The traced run: per-layer numbers for one workload.
//!
//! End-to-end metrics come from the untraced child processes (`session`).
//! Here the benchmark itself calls each crate's public functions, in this
//! process, and records a span around every call:
//!
//! ```text
//! walk   ⊃ io.parse, core.pipeline, core.output     (what `cmd_partition` does, in order)
//! probes ⊃ index.build, kmer.enum, dist.alltoall, sort.fused, cc.union, cc.merge
//! ```
//!
//! plus a few extra child runs (`--trace-out` for the telemetry's cost, the
//! 1-task/1-thread configuration as the speed-up base). Spans live in memory
//! and are written to `<workload>.spans.jsonl` once the workload is done.

use crate::json::{self, Value};
use crate::metrics::LayerMetrics;
use crate::session::Session;
use crate::stats::median;
use metaprep_cc::{absorb_parent_array, ConcurrentDisjointSet};
use metaprep_core::kmergen::PipelineKmer;
use metaprep_core::{partition_reads, write_partitions, Pipeline, PipelineResult, Step};
use metaprep_dist::{alltoall, run_cluster, ClusterConfig};
use metaprep_index::{index_fastq_file_streaming, RangePlan, StreamingOptions};
use metaprep_io::{parse_fastq_path, ReadStore};
use metaprep_kmer::{for_each_canonical_kmer, Kmer128, Kmer64};
use metaprep_sort::{fused_local_sort, Keyed, PassBuffers};
use std::hint::black_box;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Child runs with `--trace-out`, per workload.
const TRACED_CLI_RUNS: usize = 2;
/// Child runs of the 1×1 configuration, per workload.
const BASELINE_RUNS: usize = 3;

/// One task's tuple buffers, one per peer task.
type Buffers<T> = Vec<Vec<T>>;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Spans of one traced run, kept in memory until the run is over.
struct Tracer {
    origin: Instant,
    run_id: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new(run_id: String) -> Tracer {
        Tracer {
            origin: Instant::now(),
            run_id,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    fn open(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close the innermost open span; returns its duration in seconds.
    fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// Run `f` inside a span; returns its result and duration in seconds.
    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.open(name);
        let out = f();
        (out, self.close(id))
    }

    /// One JSON object per span; `self_ns` is the span minus its children.
    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let children: u64 = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(|c| c.end_ns - c.start_ns)
                .sum();
            let line = Value::obj([
                ("run_id", Value::str(&*self.run_id)),
                ("id", Value::Num(id as f64)),
                ("name", Value::str(s.name)),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                (
                    "self_ns",
                    Value::Num((s.end_ns - s.start_ns).saturating_sub(children) as f64),
                ),
            ]);
            text.push_str(&line.compact());
            text.push('\n');
        }
        std::fs::write(path, text)
    }
}

/// Measure every per-layer metric of the session's workload and write its
/// spans to `spans_path`. Needs the session's timed runs (the untraced
/// medians are the bases of the `obs.*` and `cli.*` metrics).
pub fn trace_workload(s: &mut Session, spans_path: &Path) -> Result<LayerMetrics, String> {
    let (Some(wall), Some(cpu)) = (s.wall_s(), s.cpu_s()) else {
        return Err("no successful timed run to compare the traced runs with".into());
    };
    let mut m = LayerMetrics::default();
    m.set("cli.cpu_s", cpu.median);

    // obs: what `--trace-out` costs, against the untraced median.
    let trace_file = s.dir.join("trace.jsonl");
    let extra = ["--trace-out".to_string(), trace_file.display().to_string()];
    let mut traced_walls = Vec::new();
    let mut trace_counts = Vec::new();
    for _ in 0..TRACED_CLI_RUNS {
        if let Some(run) = s.repetition(&extra) {
            traced_walls.push(run.child.wall_s);
            trace_counts.push(read_cli_trace(&trace_file)?);
        }
    }
    let Some(&(events, dropped)) = trace_counts.last() else {
        return Err("no --trace-out run succeeded".into());
    };
    s.require(trace_counts.iter().all(|c| *c == (events, dropped)), || {
        format!("trace event counts differ between repetitions: {trace_counts:?}")
    });
    let trace_wall = median(&traced_walls);
    m.set("obs.trace_wall_s", trace_wall);
    m.set(
        "obs.trace_overhead_pct",
        100.0 * (trace_wall - wall.median) / wall.median,
    );
    m.set("obs.trace_events", events as f64);
    m.set("obs.events_dropped", dropped as f64);

    // cli: the plain 1-task, 1-thread, 1-pass run of the same problem.
    let baseline = s.spec.baseline_1x1().partition_flags();
    let baseline_walls: Vec<f64> = (0..BASELINE_RUNS)
        .filter_map(|_| s.partition(&baseline, &[]))
        .map(|run| run.child.wall_s)
        .collect();
    if baseline_walls.is_empty() {
        return Err("no 1x1 baseline run succeeded".into());
    }
    m.set("cli.speedup_vs_1x1", median(&baseline_walls) / wall.median);

    let mut tracer = Tracer::new(format!(
        "{}-{:016x}",
        s.spec.name, s.prepared.input_fingerprint
    ));
    let in_process = walk(s, &mut m, &mut tracer).and_then(|(reads, res)| {
        if s.spec.k <= 32 {
            probes::<Kmer64>(s, &mut m, &mut tracer, &reads, &res)
        } else {
            probes::<Kmer128>(s, &mut m, &mut tracer, &reads, &res)
        }
    });
    s.attempted += 1;
    if let Err(why) = &in_process {
        s.failed += 1;
        s.problems
            .push(format!("{} in-process run: {why}", s.spec.name));
    }
    tracer
        .write_jsonl(spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    in_process?;

    m.set("cli.glue_s", wall.median - m.get("cli.walk_s"));
    let missing = m.missing();
    if !missing.is_empty() {
        return Err(format!("metrics never measured: {missing:?}"));
    }
    Ok(m)
}

/// `(events, events_dropped)` of a `--trace-out` JSONL file: one event per
/// line; the recorder reports losses as `events_dropped` counters.
fn read_cli_trace(path: &Path) -> Result<(u64, u64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut events = 0;
    let mut dropped = 0;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let event = json::parse(line)?;
        events += 1;
        if event.get("kind").and_then(Value::as_str) == Some("events_dropped") {
            dropped += event.get("value").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        }
    }
    Ok((events, dropped))
}

/// The walk: the three library calls `metaprep partition --stream` makes, in
/// its order, checked like a child run; yields the `io`, `core`, `dist` count
/// and `norm` metrics.
fn walk(
    s: &mut Session,
    m: &mut LayerMetrics,
    tr: &mut Tracer,
) -> Result<(ReadStore, PipelineResult), String> {
    let cfg = s.spec.pipeline_config();
    let input = s.prepared.input.clone();
    let input_mb = s.prepared.input_bytes as f64 / 1e6;

    let walk = tr.open("walk");
    let (reads, parse_s) = tr.timed("io.parse", || parse_fastq_path(&input, true));
    let reads = reads.map_err(|e| format!("parse {}: {e}", input.display()))?;
    let (res, pipeline_s) = tr.timed("core.pipeline", || {
        Pipeline::new(cfg.clone()).run_fastq_file(&input, true)
    });
    let res = res.map_err(|e| format!("pipeline: {e}"))?;
    let outdir = s.dir.join("walk_parts");
    let (wrote, output_s) = tr.timed("core.output", || {
        let parts = partition_reads(&reads, &res.labels, res.components.largest_root);
        write_partitions(&outdir, &parts)
    });
    tr.close(walk);
    wrote.map_err(|e| format!("write {}: {e}", outdir.display()))?;

    s.prepared.oracle.check_labels(&res.labels)?;
    let written =
        s.prepared
            .oracle
            .check_output(&s.prepared.reads, &outdir, res.components.components)?;
    let output_mb: f64 = ["lc.fastq", "other.fastq"]
        .iter()
        .filter_map(|f| std::fs::metadata(outdir.join(f)).ok())
        .map(|md| md.len() as f64 / 1e6)
        .sum();
    let _ = std::fs::remove_dir_all(&outdir);
    let same = s.reference == Some((written, res.components.components));
    s.require(same, || {
        "the in-process walk wrote other bytes than the metaprep process".into()
    });

    m.set("io.parse_s", parse_s);
    m.set_rate("io.parse_mb_per_s", input_mb, parse_s);
    m.set("core.pipeline_s", pipeline_s);
    m.set("core.output_s", output_s);
    m.set_rate("core.output_mb_per_s", output_mb, output_s);
    m.set("cli.walk_s", parse_s + pipeline_s + output_s);

    let step_s = |step: Step| res.timings.max_of(step).as_secs_f64();
    let index_create_s = res.timings.index_create.as_secs_f64();
    m.set("core.step.index_create_s", index_create_s);
    let mut steps_s = index_create_s;
    for (name, step) in [
        ("core.step.kmergen_io_s", Step::KmerGenIo),
        ("core.step.kmergen_s", Step::KmerGen),
        ("core.step.kmergen_comm_s", Step::KmerGenComm),
        ("core.step.localsort_s", Step::LocalSort),
        ("core.step.localcc_s", Step::LocalCc),
        ("core.step.merge_comm_s", Step::MergeComm),
        ("core.step.mergecc_s", Step::MergeCc),
        ("core.step.cc_io_s", Step::CcIo),
    ] {
        m.set(name, step_s(step));
        steps_s += step_s(step);
    }
    let cover = steps_s / pipeline_s;
    m.set("core.step_cover", cover);
    // KmerGen and its I/O are CPU time summed over a task's threads, and the
    // per-step maxima of several ranks need not come from one rank, so the
    // steps only have to add up to the makespan on one task with one thread.
    // (Ten seeds of `mm_1x1_s1` gave 0.89–0.92: planning, buffer teardown and
    // the cluster's thread start-up and join are in no step.)
    if cfg.tasks * cfg.threads == 1 {
        s.require((0.85..=1.05).contains(&cover), || {
            format!("core.step_cover = {cover:.3}, outside 0.85..=1.05")
        });
    }

    m.set("core.tuples_total", res.tuples_total as f64);
    m.set_rate(
        "core.mtuples_per_s",
        res.tuples_total as f64 / 1e6,
        pipeline_s,
    );
    m.set("core.planned_passes", res.planned_passes as f64);
    m.set("core.components", res.components.components as f64);
    m.set("core.lc_share", res.largest_component_fraction());
    m.set(
        "core.mem_modeled_mb",
        res.memory.total_modeled() as f64 / 1e6,
    );
    m.set(
        "core.mem_peak_tuple_mb",
        res.memory.measured_peak_tuple_bytes as f64 / 1e6,
    );

    let bytes_sent: u64 = res.comm.iter().map(|c| c.bytes_sent).sum();
    let messages_sent: u64 = res.comm.iter().map(|c| c.messages_sent).sum();
    m.set("dist.bytes_sent", bytes_sent as f64);
    m.set("dist.messages_sent", messages_sent as f64);
    m.set(
        "dist.comm_wait_share",
        (step_s(Step::KmerGenComm) + step_s(Step::MergeComm)) / pipeline_s,
    );
    if cfg.tasks == 1 {
        s.require(bytes_sent == 0 && messages_sent == 0, || {
            format!("one task sent {bytes_sent} bytes in {messages_sent} messages")
        });
    }

    m.set("norm.presolve_dropped", res.presolve_dropped as f64);
    if s.spec.presolve.is_none() {
        s.require(res.presolve_dropped == 0, || {
            format!("{} k-mers dropped with presolve off", res.presolve_dropped)
        });
    }
    Ok((reads, res))
}

/// The probes: each layer's public entry point on this workload's data, for
/// one k-mer width.
fn probes<K: PipelineKmer>(
    s: &mut Session,
    m: &mut LayerMetrics,
    tr: &mut Tracer,
    reads: &ReadStore,
    res: &PipelineResult,
) -> Result<(), String> {
    let cfg = s.spec.pipeline_config();
    let k = cfg.k;
    let input = s.prepared.input.clone();
    let input_mb = s.prepared.input_bytes as f64 / 1e6;
    let probes = tr.open("probes");

    let (indexed, build_s) = tr.timed("index.build", || {
        index_fastq_file_streaming(
            &input,
            true,
            cfg.effective_chunks(),
            k,
            cfg.m,
            StreamingOptions {
                window: cfg.index_window,
                threads: cfg.tasks * cfg.threads,
            },
        )
    });
    let (merhist, fastqpart, _) = indexed.map_err(|e| format!("index: {e}"))?;
    m.set("index.build_s", build_s);
    m.set_rate("index.scan_mb_per_s", input_mb, build_s);

    let (kmers, enum_s) = tr.timed("kmer.enum", || {
        let mut n = 0u64;
        let mut checksum = 0u128;
        for (seq, _) in reads.iter() {
            for_each_canonical_kmer::<K>(seq, k, |v, _| {
                n += 1;
                checksum = checksum.wrapping_add(K::repr_to_u128(v));
            });
        }
        black_box(checksum);
        n
    });
    m.set("kmer.kmers", kmers as f64);
    m.set("kmer.enum_s", enum_s);
    m.set_rate("kmer.enum_mkmers_per_s", kmers as f64 / 1e6, enum_s);
    m.set_rate("norm.drop_share", res.presolve_dropped as f64, kmers as f64);
    let oracle_kmers = s.prepared.oracle.kmers;
    s.require(
        kmers == oracle_kmers && res.tuples_total + res.presolve_dropped == kmers,
        || {
            format!(
                "k-mer accounting: enumerated {kmers}, oracle {oracle_kmers}, pipeline {} tuples \
                 + {} dropped",
                res.tuples_total, res.presolve_dropped
            )
        },
    );

    // Pass 0's tuples as KmerGen hands them to the all-to-all: row = sending
    // task (chunks are dealt round-robin), column = owning task.
    let p = cfg.tasks;
    let plan = RangePlan::build(&merhist, res.planned_passes, p, cfg.threads);
    let (pass_lo, pass_hi) = plan.pass_range(0);
    let mut rows: Vec<Buffers<K::Tuple>> = (0..p).map(|_| vec![Vec::new(); p]).collect();
    for (c, chunk) in fastqpart.chunks().iter().enumerate() {
        let first = chunk.spec.first_seq as usize;
        for i in first..first + chunk.spec.seqs as usize {
            let frag = reads.frag_id(i);
            for_each_canonical_kmer::<K>(reads.seq(i), k, |v, _| {
                let value = K::repr_to_u128(v);
                if (pass_lo..pass_hi).contains(&value) {
                    rows[c % p][plan.owner_task(0, value)].push(K::make_tuple(v, frag));
                }
            });
        }
    }

    // dist: the P-stage all-to-all over those buffers; rank 0's receive
    // side is what LocalSort gets.
    let parts: Buffers<K::Tuple> = if p >= 2 {
        let moved_mb = rows
            .iter()
            .enumerate()
            .flat_map(|(from, row)| row.iter().enumerate().filter(move |(to, _)| *to != from))
            .map(|(_, buf)| std::mem::size_of_val(&buf[..]) as f64 / 1e6)
            .sum();
        let rows: Vec<Mutex<Option<Buffers<K::Tuple>>>> =
            rows.into_iter().map(|r| Mutex::new(Some(r))).collect();
        let (run, alltoall_s) = tr.timed("dist.alltoall", || {
            run_cluster::<Vec<K::Tuple>, Buffers<K::Tuple>, _>(ClusterConfig::new(p, 1), |ctx| {
                let outgoing = rows[ctx.rank()]
                    .lock()
                    .expect("no rank panics while holding its row")
                    .take()
                    .expect("the cluster runs each rank once");
                alltoall(ctx, outgoing)
            })
        });
        m.set("dist.alltoall_s", alltoall_s);
        m.set_rate("dist.alltoall_mb_per_s", moved_mb, alltoall_s);
        run.results
            .into_iter()
            .next()
            .expect("the cluster has a rank 0")
    } else {
        m.set("dist.alltoall_s", 0.0);
        m.set("dist.alltoall_mb_per_s", 0.0);
        rows.swap_remove(0)
    };

    // sort: rank 0 / pass 0, on as many threads as the workload gives a task.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(cfg.threads)
        .build()
        .map_err(|e| format!("thread pool: {e:?}"))?;
    let boundaries: Vec<K::Repr> = plan
        .thread_boundaries(0, 0)
        .into_iter()
        .map(K::repr_from_u128)
        .collect();
    let tuples: usize = parts.iter().map(Vec::len).sum();
    let mut bufs = PassBuffers::<K::Tuple>::new();
    let (sorted, sort_s) = tr.timed("sort.fused", || {
        pool.install(|| {
            fused_local_sort(
                parts,
                &mut bufs,
                &boundaries,
                cfg.sort_digit_bits,
                2 * k as u32,
            )
        })
    });
    m.set("sort.tuples", tuples as f64);
    m.set("sort.fused_s", sort_s);
    m.set_rate("sort.fused_mtuples_per_s", tuples as f64 / 1e6, sort_s);
    m.set("sort.radix_passes_run", sorted.stats.passes_run as f64);
    m.set(
        "sort.radix_passes_pruned",
        sorted.stats.passes_pruned as f64,
    );
    // Rank 0 / pass 0 holds about one (passes × tasks)-th of the tuples —
    // all of them when there is one of each; presolve can only shrink it.
    let share = tuples as f64 * (res.planned_passes * p) as f64 / kmers.max(1) as f64;
    let consistent = if res.planned_passes * p == 1 && s.spec.presolve.is_none() {
        tuples as u64 == res.tuples_total
    } else {
        (0.5..=2.0).contains(&share)
    };
    s.require(consistent, || {
        format!(
            "sort.tuples = {tuples} does not fit core.tuples_total = {} over {} passes × {p} tasks",
            res.tuples_total, res.planned_passes
        )
    });

    // cc: the star edges LocalCC derives from the sorted tuples.
    let sorted_tuples = &bufs.sorted()[..tuples];
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut i = 0;
    while i < sorted_tuples.len() {
        let key = sorted_tuples[i].key();
        let mut j = i + 1;
        while j < sorted_tuples.len() && sorted_tuples[j].key() == key {
            j += 1;
        }
        let freq = (j - i) as u32;
        if cfg
            .kf_filter
            .is_none_or(|(lo, hi)| (lo..=hi).contains(&freq))
        {
            let anchor = K::tuple_read(&sorted_tuples[i]);
            edges.extend(
                sorted_tuples[i + 1..j]
                    .iter()
                    .map(|t| (anchor, K::tuple_read(t)))
                    .filter(|(a, r)| a != r),
            );
        }
        i = j;
    }
    let fragments = reads.num_fragments() as usize;
    let forest = ConcurrentDisjointSet::new(fragments);
    let (_, union_s) = tr.timed("cc.union", || {
        pool.install(|| forest.process_edges_parallel(&edges))
    });
    let roots = forest
        .to_component_array()
        .iter()
        .enumerate()
        .filter(|(v, root)| *v as u32 == **root)
        .count();
    let unions = fragments - roots;
    m.set("cc.edges", edges.len() as f64);
    m.set("cc.unions", unions as f64);
    m.set_rate("cc.useful_ratio", unions as f64, edges.len() as f64);
    m.set("cc.union_s", union_s);
    m.set_rate("cc.union_medges_per_s", edges.len() as f64 / 1e6, union_s);

    // MergeCC's kernel: two tasks that each saw half the edges.
    let (first_half, second_half) = edges.split_at(edges.len() / 2);
    let local = ConcurrentDisjointSet::new(fragments);
    local.process_edges_serial(first_half);
    let mut local = local.into_disjoint_set();
    let remote = ConcurrentDisjointSet::new(fragments);
    remote.process_edges_serial(second_half);
    let remote = remote.to_component_array();
    let (_, merge_s) = tr.timed("cc.merge", || absorb_parent_array(&mut local, &remote));
    black_box(&local);
    m.set("cc.merge_s", merge_s);
    m.set_rate("cc.merge_mverts_per_s", fragments as f64 / 1e6, merge_s);

    tr.close(probes);
    Ok(())
}
