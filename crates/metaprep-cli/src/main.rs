//! `metaprep` — command-line interface to the METAPREP toolkit.
//!
//! ```text
//! metaprep simulate  --dataset hg --scale 0.5 --seed 1 --output reads.fastq
//! metaprep index     --input reads.fastq --k 27 --m 8 --chunks 64 --outdir idx/
//!                    [--threads 4]
//! metaprep partition --input reads.fastq --k 27 --tasks 4 --threads 2
//!                    [--passes 2] [--memory-budget 512M] [--presolve 50]
//!                    [--kf 10:29] [--top 4] --outdir parts/
//!                    [--fault-plan "seed=7,drop=0.05,crash=rank1@pass1"]
//!                    [--checkpoint-dir ckpt/] [--watchdog-timeout 5000]
//! metaprep analyze   --trace trace.jsonl [--top 5] [--folded stacks.txt] [--strict]
//! ```
//!
//! All FASTQ inputs are treated as interleaved paired-end unless
//! `--unpaired` is given. An input must be a regular file: every reader
//! takes it by byte range, so a pipe is an error.
//!
//! `--presolve T` drops, inside KmerGen, every k-mer whose count-min
//! estimate exceeds `T`, in `1..=254`: the sketch's 8-bit counters
//! saturate at 255.
//!
//! `partition` never holds the input: IndexCreate, every pass's chunk
//! loads and the partition writer each re-read the file and take its
//! records in place (`metaprep_io::record_views`); no `ReadStore` is
//! built. `index` is the same IndexCreate on its own.
//!
//! A subcommand rejects any option it does not read. The `METAPREP_SIMD`
//! environment variable (`auto|avx2|neon|scalar`) pins the runtime-
//! dispatched kernel family for KmerGen and FASTQ scanning — a testing
//! knob; by default the best backend the CPU supports is used.
//!
//! `index` and `partition` accept `--trace-out <path>` (plus
//! `--trace-format jsonl|chrome`): the run's spans and counters are
//! exported either as a JSONL event stream (feed it back to
//! `metaprep analyze`, which prints the whole run from one
//! `TraceAnalysis`) or as Chrome `trace_event` JSON loadable in
//! Perfetto / `chrome://tracing`.

mod args;

use args::{ArgError, Args};
use metaprep_core::{
    write_multi_partition_streamed, write_partitions_streamed, Pipeline, PipelineConfig, Step,
};
use metaprep_io::write_fastq_path;
use metaprep_obs::{export, CounterKind, Event, MemRecorder, TraceAnalysis};

fn main() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    pin_mmap_threshold();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&argv) {
        // One structured line per failure. The usage text only helps when
        // the *invocation* was wrong (an ArgError); an I/O or pipeline
        // error drowning in a usage dump — or worse, a Debug backtrace —
        // helps nobody.
        eprintln!("error: {e}");
        if e.downcast_ref::<ArgError>().is_some() {
            eprintln!();
            eprintln!("{USAGE}");
        }
        std::process::exit(1);
    }
}

/// Return freed buffers to the kernel: glibc raises its mmap threshold to
/// each mapped block it frees, so later buffers come from a heap and stay
/// resident once freed. Setting it (to glibc's starting 128 KiB) turns that
/// off (mallopt(3)). Only the binary sets this policy.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt reads two integers and sets an allocator tunable; it is safe to call at any time, from any thread.
    unsafe { mallopt(M_MMAP_THRESHOLD, 128 << 10) };
}

const USAGE: &str = "usage: metaprep <simulate|index|partition|analyze> [--options]
run `metaprep <command>` with missing options to see what each needs";

/// A subcommand's entry point.
type Command = fn(&Args) -> Result<(), Box<dyn std::error::Error>>;

fn run(argv: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse(argv)?;
    // Each subcommand with the options it reads. `partition` accepts a bare
    // `--stream` and ignores it: `benchmark/` still passes it to every run.
    let (cmd, options): (Command, &str) = match args.command.as_str() {
        "simulate" => (cmd_simulate, "dataset scale seed output"),
        "index" => (
            cmd_index,
            "input unpaired outdir trace-out trace-format k m chunks threads",
        ),
        "partition" => (
            cmd_partition,
            "input unpaired outdir trace-out trace-format k m tasks threads passes \
             memory-budget presolve kf top min-size \
             fault-plan checkpoint-dir watchdog-timeout stream",
        ),
        "analyze" => (cmd_analyze, "trace top folded strict"),
        other => return Err(Box::new(ArgError(format!("unknown subcommand {other:?}")))),
    };
    args.only(options)?;
    cmd(&args)
}

/// Trace sink requested via `--trace-out` / `--trace-format`.
struct TraceOpts {
    path: String,
    chrome: bool,
}

fn trace_opts(args: &Args) -> Result<Option<TraceOpts>, ArgError> {
    let Some(path) = args.opt("trace-out") else {
        return Ok(None);
    };
    let fmt = args.get_or("trace-format", "jsonl".to_string())?;
    let chrome = match fmt.as_str() {
        "jsonl" => false,
        "chrome" => true,
        other => {
            return Err(ArgError(format!(
                "--trace-format must be jsonl or chrome, got {other:?}"
            )))
        }
    };
    Ok(Some(TraceOpts { path, chrome }))
}

/// Drain the recorder and write the trace file. The process's VmHWM (when
/// the kernel exposes it) rides along as a counter so the report can put
/// the memory model next to a real measurement.
fn write_trace(rec: MemRecorder, opts: &TraceOpts) -> Result<(), Box<dyn std::error::Error>> {
    let mut events = rec.into_events();
    if let Some(hwm) = metaprep_obs::vm_hwm_bytes() {
        events.push(Event::Counter {
            task: 0,
            kind: CounterKind::VmHwmBytes,
            value: hwm,
        });
    }
    let text = if opts.chrome {
        export::write_chrome(&events)
    } else {
        export::write_jsonl(&events)
    };
    std::fs::write(&opts.path, text)?;
    println!(
        "wrote trace ({}) -> {}",
        if opts.chrome { "chrome" } else { "jsonl" },
        opts.path
    );
    Ok(())
}

/// `metaprep analyze --trace trace.jsonl [--top 5] [--folded stacks.txt]
/// [--strict]` — the whole run from its trace: critical path, per-step
/// times across tasks and passes, stragglers, counter totals, Gantt rows
/// and bytes over time. `--folded` additionally writes collapsed stacks
/// for flamegraph tooling; `--strict` turns an incomplete or causally
/// inconsistent trace into a non-zero exit instead of a warning.
fn cmd_analyze(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let top = args.get_or("top", 5usize)?;
    let path = args.req("trace")?;
    let src = std::fs::read_to_string(&path)?;
    // A malformed trace is bad data, not a bad invocation: one `error:`
    // line naming the file, no usage dump.
    let events = export::parse_jsonl(&src).map_err(|e| format!("{path}: {e}"))?;
    let a = TraceAnalysis::from_events(&events);

    let mut problems: Vec<String> = Vec::new();
    if let Err(e) = a.check_conservation() {
        problems.push(format!("message conservation: {e}"));
    }
    if let Err(e) = a.check_causality() {
        problems.push(format!("lamport causality: {e}"));
    }
    let dropped = a.counter_total(CounterKind::EventsDropped);
    if dropped > 0 {
        problems.push(format!(
            "trace is incomplete: {dropped} event(s) dropped by the recorder"
        ));
    }

    print!("{}", a.render_report(top));

    if let Some(folded) = args.opt("folded") {
        std::fs::write(&folded, a.folded_stacks())?;
        println!("wrote folded stacks -> {folded}");
    }

    for p in &problems {
        eprintln!("warning: {p}");
    }
    if args.flag("strict") && !problems.is_empty() {
        return Err(Box::new(ArgError(format!(
            "--strict: {} problem(s) in the trace",
            problems.len()
        ))));
    }
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    use metaprep_synth::{scaled_profile, simulate_community, DatasetId};
    let name = args.get_or("dataset", "hg".to_string())?;
    let id = match name.to_lowercase().as_str() {
        "hg" => DatasetId::Hg,
        "ll" => DatasetId::Ll,
        "mm" => DatasetId::Mm,
        "is" => DatasetId::Is,
        other => return Err(Box::new(ArgError(format!("unknown dataset {other:?}")))),
    };
    let scale = args.get_or("scale", 1.0f64)?;
    if !(scale.is_finite() && scale > 0.0) {
        return Err(Box::new(ArgError(format!(
            "--scale must be a positive number, got {scale}"
        ))));
    }
    let seed = args.get_or("seed", 42u64)?;
    let output = args.req("output")?;
    let data = simulate_community(&scaled_profile(id, scale), seed);
    write_fastq_path(&output, &data.reads)?;
    println!(
        "wrote {} ({} pairs, {} bp, {} species)",
        output,
        data.reads.num_fragments(),
        data.reads.total_bases(),
        data.genomes.len()
    );
    Ok(())
}

fn cmd_index(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    use metaprep_index::serial::{write_fastqpart, write_merhist};
    use metaprep_index::{index_fastq_file_streaming_sketched_recorded, StreamingOptions};
    let input = args.req("input")?;
    let paired = !args.flag("unpaired");
    let threads = args.get_or("threads", 0usize)?;
    // The same k / m / chunk checks `partition` runs; `--chunks 0` is
    // `partition`'s auto count.
    let cfg = PipelineConfig::builder()
        .k(args.get_or("k", 27usize)?)
        .m(args.get_or("m", 8usize)?)
        .chunks(args.get_or("chunks", 64usize)?)
        .threads(threads.max(1))
        .build();
    cfg.validate()?;
    let (k, m, chunks) = (cfg.k, cfg.m, cfg.effective_chunks());
    let opts = StreamingOptions { window: 0, threads };
    let outdir = std::path::PathBuf::from(args.get_or("outdir", "metaprep_index".to_string())?);
    let trace = trace_opts(args)?;
    // IndexCreate runs on one (driver) "task"; its sub-phases show up as
    // their own spans. The file is never materialized: memory is
    // O(window + in-flight chunk bytes) per thread.
    let rec = MemRecorder::new(1);
    let clock = rec.clock();
    let t0 = clock.now_ns();
    let (mh, fp, ..) = index_fastq_file_streaming_sketched_recorded(
        &input, paired, chunks, k, m, opts, None, &rec,
    )?;
    let t1 = clock.now_ns();
    // The whole phase as one driver-side span.
    rec.record_driver_span(metaprep_obs::event::INDEX_CREATE, t0, t1);

    if let Some(t) = &trace {
        write_trace(rec, t)?;
    }
    std::fs::create_dir_all(&outdir)?;
    write_merhist(outdir.join("merhist.bin"), &mh)?;
    write_fastqpart(outdir.join("fastqpart.bin"), &fp)?;
    println!(
        "indexed {} k-mers into {} chunks ({:.2}s) -> {}",
        mh.total(),
        fp.len(),
        std::time::Duration::from_nanos(t1 - t0).as_secs_f64(),
        outdir.display()
    );
    Ok(())
}

fn parse_kf(spec: &str) -> Result<(u32, u32), ArgError> {
    let (lo, hi) = spec
        .split_once(':')
        .ok_or_else(|| ArgError(format!("--kf expects lo:hi, got {spec:?}")))?;
    let lo = lo
        .parse()
        .map_err(|_| ArgError(format!("--kf: bad lower bound {lo:?}")))?;
    let hi = hi
        .parse()
        .map_err(|_| ArgError(format!("--kf: bad upper bound {hi:?}")))?;
    Ok((lo, hi))
}

/// Parse a byte count with an optional `K`/`M`/`G` suffix (powers of
/// 1024), e.g. `--memory-budget 512M`.
fn parse_bytes(spec: &str) -> Result<u64, ArgError> {
    let bad = || {
        ArgError(format!(
            "--memory-budget: bad byte count {spec:?} (try 512M, 2G)"
        ))
    };
    let (digits, shift) = match spec.as_bytes().last() {
        Some(b'K') | Some(b'k') => (&spec[..spec.len() - 1], 10),
        Some(b'M') | Some(b'm') => (&spec[..spec.len() - 1], 20),
        Some(b'G') | Some(b'g') => (&spec[..spec.len() - 1], 30),
        _ => (spec, 0),
    };
    let n: u64 = digits.parse().map_err(|_| bad())?;
    n.checked_shl(shift)
        .filter(|v| v >> shift == n)
        .ok_or_else(bad)
}

fn cmd_partition(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let mut b = PipelineConfig::builder()
        .k(args.get_or("k", 27usize)?)
        .m(args.get_or("m", 8usize)?)
        .tasks(args.get_or("tasks", 1usize)?)
        .threads(args.get_or("threads", 1usize)?);
    if args.opt("passes").is_some() {
        b = b.passes(args.get_or("passes", 1usize)?);
    }
    if let Some(spec) = args.opt("memory-budget") {
        b = b.memory_budget(parse_bytes(&spec)?);
        if args.opt("passes").is_some() {
            eprintln!(
                "note: both --passes and --memory-budget given; explicit --passes wins \
                 (the run fails if it does not fit the budget)"
            );
        }
    }
    if let Some(t) = args.opt("presolve") {
        let t: u32 = t
            .parse()
            .map_err(|_| ArgError(format!("--presolve: bad threshold {t:?} (1 to 254)")))?;
        b = b.presolve_threshold(t);
    }
    if let Some(spec) = args.opt("kf") {
        let (lo, hi) = parse_kf(&spec)?;
        b = b.kf_filter(lo, hi);
    }
    // Chaos / recovery knobs: a deterministic fault plan
    // (`--fault-plan "seed=7,drop=0.05,crash=rank1@pass1"`), a checkpoint
    // directory for pass-level restart, and the stall watchdog threshold.
    // The retry budget is part of the plan (`max-retries=N` in the spec).
    if let Some(spec) = args.opt("fault-plan") {
        let plan = metaprep_dist::FaultPlan::parse_spec(&spec)
            .map_err(|e| ArgError(format!("--fault-plan: {e}")))?;
        b = b.fault_plan(plan);
    }
    if let Some(dir) = args.opt("checkpoint-dir") {
        b = b.checkpoint_dir(dir);
    }
    if let Some(ms) = args.opt("watchdog-timeout") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| ArgError(format!("--watchdog-timeout: bad milliseconds {ms:?}")))?;
        b = b.watchdog_timeout_ms(ms);
    }
    let cfg = b.build();
    let outdir = args.get_or("outdir", "metaprep_parts".to_string())?;

    let trace = trace_opts(args)?;
    let tasks = cfg.tasks;
    let budgeted = cfg.memory_budget.is_some();

    // Everything is driven from the file — streaming IndexCreate, per-pass
    // chunk reads, and a partition writer that walks the file once more —
    // so the input is re-read (1 + passes + 1 times), never held: no
    // `ReadStore` exists.
    let input = args.req("input")?;
    let paired = !args.flag("unpaired");
    // Only collect events when a trace was asked for — the default path
    // keeps the pipeline's off recorder.
    let rec = trace.as_ref().map(|_| MemRecorder::new(tasks));
    let mut pipe = Pipeline::new(cfg);
    if let Some(rec) = &rec {
        pipe = pipe.with_recorder(rec);
    }
    let res = pipe.run_fastq_file(&input, paired)?;
    if let (Some(rec), Some(t)) = (rec, &trace) {
        write_trace(rec, t)?;
    }
    println!(
        "{} fragments -> {} components; largest = {:.2}% of reads",
        res.labels.len(),
        res.components.components,
        100.0 * res.largest_component_fraction()
    );
    for step in Step::all() {
        println!(
            "  {:<13} {:.3}s",
            step.name(),
            res.timings.max_of(step).as_secs_f64()
        );
    }
    // The §3.7 model next to the measured process peak (where the kernel
    // reports one), so every run shows how far apart they are.
    let peak_rss = metaprep_obs::vm_hwm_bytes()
        .map(|hwm| format!("   peak RSS {:.1} MB", hwm as f64 / 1e6))
        .unwrap_or_default();
    println!(
        "  IndexCreate   {:.3}s   comm {:.2} MB   modeled {:.1} MB/task{peak_rss}",
        res.timings.index_create.as_secs_f64(),
        res.comm.iter().map(|s| s.bytes_sent).sum::<u64>() as f64 / 1e6,
        res.memory.total_modeled() as f64 / 1e6
    );
    if budgeted || res.presolve_dropped > 0 {
        println!(
            "  presolve/plan: {} passes planned, {} k-mers dropped before tuple generation",
            res.planned_passes, res.presolve_dropped
        );
    }

    let top = args.get_or("top", 0usize)?;
    let t_output = std::time::Instant::now();
    let wrote = if top > 0 {
        let min_size = args.get_or("min-size", 2usize)?;
        let written =
            write_multi_partition_streamed(&outdir, &input, paired, &res.labels, top, min_size)?;
        let components = written.len() - 1;
        format!("wrote {components} component files + rest.fastq to {outdir}")
    } else {
        let root = res.components.largest_root;
        let [lc, other] = write_partitions_streamed(&outdir, &input, paired, &res.labels, root)?;
        format!("wrote lc.fastq ({lc} reads) and other.fastq ({other} reads) to {outdir}")
    };
    // The output step is outside the pipeline's Step table; with it on
    // stdout the lines above account for the run's wall time.
    let output_s = t_output.elapsed().as_secs_f64();
    let input_mb = std::fs::metadata(&input)?.len() as f64 / 1e6;
    println!(
        "  Output        {output_s:.3}s   {:.1} MB/s of input routed",
        input_mb / output_s.max(1e-9)
    );
    println!("{wrote}");
    Ok(())
}

#[cfg(test)]
mod tests {
    /// The process's resident set, bytes.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    fn vm_rss() -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
        line.split_whitespace()
            .nth(1)
            .unwrap()
            .parse::<u64>()
            .unwrap()
            << 10
    }

    /// Without the policy glibc serves the 2 MiB buffer from a heap once the
    /// 4 MiB one is freed, and keeps it resident after it is freed too.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[test]
    fn freed_buffers_leave_the_process() {
        super::pin_mmap_threshold();
        let before = vm_rss();
        for mib in [4, 2] {
            let buf = vec![1u8; mib << 20];
            drop(std::hint::black_box(buf));
        }
        let after = vm_rss();
        assert!(
            after <= before + (64 << 10),
            "VmRSS {before} -> {after} bytes: freed buffers stayed resident"
        );
    }
}
