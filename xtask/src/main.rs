//! `cargo xtask` — repo automation for METAPREP.
//!
//! Subcommands:
//!
//! * `check` — the full static gate: the custom concurrency/safety lint
//!   pass (below), the forbidden-names table (`forbidden.rs`: names of
//!   removed designs that must not come back, each with the directories it
//!   is searched in), `cargo fmt --check`, `cargo clippy -D warnings`, and a
//!   `cargo check` of the standalone `benchmark/` package (its own
//!   workspace, so nothing else compiles it against the crates' API);
//!   `--miri` / `--tsan` additionally run the gated dynamic checkers
//!   when the toolchain provides them (skipped with a notice otherwise).
//! * `lint` — just the custom lint pass.
//! * `bench-smoke` — runs every experiment of the `SMOKE_RUNS` table at
//!   smoke scale, checks the shape of the `target/BENCH_*.json` artifact
//!   each writes and applies its `BENCH_METRICS` gates, and finally traces
//!   a `metaprep partition` run (`target/BENCH_trace.{jsonl,json}`) and
//!   runs `metaprep analyze --strict` over it (causal-analysis gate:
//!   matched send/recv edges, a non-empty critical path and the per-pass
//!   breakdown; saved as `target/BENCH_analysis.txt`); CI uploads all of
//!   them as artifacts so the perf and model-checking trajectories
//!   accumulate per commit. Fault recovery and trace fidelity are `cargo
//!   test` guarantees, not smoke gates.
//! * `bench-diff` — compare the current `target/BENCH_*.json` against a
//!   baseline (`--baseline <dir>` holding the same files, e.g. a copy of
//!   another checkout's `target/BENCH_*.json`), print a per-metric delta
//!   table, and fail any metric that trips the same absolute gate
//!   `bench-smoke` enforces.
//!
//! The custom pass is a line scanner (no rustc plumbing, no external
//! deps) enforcing three policies on workspace sources:
//!
//! 1. **Ordering audit** — `Ordering::Relaxed` / `Ordering::SeqCst`
//!    (and every other explicit ordering) outside the audited `sync`
//!    shim modules must carry a `// ORDERING:` justification within the
//!    three preceding lines. The loom shim explores sequential
//!    consistency only, so ordering choices are exactly the part of the
//!    concurrency story the model checker does NOT cover — they must be
//!    argued in source.
//! 2. **SAFETY audit** — every `unsafe` block/fn/impl needs a
//!    `// SAFETY:` comment within the three preceding lines (or on the
//!    same line).
//! 3. **No silent panics in pipeline code** — `.unwrap()` outside
//!    `#[cfg(test)]` modules in library crates must either become error
//!    handling or carry an `// UNWRAP:` justification. Bench/CLI driver
//!    crates, tests, benches, and examples are exempt.
//! 4. **No bare `.expect(` in pipeline code** — the message names the
//!    invariant, but not why it holds; an `// EXPECT:` comment within
//!    the justification window must argue it (same exemptions as the
//!    unwrap lint).
//!
//! The scanned set covers the workspace crates plus `vendor/loom/src`
//! — the model checker's own scheduler is concurrency-critical code
//! and carries the same ORDERING/SAFETY audit obligations.

mod forbidden;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Files whose ordering choices are audited as a unit (the sync shims
/// that concentrate the workspace's atomics behind one reviewed API).
const ORDERING_AUDITED: &[&str] = &[
    "crates/metaprep-cc/src/sync.rs",
    "crates/metaprep-dist/src/sync.rs",
    "crates/metaprep-sort/src/sync.rs",
];

/// Crates whose `src/` counts as pipeline code for the unwrap lint.
/// Driver/harness crates (bench, cli) are deliberately absent.
const PIPELINE_CRATES: &[&str] = &[
    "metaprep-kmer",
    "metaprep-io",
    "metaprep-synth",
    "metaprep-index",
    "metaprep-sort",
    "metaprep-cc",
    "metaprep-dist",
    "metaprep-core",
    "metaprep-kmc",
    "metaprep-assembly",
    "metaprep-obs",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("check");
    let flags: Vec<&str> = args.iter().skip(1).map(String::as_str).collect();
    match cmd {
        "lint" => run_lint_pass(),
        "check" => run_check(&flags),
        "bench-smoke" => run_bench_smoke(),
        "bench-diff" => run_bench_diff(&flags),
        "help" | "--help" | "-h" => {
            eprintln!(
                "usage: cargo xtask [check|lint|bench-smoke|bench-diff] \
                 [--miri] [--tsan] [--skip-clippy] [--skip-fmt] \
                 [--baseline <dir>]"
            );
            ExitCode::SUCCESS
        }
        other => {
            eprintln!(
                "xtask: unknown command `{other}` \
                 (try `check`, `lint`, `bench-smoke`, or `bench-diff`)"
            );
            ExitCode::FAILURE
        }
    }
}

fn run_check(flags: &[&str]) -> ExitCode {
    let mut failed = false;

    eprintln!("== xtask: custom lint pass ==");
    failed |= run_lint_pass() != ExitCode::SUCCESS;

    eprintln!("== xtask: forbidden names ==");
    let hits = forbidden::check(&workspace_root());
    if hits > 0 {
        eprintln!("xtask: {hits} forbidden name(s)");
        failed = true;
    }

    if !flags.contains(&"--skip-fmt") {
        eprintln!("== xtask: cargo fmt --check ==");
        failed |= !run_cargo(&["fmt", "--all", "--check"]);
    }

    if !flags.contains(&"--skip-clippy") {
        eprintln!("== xtask: cargo clippy -D warnings ==");
        failed |= !run_cargo(&[
            "clippy",
            "--workspace",
            "--all-targets",
            "--",
            "-D",
            "warnings",
        ]);
    }

    // The benchmark is its own workspace: neither the root build, the lint
    // walk nor Tier-1 compiles it, so an API break against it shows here.
    eprintln!("== xtask: cargo check benchmark/ ==");
    let manifest = workspace_root().join("benchmark").join("Cargo.toml");
    failed |= !run_cargo(&[
        "check",
        "--offline",
        "--manifest-path",
        &manifest.to_string_lossy(),
    ]);

    if flags.contains(&"--miri") {
        eprintln!("== xtask: miri (gated) ==");
        if tool_available(&["miri", "--version"]) {
            failed |= !run_cargo(&["miri", "test", "-p", "metaprep-cc", "--lib"]);
        } else {
            eprintln!("xtask: miri unavailable on this toolchain — skipped");
        }
    }

    if flags.contains(&"--tsan") {
        eprintln!("== xtask: thread sanitizer (gated) ==");
        if nightly_available() {
            let status = Command::new("cargo")
                .args(["+nightly", "test", "-p", "metaprep-cc", "--lib"])
                .env("RUSTFLAGS", "-Zsanitizer=thread")
                .status();
            failed |= !matches!(status, Ok(s) if s.success());
        } else {
            eprintln!("xtask: nightly toolchain unavailable — TSan skipped");
        }
    }

    if failed {
        eprintln!("xtask check: FAILED");
        ExitCode::FAILURE
    } else {
        eprintln!("xtask check: ok");
        ExitCode::SUCCESS
    }
}

/// One experiment `bench-smoke` runs and the artifact it must write.
struct SmokeRun {
    /// The experiment's name, as `exp <name>` takes it; the smoke section
    /// is named after it.
    name: &'static str,
    /// `METAPREP_SCALE` for the run (`None`: the experiment takes no scale).
    scale: Option<&'static str>,
    /// Artifact file name under `target/` (passed as `METAPREP_BENCH_OUT`);
    /// its gates are the [`BENCH_METRICS`] rows naming it.
    artifact: &'static str,
    /// Substrings the artifact must contain (report shape).
    needles: &'static [&'static str],
}

/// Every experiment asserts its own invariants before writing its
/// artifact (byte-identical sort output, checksum-equal enumeration); the
/// smoke re-checks shape and gates from the JSON so a regression fails
/// even if an experiment's assert is edited away.
const SMOKE_RUNS: &[SmokeRun] = &[
    SmokeRun {
        name: "index_create",
        scale: Some("0.05"),
        artifact: "BENCH_index.json",
        needles: &[
            "\"index_create\"",
            "\"runs\"",
            "\"stream-t4\"",
            "\"view_scan_over_parse\"",
        ],
    },
    SmokeRun {
        name: "sort_throughput",
        scale: Some("0.05"),
        artifact: "BENCH_sort.json",
        needles: &[
            "\"sort_throughput\"",
            "\"radix_passes_pruned\"",
            "\"in_bucket_dup\"",
            "\"in_bucket_distinct\"",
        ],
    },
    SmokeRun {
        name: "kmergen",
        scale: Some("0.2"),
        artifact: "BENCH_kmergen.json",
        needles: &[
            "\"kmergen\"",
            "\"backend\"",
            "\"classify\"",
            "\"scan\"",
            "\"emit\"",
            "\"owned\"",
        ],
    },
    SmokeRun {
        name: "loom_dpor",
        scale: None,
        artifact: "BENCH_loom.json",
        needles: &["\"loom_dpor\"", "\"models\"", "\"schedules_explored\""],
    },
    SmokeRun {
        name: "presolve",
        scale: Some("0.05"),
        artifact: "BENCH_presolve.json",
        needles: &[
            "\"presolve\"",
            "\"threshold\"",
            "\"budget-planned\"",
            "\"sketch_index_over_plain\"",
        ],
    },
];

/// Run every [`SMOKE_RUNS`] experiment at smoke scale and gate its
/// artifact, then trace a real `metaprep partition` and analyze it.
fn run_bench_smoke() -> ExitCode {
    let target = workspace_root().join("target");
    let outcome = SMOKE_RUNS
        .iter()
        .try_for_each(|run| smoke_run(&target, run))
        .and_then(|()| smoke_trace(&target));
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("xtask bench-smoke: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn smoke_run(target: &Path, run: &SmokeRun) -> Result<(), String> {
    let out = target.join(run.artifact);
    std::fs::remove_file(&out).ok();
    eprintln!("== xtask: bench smoke ({}) ==", run.name);
    let mut cmd = Command::new("cargo");
    cmd.args([
        "run",
        "--release",
        "-p",
        "metaprep-bench",
        "--bin",
        "exp",
        "--",
    ])
    .arg(run.name)
    .env("METAPREP_BENCH_OUT", &out);
    if let Some(scale) = run.scale {
        cmd.env("METAPREP_SCALE", scale);
    }
    if !matches!(cmd.status(), Ok(s) if s.success()) {
        return Err(format!("exp {} failed", run.name));
    }
    let Ok(json) = std::fs::read_to_string(&out) else {
        return Err(format!("{} was not written", out.display()));
    };
    if let Some(needle) = run.needles.iter().find(|n| !json.contains(**n)) {
        return Err(format!("{} missing {needle}", out.display()));
    }
    for m in BENCH_METRICS.iter().filter(|m| m.artifact == run.artifact) {
        match m.check(&json) {
            (_, Gate::Pass) => {}
            (_, Gate::Waived) => eprintln!("xtask bench-smoke: {} gate waived", m.key),
            (value, _) => {
                return Err(format!(
                    "{}: {} is {value:?}, gate is {}",
                    run.artifact,
                    m.key,
                    m.gate_str()
                ));
            }
        }
    }
    eprintln!("xtask bench-smoke: ok ({})", out.display());
    Ok(())
}

/// The release `metaprep` of this checkout run with the space-separated
/// `words`, then `paths` as they are: its stdout, or an error with its
/// stderr.
fn metaprep(words: &str, paths: &[&str]) -> Result<Vec<u8>, String> {
    let output = Command::new("cargo")
        .args(["run", "--release", "-p", "metaprep-cli", "--"])
        .args(words.split(' ').chain(paths.iter().copied()))
        .output()
        .map_err(|_| "failed to launch metaprep".to_string())?;
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        return Err(format!("metaprep {words} {paths:?} failed\n{stderr}"));
    }
    Ok(output.stdout)
}

/// Trace the path the CLI runs: `metaprep simulate`, then `metaprep
/// partition` (4 tasks x 2 threads x 2 passes) once with a JSONL trace and
/// once with a Chrome one, `target/BENCH_trace.{jsonl,json}`. The Chrome
/// trace must hold spans, named tasks and flow arrows. `metaprep analyze
/// --strict` must digest the JSONL (schema problems, unmatched edges or an
/// empty critical path all exit non-zero) and print a critical path with
/// segments and the per-pass breakdown; its stdout lands in
/// `target/BENCH_analysis.txt`.
fn smoke_trace(target: &Path) -> Result<(), String> {
    eprintln!("== xtask: bench smoke (metaprep partition --trace-out, analyze --strict) ==");
    let path = |name: &str| target.join(name).to_string_lossy().into_owned();
    let (reads, parts) = (path("BENCH_reads.fastq"), path("BENCH_parts"));
    let (jsonl, chrome) = (path("BENCH_trace.jsonl"), path("BENCH_trace.json"));
    let artifact = path("BENCH_analysis.txt");
    // A stale trace from an earlier run must not satisfy the checks.
    for stale in [&jsonl, &chrome, &artifact] {
        std::fs::remove_file(stale).ok();
    }
    let simulate = "simulate --dataset is --scale 0.05 --seed 404 --output";
    metaprep(simulate, &[&reads])?;
    let partition = "partition --k 21 --m 6 --tasks 4 --threads 2 --passes 2 --input";
    let run = [&reads[..], "--outdir", &parts, "--trace-out"];
    metaprep(partition, &[&run[..], &[&jsonl]].concat())?;
    let as_chrome = [&chrome[..], "--trace-format", "chrome"];
    metaprep(partition, &[&run[..], &as_chrome].concat())?;
    let trace =
        std::fs::read_to_string(&chrome).map_err(|_| format!("{chrome} was not written"))?;
    let needles = [
        "\"traceEvents\"",
        "\"process_name\"",
        "\"ph\":\"X\"",
        "\"ph\":\"s\"",
        "\"ph\":\"f\"",
    ];
    if let Some(needle) = needles.iter().find(|n| !trace.contains(**n)) {
        return Err(format!("{chrome} missing {needle}"));
    }
    let report = metaprep("analyze --strict --trace", &[&jsonl])?;
    std::fs::write(&artifact, &report).map_err(|_| format!("could not write {artifact}"))?;
    let report = String::from_utf8_lossy(&report);
    if !report.contains("critical path") || report.contains("critical path — 0 segment(s)") {
        return Err(format!("{artifact} has no critical path"));
    }
    if !report.contains("per-pass breakdown") {
        return Err(format!("{artifact} has no per-pass breakdown"));
    }
    eprintln!("xtask bench-smoke: ok ({artifact})");
    Ok(())
}

/// One gated metric of a bench artifact: `bench-smoke` enforces the gate,
/// `bench-diff` adds the baseline delta next to it.
struct BenchMetric {
    /// Artifact file name under `target/`.
    artifact: &'static str,
    /// JSON key of the gated number (quoted, as stored).
    key: &'static str,
    /// `true` when larger values are better (speedup ratios).
    higher_is_better: bool,
    /// The absolute gate a current value must stay on the right side of.
    gate: f64,
    /// Substring of the artifact that disables the gate (e.g. the SIMD
    /// speedup gate is meaningless on a scalar-only box).
    gate_waiver: Option<&'static str>,
}

/// What a metric's gate says about an artifact.
enum Gate {
    /// The key is not in the artifact.
    Missing,
    Waived,
    Pass,
    Fail,
}

impl BenchMetric {
    /// Read this metric from the artifact `text` and judge it.
    fn check(&self, text: &str) -> (Option<f64>, Gate) {
        let Some(v) = json_number(text, self.key) else {
            return (None, Gate::Missing);
        };
        if self.gate_waiver.is_some_and(|w| text.contains(w)) {
            return (Some(v), Gate::Waived);
        }
        let in_bound = if self.higher_is_better {
            v >= self.gate
        } else {
            v <= self.gate
        };
        (Some(v), if in_bound { Gate::Pass } else { Gate::Fail })
    }

    fn gate_str(&self) -> String {
        let op = if self.higher_is_better { ">=" } else { "<=" };
        format!("{op}{}", self.gate)
    }
}

const BENCH_METRICS: &[BenchMetric] = &[
    // One `parse_fastq` -> `ReadStore` (+ drop) over one bare `record_views`
    // walk of the same bytes (the parse is that walk plus the store it
    // fills): what IndexCreate and every KmerGen-I/O pass save by never
    // building a store (2-core VM, ten runs each: 5.2-6.1x at smoke scale,
    // 4.7-8.2x at scale 1; 6.7-7.8x while the parse had its own line reader).
    BenchMetric {
        artifact: "BENCH_index.json",
        key: "\"view_scan_over_parse\"",
        higher_is_better: true,
        gate: 2.0,
        gate_waiver: None,
    },
    // The digit windows LocalSort's bucket sweep let the in-bucket sorts
    // skip (the bucketed side of the in-bucket probes: every bucket's keys
    // share their top digit, so at least one window per bucket).
    BenchMetric {
        artifact: "BENCH_sort.json",
        key: "\"bucketed_radix_passes_pruned\"",
        higher_is_better: true,
        gate: 1.0,
        gate_waiver: None,
    },
    // LocalSort's in-bucket sort vs the pruned LSB radix it replaced, on
    // 32 copies of one 21 845-tuple bucket (any scale, one thread; median
    // of 20 paired rounds). With about 7 tuples per k-mer, as on MM, the
    // rank sort runs and only a seventh of the tuples go through the digit
    // passes (observed 1.44-1.51x).
    BenchMetric {
        artifact: "BENCH_sort.json",
        key: "\"rank_over_radix_dup\"",
        higher_is_better: true,
        gate: 1.3,
        gate_waiver: None,
    },
    // The adverse case, all keys distinct: the table pass gives up half
    // way through one bucket in eight and the rest go straight to the
    // radix (observed 0.93-0.98x). The gate keeps the cost visible;
    // `hg_k63_budget` (94 % distinct) is its end-to-end control.
    BenchMetric {
        artifact: "BENCH_sort.json",
        key: "\"rank_over_radix_distinct\"",
        higher_is_better: true,
        gate: 0.8,
        gate_waiver: None,
    },
    // Dispatched SIMD KmerGen vs scalar (observed smoke ratios: 1.3-1.6x
    // on AVX2). On scalar-only boxes — and in the scalar-forced CI job,
    // which runs with METAPREP_SIMD=scalar — the ratio is 1.0 by
    // construction, so only the report shape is checked.
    BenchMetric {
        artifact: "BENCH_kmergen.json",
        key: "\"dispatched_over_scalar\"",
        higher_is_better: true,
        gate: 1.2,
        gate_waiver: Some("\"backend\": \"scalar\""),
    },
    // The owned-k-mer kernel a multi-pass KmerGen runs, best backend vs its
    // branch-free scalar form, keeping a quarter of the k-mers (observed
    // 1.4-1.7x on AVX2). Waived where that kernel is the scalar form (a
    // scalar box, and NEON, which resolves to it).
    BenchMetric {
        artifact: "BENCH_kmergen.json",
        key: "\"owned_quarter_over_scalar\"",
        higher_is_better: true,
        gate: 1.3,
        gate_waiver: Some("\"owned_backend\": \"scalar\""),
    },
    // DPOR on the 3-task all-to-all round: >= 100x reduction vs the
    // ~3.35M brute-force schedules.
    BenchMetric {
        artifact: "BENCH_loom.json",
        key: "\"alltoall3_explored\"",
        higher_is_better: false,
        gate: 33_500.0,
        gate_waiver: None,
    },
    // Probabilistic presolve: the tier must cut the deterministic peak
    // (max packed tuple bytes resident on any task in any pass) by >= 20%
    // and measurably shrink tuple volume, or the claim in DESIGN.md §11
    // has regressed.
    BenchMetric {
        artifact: "BENCH_presolve.json",
        key: "\"peak_reduction_pct\"",
        higher_is_better: true,
        gate: 20.0,
        gate_waiver: None,
    },
    BenchMetric {
        artifact: "BENCH_presolve.json",
        key: "\"tuple_reduction_pct\"",
        higher_is_better: true,
        gate: 0.1,
        gate_waiver: None,
    },
    // What the presolve sketch adds to IndexCreate: the k = 63 streaming
    // scan with the default sketch over the same scan without one (smoke
    // scale, one thread, the median of 15 per-pair ratios). The row-of-rows
    // sketch read 4.0-5.6x and the flat branch-free one 2.2-3.3x, both as
    // a ratio of two medians of 9; that ratio once read 3.92 under machine
    // load. The flat one read 2.64-2.84x in six later runs. Batched 8-bit
    // updates read 1.59-1.70x over seven runs of the per-pair median.
    // Retires with presolve.
    BenchMetric {
        artifact: "BENCH_presolve.json",
        key: "\"sketch_index_over_plain\"",
        higher_is_better: false,
        gate: 3.5,
        gate_waiver: None,
    },
];

/// `cargo xtask bench-diff [--baseline <dir>]` — compare the current
/// `target/BENCH_*.json` artifacts against a baseline copy (a directory of
/// the same files; `target/` is not committed, so no git ref holds one),
/// print a per-metric delta table, and fail when a current value trips
/// the same absolute gate `bench-smoke` enforces. Deltas themselves are
/// informational — shared-runner noise makes them a trend signal, not a
/// pass/fail test.
fn run_bench_diff(flags: &[&str]) -> ExitCode {
    let root = workspace_root();
    let mut baseline_dir: Option<PathBuf> = None;
    let mut it = flags.iter();
    while let Some(f) = it.next() {
        match *f {
            "--baseline" => baseline_dir = it.next().map(PathBuf::from),
            other => {
                eprintln!("xtask bench-diff: unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    let baseline_text = |artifact: &str| {
        let dir = baseline_dir.as_ref()?;
        std::fs::read_to_string(dir.join(artifact)).ok()
    };

    let fmt_opt = |v: Option<f64>| match v {
        Some(x) => format!("{x:>10.3}"),
        None => format!("{:>10}", "-"),
    };

    eprintln!(
        "{:<18} {:<26} {:>10} {:>10} {:>9}  {:<8} status",
        "artifact", "metric", "baseline", "current", "delta", "gate"
    );
    let mut failed = false;
    for m in BENCH_METRICS {
        let cur_text = std::fs::read_to_string(root.join("target").join(m.artifact)).ok();
        let (cur, gate) = cur_text
            .as_deref()
            .map_or((None, Gate::Missing), |t| m.check(t));
        let base = baseline_text(m.artifact)
            .as_deref()
            .and_then(|t| json_number(t, m.key));
        let delta = match (base, cur) {
            (Some(b), Some(c)) if b != 0.0 => Some((c - b) * 100.0 / b),
            _ => None,
        };
        let status = match gate {
            Gate::Missing => "MISSING (run `cargo xtask bench-smoke` first)",
            Gate::Waived => "waived",
            Gate::Pass => "ok",
            Gate::Fail => "FAIL",
        };
        failed |= matches!(gate, Gate::Missing | Gate::Fail);
        eprintln!(
            "{:<18} {:<26} {} {} {:>8}  {:<8} {status}",
            m.artifact,
            m.key.trim_matches('"'),
            fmt_opt(base),
            fmt_opt(cur),
            delta
                .map(|d| format!("{d:+.1}%"))
                .unwrap_or_else(|| "-".to_string()),
            m.gate_str(),
        );
    }
    if baseline_dir.is_none() {
        eprintln!("xtask bench-diff: no --baseline given — gates checked, deltas skipped");
    }
    if failed {
        eprintln!("xtask bench-diff: FAILED");
        ExitCode::FAILURE
    } else {
        eprintln!("xtask bench-diff: ok");
        ExitCode::SUCCESS
    }
}

/// Extract the first numeric value following `key` in a flat JSON string
/// (good enough for the hand-rolled bench reports checked here).
fn json_number(json: &str, key: &str) -> Option<f64> {
    let at = json.find(key)? + key.len();
    let rest = json[at..].trim_start_matches([':', ' ']);
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn run_cargo(args: &[&str]) -> bool {
    matches!(Command::new("cargo").args(args).status(), Ok(s) if s.success())
}

fn tool_available(args: &[&str]) -> bool {
    matches!(
        Command::new("cargo")
            .args(args)
            .output(),
        Ok(o) if o.status.success()
    )
}

fn nightly_available() -> bool {
    matches!(
        Command::new("cargo").args(["+nightly", "-V"]).output(),
        Ok(o) if o.status.success()
    )
}

// ---------------------------------------------------------------------------
// Custom lint pass
// ---------------------------------------------------------------------------

struct Finding {
    file: PathBuf,
    line: usize,
    lint: &'static str,
    message: String,
}

fn run_lint_pass() -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files);
    collect_rs_files(&root.join("src"), &mut files);
    collect_rs_files(&root.join("tests"), &mut files);
    collect_rs_files(&root.join("examples"), &mut files);
    // The vendored model checker is itself concurrency-critical: its
    // scheduler and sync shims carry the same audit obligations as the
    // pipeline's (orderings argued in source, unsafe justified).
    collect_rs_files(&root.join("vendor").join("loom").join("src"), &mut files);
    files.sort();

    let mut findings = Vec::new();
    for file in &files {
        let rel = file.strip_prefix(&root).unwrap_or(file);
        let Ok(text) = std::fs::read_to_string(file) else {
            continue;
        };
        lint_file(rel, &text, &mut findings);
    }

    if findings.is_empty() {
        eprintln!("xtask lint: {} files clean", files.len());
        return ExitCode::SUCCESS;
    }
    for f in &findings {
        eprintln!(
            "{}:{}: [{}] {}",
            f.file.display(),
            f.line,
            f.lint,
            f.message
        );
    }
    eprintln!("xtask lint: {} finding(s)", findings.len());
    ExitCode::FAILURE
}

fn workspace_root() -> PathBuf {
    // xtask is always invoked via `cargo xtask`, so the manifest dir of
    // this crate is `<root>/xtask`.
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .expect("CARGO_MANIFEST_DIR set by cargo for `cargo xtask`");
    Path::new(&manifest)
        .parent()
        .expect("xtask crate lives one level under the workspace root")
        .to_path_buf()
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn path_str(rel: &Path) -> String {
    rel.to_string_lossy().replace('\\', "/")
}

fn is_pipeline_src(rel: &str) -> bool {
    PIPELINE_CRATES
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")))
        || rel == "src/lib.rs"
}

/// True for files where `.unwrap()` is acceptable wholesale: tests,
/// examples, and non-pipeline crates.
fn unwrap_exempt_file(rel: &str) -> bool {
    !is_pipeline_src(rel) || rel.contains("/tests/") || rel.contains("/examples/")
}

fn lint_file(rel: &Path, text: &str, findings: &mut Vec<Finding>) {
    let rel_s = path_str(rel);
    let ordering_audited = ORDERING_AUDITED.contains(&rel_s.as_str());
    let unwrap_exempt = unwrap_exempt_file(&rel_s);

    let lines: Vec<&str> = text.lines().collect();
    // Depth of the brace-nesting at which a `#[cfg(test)]` item started;
    // while inside it, the unwrap lint is off.
    let mut depth: i64 = 0;
    let mut test_block_depth: Option<i64> = None;
    let mut pending_cfg_test = false;

    for (idx, raw) in lines.iter().enumerate() {
        let line_no = idx + 1;
        let code = strip_line_comment(raw);
        let trimmed = code.trim();

        // --- cfg(test) tracking (before brace counting so the item's
        // own opening brace marks the region start) ---
        if trimmed.starts_with("#[cfg(test)]") || trimmed.starts_with("#[cfg(all(test") {
            pending_cfg_test = true;
        } else if pending_cfg_test
            && !trimmed.is_empty()
            && !trimmed.starts_with("#[")
            && test_block_depth.is_none()
        {
            test_block_depth = Some(depth);
            pending_cfg_test = false;
        }

        let (opens, closes) = count_braces(code);
        depth += opens as i64;
        depth -= closes as i64;
        if let Some(d) = test_block_depth {
            if depth <= d && closes > 0 {
                test_block_depth = None;
            }
        }
        let in_test_code = test_block_depth.is_some();

        // --- lint 1: ordering audit ---
        if !ordering_audited && code.contains("Ordering::") && !in_test_code {
            let has_justification = justified(&lines, idx, "// ORDERING:");
            if !has_justification {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line: line_no,
                    lint: "ordering-audit",
                    message: "explicit memory ordering outside an audited sync shim \
                              needs a `// ORDERING:` justification within 3 lines"
                        .to_string(),
                });
            }
        }

        // --- lint 2: SAFETY audit ---
        if mentions_unsafe(code) {
            let has_justification = justified(&lines, idx, "// SAFETY:");
            if !has_justification {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line: line_no,
                    lint: "safety-comment",
                    message: "`unsafe` without a `// SAFETY:` comment within 3 lines".to_string(),
                });
            }
        }

        // --- lint 3: no bare unwrap in pipeline code ---
        if !unwrap_exempt && !in_test_code && code.contains(".unwrap()") {
            let has_justification = justified(&lines, idx, "// UNWRAP:");
            if !has_justification {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line: line_no,
                    lint: "no-bare-unwrap",
                    message: "`.unwrap()` in pipeline code: handle the error or \
                              justify with `// UNWRAP:`"
                        .to_string(),
                });
            }
        }

        // --- lint 4: no bare expect in pipeline code ---
        // `.expect("…")` names the invariant but not why it holds; the
        // `// EXPECT:` comment must argue the latter.
        if !unwrap_exempt && !in_test_code && code.contains(".expect(") {
            let has_justification = justified(&lines, idx, "// EXPECT:");
            if !has_justification {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line: line_no,
                    lint: "no-bare-expect",
                    message: "`.expect(` in pipeline code: handle the error or argue \
                              the invariant with `// EXPECT:`"
                        .to_string(),
                });
            }
        }
    }
}

/// A justification comment counts on the same line, anywhere inside the
/// enclosing multi-line statement, or within the three lines preceding
/// that statement's first line (checking raw lines so the marker may
/// sit inside a comment). Statement start is approximated by walking up
/// past continuation lines — lines whose predecessor does not end in
/// `;`, `{`, or `}` — so an `Ordering::` argument four lines into a
/// `compare_exchange` call is still covered by the comment above the
/// call.
fn justified(lines: &[&str], idx: usize, marker: &str) -> bool {
    let mut start = idx;
    while start > 0 {
        let prev = strip_line_comment(lines[start - 1]);
        let prev = prev.trim();
        if prev.ends_with(';') || prev.ends_with('{') || prev.ends_with('}') {
            break;
        }
        start -= 1;
    }
    // Within the statement (or the 3 lines above its first line) …
    let lo = start.saturating_sub(3);
    if lines[lo..=idx].iter().any(|l| l.contains(marker)) {
        return true;
    }
    // … or anywhere in the contiguous comment block directly above the
    // statement (a long justification may exceed the 3-line window).
    let mut j = start;
    while j > 0 && lines[j - 1].trim_start().starts_with("//") {
        if lines[j - 1].contains(marker) {
            return true;
        }
        j -= 1;
    }
    false
}

/// `unsafe` as a keyword (block, fn, impl, trait), not as a substring of
/// an identifier or inside a string literal (approximate).
fn mentions_unsafe(code: &str) -> bool {
    let mut rest = code;
    while let Some(pos) = rest.find("unsafe") {
        let before_ok = pos == 0
            || !rest[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = &rest[pos + "unsafe".len()..];
        let after_ok = !after
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        // Skip doc/string mentions like "unsafe" in quotes: cheap check
        // for an odd number of quotes before the keyword.
        let in_string = rest[..pos].matches('"').count() % 2 == 1;
        if before_ok && after_ok && !in_string {
            return true;
        }
        rest = &rest[pos + "unsafe".len()..];
    }
    false
}

/// Strip a trailing `//` comment, ignoring `//` inside string literals
/// (approximate: counts unescaped quotes).
fn strip_line_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' if i == 0 || bytes[i - 1] != b'\\' => in_str = !in_str,
            b'/' if !in_str && i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                return &line[..i];
            }
            _ => {}
        }
        i += 1;
    }
    line
}

fn count_braces(code: &str) -> (usize, usize) {
    let mut in_str = false;
    let mut opens = 0;
    let mut closes = 0;
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' if i == 0 || bytes[i - 1] != b'\\' => in_str = !in_str,
            b'{' if !in_str => opens += 1,
            b'}' if !in_str => closes += 1,
            _ => {}
        }
    }
    (opens, closes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(rel: &str, text: &str) -> Vec<String> {
        let mut findings = Vec::new();
        lint_file(Path::new(rel), text, &mut findings);
        findings
            .into_iter()
            .map(|f| format!("{}:{}", f.lint, f.line))
            .collect()
    }

    #[test]
    fn ordering_without_justification_flagged() {
        let hits = lint_str(
            "crates/metaprep-cc/src/x.rs",
            "fn f(a: &AtomicU32) { a.load(Ordering::Relaxed); }\n",
        );
        assert_eq!(hits, vec!["ordering-audit:1"]);
    }

    #[test]
    fn ordering_with_justification_ok() {
        let hits = lint_str(
            "crates/metaprep-cc/src/x.rs",
            "// ORDERING: counter only, no synchronization piggybacks on it.\n\
             fn f(a: &AtomicU32) { a.load(Ordering::Relaxed); }\n",
        );
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn audited_shim_exempt_from_ordering_lint() {
        let hits = lint_str(
            "crates/metaprep-cc/src/sync.rs",
            "fn f(a: &AtomicU32) { a.load(Ordering::Acquire); }\n",
        );
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let hits = lint_str(
            "crates/metaprep-sort/src/x.rs",
            "fn f() { unsafe { danger(); } }\n",
        );
        assert_eq!(hits, vec!["safety-comment:1"]);
        let ok = lint_str(
            "crates/metaprep-sort/src/x.rs",
            "// SAFETY: bounds checked above.\nfn f() { unsafe { danger(); } }\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn unsafe_in_string_or_identifier_not_flagged() {
        let hits = lint_str(
            "crates/metaprep-sort/src/x.rs",
            "fn f() { let not_unsafe_here = 1; let s = \"unsafe\"; }\n",
        );
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn unwrap_flagged_outside_tests_only() {
        let text = "fn f() { g().unwrap(); }\n\
                    #[cfg(test)]\n\
                    mod tests {\n\
                    fn t() { g().unwrap(); }\n\
                    }\n";
        let hits = lint_str("crates/metaprep-io/src/x.rs", text);
        assert_eq!(hits, vec!["no-bare-unwrap:1"]);
    }

    #[test]
    fn unwrap_after_test_module_flagged_again() {
        let text = "#[cfg(test)]\n\
                    mod tests {\n\
                    fn t() { g().unwrap(); }\n\
                    }\n\
                    fn f() { g().unwrap(); }\n";
        let hits = lint_str("crates/metaprep-io/src/x.rs", text);
        assert_eq!(hits, vec!["no-bare-unwrap:5"]);
    }

    #[test]
    fn unwrap_exemptions() {
        let hits = lint_str(
            "crates/metaprep-bench/src/x.rs",
            "fn f() { g().unwrap(); }\n",
        );
        assert!(hits.is_empty(), "bench crate exempt: {hits:?}");
        let hits = lint_str("tests/e2e.rs", "fn f() { g().unwrap(); }\n");
        assert!(hits.is_empty(), "integration tests exempt: {hits:?}");
        let hits = lint_str(
            "crates/metaprep-io/src/x.rs",
            "// UNWRAP: checked non-empty above.\nfn f() { g().unwrap(); }\n",
        );
        assert!(hits.is_empty(), "justified unwrap ok: {hits:?}");
    }

    #[test]
    fn expect_flagged_outside_tests_only() {
        let text = "fn f() { g().expect(\"nonempty\"); }\n\
                    #[cfg(test)]\n\
                    mod tests {\n\
                    fn t() { g().expect(\"nonempty\"); }\n\
                    }\n";
        let hits = lint_str("crates/metaprep-io/src/x.rs", text);
        assert_eq!(hits, vec!["no-bare-expect:1"]);
    }

    #[test]
    fn expect_exemptions() {
        let hits = lint_str(
            "crates/metaprep-bench/src/x.rs",
            "fn f() { g().expect(\"bench\"); }\n",
        );
        assert!(hits.is_empty(), "bench crate exempt: {hits:?}");
        let hits = lint_str("tests/e2e.rs", "fn f() { g().expect(\"test\"); }\n");
        assert!(hits.is_empty(), "integration tests exempt: {hits:?}");
        let hits = lint_str(
            "crates/metaprep-io/src/x.rs",
            "// EXPECT: seeded with one element above, never drained.\n\
             fn f() { g().expect(\"nonempty\"); }\n",
        );
        assert!(hits.is_empty(), "justified expect ok: {hits:?}");
    }

    #[test]
    fn unwrap_justification_does_not_cover_expect() {
        // `// UNWRAP:` and `// EXPECT:` are distinct markers — a line
        // with both calls needs both arguments.
        let text = "// UNWRAP: checked above.\n\
                    fn f() { g().unwrap(); h().expect(\"invariant\"); }\n";
        let hits = lint_str("crates/metaprep-io/src/x.rs", text);
        assert_eq!(hits, vec!["no-bare-expect:2"]);
    }

    #[test]
    fn vendored_loom_audited_for_ordering_and_safety() {
        // vendor/loom/src is in the scanned set with the ordering and
        // safety lints active; the unwrap/expect lints stay pipeline-only.
        let hits = lint_str(
            "vendor/loom/src/x.rs",
            "fn f(a: &AtomicU32) { a.load(Ordering::SeqCst); }\n\
             fn g() { unsafe { danger(); } }\n\
             fn h() { i().unwrap(); j().expect(\"shim\"); }\n",
        );
        assert_eq!(hits, vec!["ordering-audit:1", "safety-comment:2"]);
    }

    #[test]
    fn simd_module_covered_by_safety_lint() {
        // The runtime-dispatched SIMD kernels live in a pipeline crate
        // (`metaprep-kmer`), so their `unsafe` blocks and target-feature
        // fns are NOT exempt: a bare `unsafe` under src/simd/ must flag.
        let hits = lint_str(
            "crates/metaprep-kmer/src/simd/avx2.rs",
            "pub unsafe fn encode_classify(seq: &[u8], out: &mut [u8]) {\n\
             unsafe { core(seq, out) }\n\
             }\n",
        );
        assert_eq!(hits, vec!["safety-comment:1", "safety-comment:2"]);
    }

    #[test]
    fn on_disk_simd_sources_pass_the_lint() {
        // End-to-end pin: the real SIMD sources (the densest unsafe code
        // in the workspace) carry a SAFETY justification on every unsafe
        // block. Scans the actual files so a drive-by `unsafe` without a
        // comment fails here even before `cargo xtask lint` runs.
        let root = workspace_root();
        let simd_dir = root.join("crates/metaprep-kmer/src/simd");
        let mut files = Vec::new();
        collect_rs_files(&simd_dir, &mut files);
        assert!(
            files.len() >= 3,
            "expected the simd module sources under {}",
            simd_dir.display()
        );
        let mut findings = Vec::new();
        for path in &files {
            let text = std::fs::read_to_string(path).expect("read simd source");
            let rel = path.strip_prefix(&root).expect("under workspace root");
            lint_file(rel, &text, &mut findings);
        }
        assert!(
            findings.is_empty(),
            "simd sources must pass the custom lints: {:?}",
            findings
                .iter()
                .map(|f| format!("{}:{}:{}", f.file.display(), f.line, f.lint))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn analysis_module_covered_by_pipeline_lints() {
        // The causal-analysis module lives in `metaprep-obs`, a pipeline
        // crate: its code is subject to the ordering and unwrap/expect
        // gates like any other pipeline source.
        assert!(is_pipeline_src("crates/metaprep-obs/src/analysis.rs"));
        let hits = lint_str(
            "crates/metaprep-obs/src/analysis.rs",
            "fn f() { g().unwrap(); }\n",
        );
        assert_eq!(hits, vec!["no-bare-unwrap:1"]);
    }

    #[test]
    fn on_disk_analysis_source_passes_the_lint() {
        // End-to-end pin, like the SIMD one below: the real analysis
        // source must stay clean under the custom lints.
        let root = workspace_root();
        let path = root.join("crates/metaprep-obs/src/analysis.rs");
        let text = std::fs::read_to_string(&path).expect("read analysis source");
        let mut findings = Vec::new();
        lint_file(
            Path::new("crates/metaprep-obs/src/analysis.rs"),
            &text,
            &mut findings,
        );
        assert!(
            findings.is_empty(),
            "analysis.rs must pass the custom lints: {:?}",
            findings
                .iter()
                .map(|f| format!("{}:{}", f.line, f.lint))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn fault_modules_covered_by_pipeline_lints() {
        // The fault-injection/recovery plane spans `metaprep-dist` and
        // `metaprep-core`, both pipeline crates: every new module is
        // subject to the ordering and unwrap/expect gates automatically.
        for rel in [
            "crates/metaprep-dist/src/faults.rs",
            "crates/metaprep-dist/src/delivery.rs",
            "crates/metaprep-core/src/pipeline.rs",
            "crates/metaprep-core/src/checkpoint.rs",
        ] {
            assert!(is_pipeline_src(rel), "{rel} must be pipeline source");
            let hits = lint_str(rel, "fn f() { g().unwrap(); }\n");
            assert_eq!(hits, vec!["no-bare-unwrap:1"], "{rel}");
        }
    }

    #[test]
    fn on_disk_fault_sources_pass_the_lint() {
        // End-to-end pin, like the analysis one above: the real
        // fault-plane sources must stay clean under the custom lints.
        let root = workspace_root();
        for rel in [
            "crates/metaprep-dist/src/faults.rs",
            "crates/metaprep-dist/src/delivery.rs",
            "crates/metaprep-core/src/pipeline.rs",
            "crates/metaprep-core/src/checkpoint.rs",
        ] {
            let text = std::fs::read_to_string(root.join(rel)).expect("read fault-plane source");
            let mut findings = Vec::new();
            lint_file(Path::new(rel), &text, &mut findings);
            assert!(
                findings.is_empty(),
                "{rel} must pass the custom lints: {:?}",
                findings
                    .iter()
                    .map(|f| format!("{}:{}", f.line, f.lint))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn presolve_modules_covered_by_pipeline_lints() {
        // The probabilistic presolve tier spans `metaprep-index` (the
        // count-min sketch and the sketched streaming scan) and
        // `metaprep-core` (the adaptive pass planner) — all
        // pipeline crates, so the ordering and unwrap/expect gates apply.
        for rel in [
            "crates/metaprep-index/src/countmin.rs",
            "crates/metaprep-index/src/streaming.rs",
            "crates/metaprep-core/src/planner.rs",
        ] {
            assert!(is_pipeline_src(rel), "{rel} must be pipeline source");
            let hits = lint_str(rel, "fn f() { g().unwrap(); }\n");
            assert_eq!(hits, vec!["no-bare-unwrap:1"], "{rel}");
        }
    }

    #[test]
    fn on_disk_presolve_sources_pass_the_lint() {
        // End-to-end pin, like the fault-plane one above: the real
        // presolve/planner sources must stay clean under the custom lints.
        let root = workspace_root();
        for rel in [
            "crates/metaprep-index/src/countmin.rs",
            "crates/metaprep-index/src/streaming.rs",
            "crates/metaprep-core/src/planner.rs",
        ] {
            let text = std::fs::read_to_string(root.join(rel)).expect("read presolve source");
            let mut findings = Vec::new();
            lint_file(Path::new(rel), &text, &mut findings);
            assert!(
                findings.is_empty(),
                "{rel} must pass the custom lints: {:?}",
                findings
                    .iter()
                    .map(|f| format!("{}:{}", f.line, f.lint))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn rank_sort_module_covered_by_and_passes_the_lints() {
        // LocalSort's in-bucket kernel lives in a pipeline crate: a bare
        // unwrap there must flag, and the real source must stay clean.
        let rel = "crates/metaprep-sort/src/rank.rs";
        assert!(is_pipeline_src(rel));
        assert_eq!(
            lint_str(rel, "fn f() { g().unwrap(); }\n"),
            vec!["no-bare-unwrap:1"]
        );
        let text = std::fs::read_to_string(workspace_root().join(rel)).expect("read rank source");
        let mut findings = Vec::new();
        lint_file(Path::new(rel), &text, &mut findings);
        assert!(
            findings.is_empty(),
            "{rel} must pass the custom lints: {:?}",
            findings
                .iter()
                .map(|f| format!("{}:{}", f.line, f.lint))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn justification_covers_multiline_statement() {
        let text = "// ORDERING: AcqRel publishes; Relaxed failure is re-verified.\n\
                    fn f(a: &AtomicU32) {\n\
                    let _ = a.compare_exchange(\n\
                    0,\n\
                    1,\n\
                    Ordering::AcqRel,\n\
                    Ordering::Relaxed,\n\
                    );\n\
                    }\n";
        let hits = lint_str("crates/metaprep-cc/src/x.rs", text);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn comment_only_mentions_not_flagged() {
        let hits = lint_str(
            "crates/metaprep-io/src/x.rs",
            "// talking about .unwrap() and Ordering::Relaxed in prose\nfn f() {}\n",
        );
        assert!(hits.is_empty(), "{hits:?}");
    }
}
