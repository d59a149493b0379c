//! `bench_pipeline` — the repo's end-to-end benchmark (see README.md).
//!
//! ```text
//! bench_pipeline --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one result line
//! bench_pipeline all [--seed <n>] [--seconds <s>]                            all four, writes out/BENCH_pipeline.json
//! bench_pipeline repeat-check [--seed <n>] [--seconds <s>]                   `all` twice; the two must agree
//! bench_pipeline compare <a.json> <b.json>                                   spread-aware table of two results
//! bench_pipeline measure <log_stem> <timeout_ms> <program> [args…]           internal: the launcher (see `child`)
//! ```

mod child;
mod json;
mod layers;
mod metrics;
mod oracle;
mod report;
mod session;
mod stats;
mod workload;

use json::Value;
use report::WorkloadReport;
use session::Session;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::WorkloadSpec;

/// Timed repetitions per workload: at least this many, then until
/// `--seconds` have passed, but never more than `MAX_REPS`.
const MIN_REPS: usize = 7;
const MAX_REPS: usize = 60;
/// Set-ups per workload, so `setup_s` is a median.
const SETUPS: usize = 5;
const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 20.0;

/// Where the benchmark runs: the checkout root and the built program.
struct Env {
    root: PathBuf,
    /// This executable, through which child runs are measured (see `child`);
    /// `None` in self-tests, whose executable has no `measure` mode.
    launcher: Option<PathBuf>,
    /// `benchmark/out` — results, spans and scratch; nothing is read or
    /// written outside the checkout.
    out: PathBuf,
    program: PathBuf,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench_pipeline: {e}");
            ExitCode::from(2)
        }
    }
}

/// Value of `--key` in `argv`, parsed.
fn opt<T: std::str::FromStr>(argv: &[String], key: &str) -> Result<Option<T>, String> {
    let Some(at) = argv.iter().position(|a| a == key) else {
        return Ok(None);
    };
    argv.get(at + 1)
        .and_then(|v| v.parse().ok())
        .map(Some)
        .ok_or_else(|| format!("{key} needs a value"))
}

fn run(argv: &[String]) -> Result<ExitCode, String> {
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv else {
            return Err("usage: compare <a.json> <b.json>".into());
        };
        let load = |p: &String| {
            std::fs::read_to_string(p)
                .map_err(|e| format!("{p}: {e}"))
                .and_then(|t| json::parse(&t))
        };
        print!("{}", report::compare(&load(a)?, &load(b)?));
        return Ok(ExitCode::SUCCESS);
    }
    if argv.first().map(String::as_str) == Some("measure") {
        child::launcher_main(&argv[1..])?;
        return Ok(ExitCode::SUCCESS);
    }
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; run with `cargo run --release`".into());
    }
    let seed = opt(argv, "--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds = opt(argv, "--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let env = Env::locate()?;
    let specs = workload::all();

    match argv.first().map(String::as_str) {
        Some("all") => {
            let doc = run_all(&env, &specs, seed, seconds)?;
            write_doc(&env.out.join("BENCH_pipeline.json"), &doc)?;
            Ok(exit_code(doc_correct(&doc)))
        }
        Some("repeat-check") => {
            let first = run_all(&env, &specs, seed, seconds)?;
            write_doc(&env.out.join("BENCH_pipeline.json"), &first)?;
            let second = run_all(&env, &specs, seed, seconds)?;
            write_doc(&env.out.join("BENCH_pipeline.repeat.json"), &second)?;
            print!("{}", report::compare(&first, &second));
            let bad = report::repeat_violations(&first, &second);
            for b in &bad {
                println!("REPEAT-CHECK: {b}");
            }
            println!(
                "repeat-check: {}",
                if bad.is_empty() { "pass" } else { "FAIL" }
            );
            Ok(exit_code(
                bad.is_empty() && doc_correct(&first) && doc_correct(&second),
            ))
        }
        _ => {
            let name: String = opt(argv, "--workload")?.ok_or(
                "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                 | all | repeat-check | compare <a.json> <b.json>",
            )?;
            let traced = opt::<u8>(argv, "--trace")?.unwrap_or(0) != 0;
            let spec = specs
                .iter()
                .find(|s| s.name == name)
                .ok_or_else(|| format!("unknown workload {name:?}"))?;
            // The traced run is not where `setup_s` is reported, so one
            // set-up is enough there.
            let setups = if traced { 1 } else { SETUPS };
            let reports = measure(
                &env,
                std::slice::from_ref(spec),
                seed,
                seconds,
                setups,
                traced,
            )?;
            let report = &reports[0];
            print!("{}", report.render());
            let line = report::contract_line(report, traced)
                .ok_or("no successful run: nothing to report")?;
            println!("{}", line.compact());
            Ok(exit_code(report.correct()))
        }
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn doc_correct(doc: &Value) -> bool {
    doc.get("correct") == Some(&Value::Bool(true))
}

fn write_doc(path: &Path, doc: &Value) -> Result<(), String> {
    std::fs::write(path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Run `specs` round-robin: set every workload up, warm each up once, then
/// take timed repetitions in rounds (rep 1 of every workload, rep 2 of
/// every workload, …) so a noisy minute is shared rather than dumped on one
/// workload; with `traced`, finish with each workload's traced run. One
/// process at a time: a closed loop with a single client.
fn measure(
    env: &Env,
    specs: &[WorkloadSpec],
    seed: u64,
    seconds: f64,
    setups: usize,
    traced: bool,
) -> Result<Vec<WorkloadReport>, String> {
    let scratch = env.out.join("scratch");
    let mut sessions = Vec::new();
    for spec in specs {
        let dir = scratch.join(spec.name);
        sessions.push(
            Session::start(
                spec,
                &env.program,
                env.launcher.as_deref(),
                dir,
                seed,
                setups,
            )
            .map_err(|e| format!("set-up of {}: {e}", spec.name))?,
        );
    }
    for s in &mut sessions {
        s.repetition(&[]);
    }
    let budget = Duration::from_secs_f64(seconds * specs.len() as f64);
    let start = Instant::now();
    for round in 0..MAX_REPS {
        if round >= MIN_REPS && start.elapsed() >= budget {
            break;
        }
        for s in &mut sessions {
            s.timed_rep();
        }
    }
    let mut reports = Vec::new();
    for s in &mut sessions {
        let layers = if traced {
            let spans = env.out.join(format!("{}.spans.jsonl", s.spec.name));
            match layers::trace_workload(s, &spans) {
                Ok(m) => Some(m),
                Err(why) => {
                    s.problems
                        .push(format!("{} traced run: {why}", s.spec.name));
                    None
                }
            }
        } else {
            None
        };
        reports.push(WorkloadReport::of(s, layers));
        let _ = std::fs::remove_dir_all(&s.dir);
    }
    Ok(reports)
}

/// The full benchmark: every workload, end-to-end and per-layer, printed
/// and returned as the `BENCH_pipeline.json` document.
fn run_all(env: &Env, specs: &[WorkloadSpec], seed: u64, seconds: f64) -> Result<Value, String> {
    let reports = measure(env, specs, seed, seconds, SETUPS, true)?;
    for r in &reports {
        print!("{}", r.render());
    }
    // A traced run that could not finish is among the report's problems.
    let complete = reports.iter().all(WorkloadReport::correct);
    Ok(Value::obj([
        ("benchmark", Value::str("BENCH_pipeline")),
        ("manifest", env.manifest(seed, seconds)),
        ("correct", Value::Bool(complete)),
        (
            "workloads",
            Value::Arr(reports.iter().map(WorkloadReport::to_json).collect()),
        ),
    ]))
}

impl Env {
    /// Find the checkout (the nearest ancestor of the working directory
    /// that holds `BENCHMARK.json`) and build `metaprep` there, in release
    /// mode, in the root workspace — so the root manifests' profile and
    /// whatever a later PR changes under `crates/` are what gets measured.
    fn locate() -> Result<Env, String> {
        let cwd = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
        let root = cwd
            .ancestors()
            .find(|d| d.join("BENCHMARK.json").is_file() && d.join("crates").is_dir())
            .ok_or("run from inside a checkout (no BENCHMARK.json + crates/ above here)")?
            .to_path_buf();
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let built = Command::new(cargo)
            .args(["build", "--release", "--offline", "--quiet"])
            .args(["-p", "metaprep-cli"])
            .current_dir(&root)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cargo build: {e}"))?;
        if !built.success() {
            return Err(format!("cargo build -p metaprep-cli failed: {built}"));
        }
        // A relative CARGO_TARGET_DIR is relative to where cargo ran.
        let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
        let program = root.join(target).join("release").join("metaprep");
        if !program.is_file() {
            return Err(format!("{} was not built", program.display()));
        }
        let out = root.join("benchmark").join("out");
        std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        let launcher = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        Ok(Env {
            root,
            launcher: Some(launcher),
            out,
            program,
        })
    }

    /// First line of a command's stdout, or "unknown".
    fn tool_line(&self, program: &str, args: &[&str]) -> String {
        Command::new(program)
            .args(args)
            .current_dir(&self.root)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().next().map(str::to_string))
            .unwrap_or_else(|| "unknown".into())
    }

    /// What produced a result: enough to tell two result files apart.
    fn manifest(&self, seed: u64, seconds: f64) -> Value {
        Value::obj([
            (
                "git_revision",
                Value::Str(self.tool_line("git", &["rev-parse", "HEAD"])),
            ),
            ("rustc", Value::Str(self.tool_line("rustc", &["-V"]))),
            (
                "nproc",
                Value::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
            ),
            (
                "simd_backend",
                Value::Str(metaprep_kmer::simd::active().to_string()),
            ),
            ("seed", Value::Num(seed as f64)),
            ("seconds_per_workload", Value::Num(seconds)),
            ("min_timed_repetitions", Value::Num(MIN_REPS as f64)),
            ("setups_per_workload", Value::Num(SETUPS as f64)),
            // The contract confines the benchmark to its checkout, so inputs
            // and outputs sit on the checkout's file system, not on tmpfs.
            (
                "scratch_dir",
                Value::str("benchmark/out/scratch (checkout file system)"),
            ),
            (
                "load_shape",
                Value::str("closed loop, one client, one process at a time"),
            ),
        ])
    }
}

#[cfg(test)]
mod tests;
