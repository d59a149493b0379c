//! End-to-end tests of the `metaprep` binary: exit codes, error
//! plumbing, the chaos flows over [`CHAOS_SEEDS`] (simulate → partition
//! with a fault plan + checkpoints + trace → `diff` against the fault-free
//! outdir → analyze --strict; the partition at every pass / task
//! geometry; a planned, presolved run with a crash and a reused checkpoint
//! directory), and `analyze` over a recorded `partition` and `index`
//! trace.

use metaprep_core::{
    partition_reads, partition_top_n, write_multi_partition, write_partitions, Pipeline,
    PipelineConfig, Step,
};
use metaprep_io::parse_fastq_path;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn metaprep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_metaprep"))
        .args(args)
        .output()
        .expect("spawn metaprep")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("metaprep_cli_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn unknown_subcommand_exits_nonzero_with_usage() {
    let out = metaprep(&["frobnicate"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("error:"), "{err}");
    assert!(err.contains("usage: metaprep"), "{err}");
}

#[test]
fn usage_lists_exactly_the_dispatched_subcommands() {
    let out = metaprep(&["trim", "--input", "reads.fastq"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_of(&out);
    assert!(
        err.starts_with("error: unknown subcommand \"trim\"\n"),
        "{err}"
    );
    let listed = err
        .lines()
        .find_map(|l| l.strip_prefix("usage: metaprep <"))
        .and_then(|l| l.split_once('>'))
        .map(|(list, _)| list.split('|').collect::<Vec<_>>())
        .unwrap_or_else(|| panic!("no usage line: {err}"));
    assert_eq!(listed, ["simulate", "index", "partition", "analyze"]);
    // Every listed command is dispatched (it fails on its missing options,
    // not as unknown); every deleted one is unknown.
    for cmd in listed {
        let err = stderr_of(&metaprep(&[cmd]));
        assert!(!err.contains("unknown subcommand"), "{cmd}: {err}");
    }
    for cmd in ["normalize", "trim", "assemble", "spectrum", "report"] {
        let err = stderr_of(&metaprep(&[cmd]));
        assert!(
            err.starts_with(&format!("error: unknown subcommand {cmd:?}")),
            "{cmd}: {err}"
        );
    }
}

#[test]
fn out_of_range_index_and_simulate_options_are_one_error_line() {
    let dir = tmpdir("out_of_range");
    let reads = dir.join("reads.fastq");
    std::fs::write(&reads, fastq_of(&good_records(40))).unwrap();
    let out_path = dir.join("out");
    let (input, outp) = (reads.to_str().unwrap(), out_path.to_str().unwrap());
    let index = |extra: &'static [&'static str]| {
        let mut args = vec!["index", "--input", input, "--outdir", outp];
        args.extend(extra);
        args
    };
    let simulate = |scale| {
        vec![
            "simulate",
            "--dataset",
            "hg",
            "--scale",
            scale,
            "--output",
            outp,
        ]
    };
    let cases: Vec<Vec<&str>> = vec![
        index(&["--k", "0"]),
        index(&["--k", "64"]),
        index(&["--m", "0"]),
        index(&["--m", "20"]),
        index(&["--k", "5", "--m", "8"]),
        simulate("0"),
        simulate("nan"),
        simulate("-1"),
        simulate("inf"),
    ];
    for args in cases {
        let out = metaprep(&args);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        let error_lines = err.lines().filter(|l| l.starts_with("error:")).count();
        assert_eq!(error_lines, 1, "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(!out_path.exists(), "{args:?}: output created");
    }
    // `--chunks 0` is the auto count, as in `partition`.
    let out = metaprep(&index(&["--k", "11", "--m", "4", "--chunks", "0"]));
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert!(out_path.join("fastqpart.bin").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_unknown_option_is_one_error_line_and_writes_nothing() {
    // A misspelled option used to be ignored (`--task 4` ran one task);
    // `--simd` is gone in favour of `METAPREP_SIMD`, `--sparse` because
    // Merge-Comm picks the smaller component encoding itself, and the
    // sketch shape flags because the presolve sketch keeps its default.
    let dir = tmpdir("unknown_option");
    let reads = dir.join("reads.fastq");
    std::fs::write(&reads, fastq_of(&good_records(40))).unwrap();
    let out_path = dir.join("out");
    let (input, outp) = (reads.to_str().unwrap(), out_path.to_str().unwrap());
    let cases: [(&str, &[&str], &str); 7] = [
        ("partition", &["--task", "4"], "--task for partition"),
        ("partition", &["--simd", "scalar"], "--simd for partition"),
        ("partition", &["--sparse"], "--sparse for partition"),
        (
            "partition",
            &["--sketch-width", "16"],
            "--sketch-width for partition",
        ),
        (
            "partition",
            &["--sketch-depth", "2"],
            "--sketch-depth for partition",
        ),
        ("index", &["--chunk", "8"], "--chunk for index"),
        ("index", &["--tasks", "2"], "--tasks for index"),
    ];
    for (cmd, extra, what) in cases {
        let mut args = vec![cmd, "--input", input, "--outdir", outp];
        args.extend(extra);
        let out = metaprep(&args);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        let first = err.lines().next().unwrap_or_default();
        assert_eq!(first, format!("error: unknown option {what}"), "{err}");
        let error_lines = err.lines().filter(|l| l.starts_with("error:")).count();
        assert_eq!(error_lines, 1, "{args:?}: {err}");
        assert!(err.contains("usage: metaprep"), "{err}");
        assert!(!out_path.exists(), "{args:?}: output created");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_required_option_shows_usage() {
    let out = metaprep(&["partition"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("error:"), "{err}");
    assert!(err.contains("usage: metaprep"), "{err}");
}

#[test]
fn io_errors_are_one_structured_line_without_usage_or_backtrace() {
    // A missing input file is an expected runtime failure, not a usage
    // mistake: exactly one `error:` line, no usage dump, no Debug/panic
    // noise.
    let out = metaprep(&["partition", "--input", "/nonexistent/reads.fastq"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.starts_with("error:"), "{err}");
    assert_eq!(err.trim_end().lines().count(), 1, "{err}");
    assert!(!err.contains("usage:"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(!err.contains("RUST_BACKTRACE"), "{err}");
}

/// Every reader takes the input by byte range, below the length the file's
/// metadata gives, so a pipe would read as an empty input and `partition`
/// would write two empty files and succeed.
#[cfg(unix)]
#[test]
fn a_piped_input_is_one_error_line_naming_the_path() {
    let outdir = tmpdir("piped_input").join("out");
    let mut child = Command::new(env!("CARGO_BIN_EXE_metaprep"))
        .args([
            "partition",
            "--input",
            "/dev/stdin",
            "--k",
            "21",
            "--outdir",
        ])
        .arg(&outdir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn metaprep");
    // The binary may exit before it reads a byte; a failed write is that.
    let mut stdin = child.stdin.take().expect("piped stdin");
    let _ = stdin.write_all(&fastq_of(&good_records(8)));
    drop(stdin);
    let out = child.wait_with_output().expect("wait for metaprep");
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_of(&out);
    assert_eq!(err.trim_end().lines().count(), 1, "{err}");
    assert!(
        err.starts_with("error:") && err.contains("/dev/stdin is not a regular file"),
        "{err}"
    );
    assert!(!outdir.exists());
}

#[test]
fn bad_fault_plan_spec_is_an_arg_error() {
    let out = metaprep(&[
        "partition",
        "--input",
        "whatever.fastq",
        "--fault-plan",
        "drop=not-a-number",
    ]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("--fault-plan"), "{err}");
    assert!(err.contains("usage: metaprep"), "{err}");
}

/// The fault-plan seeds the chaos tests loop over.
const CHAOS_SEEDS: [u64; 3] = [7, 1234, 31337];

/// `metaprep simulate --dataset hg --scale 0.05 --seed <seed>` into `dir`.
fn simulate_hg(dir: &Path, seed: u64) -> PathBuf {
    let reads = dir.join(format!("reads{seed}.fastq"));
    let seed = seed.to_string();
    let mut args = vec!["simulate", "--dataset", "hg", "--scale", "0.05"];
    args.extend(["--seed", &seed, "--output", reads.to_str().unwrap()]);
    let out = metaprep(&args);
    assert!(out.status.success(), "{}", stderr_of(&out));
    reads
}

/// `metaprep partition --k 21 --m 6` of `reads` into `outdir` with `extra`
/// options; asserts it succeeds and returns its stdout.
fn partition_k21(reads: &Path, outdir: &Path, extra: &[&str]) -> String {
    let mut args = vec!["partition", "--k", "21", "--m", "6"];
    args.extend(["--input", reads.to_str().unwrap()]);
    args.extend(["--outdir", outdir.to_str().unwrap()]);
    args.extend(extra);
    let out = metaprep(&args);
    assert!(out.status.success(), "{extra:?}: {}", stderr_of(&out));
    stdout_of(&out)
}

/// `metaprep analyze --strict` of `trace`; asserts it succeeds and returns
/// the report.
fn analyze_strict(trace: &Path) -> String {
    let out = metaprep(&["analyze", "--strict", "--trace", trace.to_str().unwrap()]);
    assert!(out.status.success(), "--strict: {}", stderr_of(&out));
    stdout_of(&out)
}

#[test]
fn chaos_faulted_and_crashed_runs_write_the_fault_free_partition() {
    // Drops, delays, duplicates, reorders and a crash of rank 1 replayed
    // from its checkpoint change no output byte (threads 1 makes the run a
    // pure function of the input), and the faulted trace passes `analyze
    // --strict` with the recovery in its report. The fault-free run's
    // Chrome trace passes the schema validator and draws the messages.
    let dir = tmpdir("chaos_faulted");
    let reads = simulate_hg(&dir, 1);
    let geometry = ["--tasks", "4", "--threads", "1", "--passes", "2"];
    let (reference, chrome) = (dir.join("reference"), dir.join("reference.json"));
    let as_chrome = [
        "--trace-out",
        chrome.to_str().unwrap(),
        "--trace-format",
        "chrome",
    ];
    partition_k21(&reads, &reference, &[&geometry[..], &as_chrome].concat());
    let chrome = std::fs::read_to_string(chrome).unwrap();
    metaprep_obs::export::validate_chrome(&chrome).unwrap();
    assert!(chrome.contains("\"ph\":\"s\"") && chrome.contains("\"ph\":\"f\""));
    for seed in CHAOS_SEEDS {
        let (parts, ckpt) = (
            dir.join(format!("parts{seed}")),
            dir.join(format!("ckpt{seed}")),
        );
        let trace = dir.join(format!("trace{seed}.jsonl"));
        let plan =
            format!("seed={seed},drop=0.05,delay=0.05,dup=0.05,reorder=0.05,crash=rank1@pass1");
        let mut faulted = geometry.to_vec();
        faulted.extend(["--fault-plan", &plan, "--watchdog-timeout", "30000"]);
        faulted.extend(["--checkpoint-dir", ckpt.to_str().unwrap()]);
        faulted.extend(["--trace-out", trace.to_str().unwrap()]);
        partition_k21(&reads, &parts, &faulted);
        assert!(
            ckpt.join("rank1.ckpt").exists(),
            "seed {seed}: no checkpoint"
        );
        assert!(dir_bytes(&reference) == dir_bytes(&parts), "seed {seed}");
        let report = analyze_strict(&trace);
        assert!(report.contains("fault injection & recovery"), "{report}");
        assert!(report.contains("task 1 restarted"), "{report}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn chaos_pass_and_task_geometry_does_not_move_the_partition() {
    // Each pass's KmerGen builds its self-addressed part in the buffer the
    // previous pass sorted, and LocalSort adopts that part wherever its
    // rank sits among the senders: three passes on one task recycle the
    // buffer twice, and rank 1 of three tasks adopts a part in the middle.
    // Here each seed simulates another community.
    let dir = tmpdir("chaos_geometry");
    let geometries: [&[&str]; 3] = [
        &["--tasks", "1", "--passes", "1"],
        &["--tasks", "1", "--passes", "3"],
        &["--tasks", "3", "--threads", "2", "--passes", "2"],
    ];
    for seed in CHAOS_SEEDS {
        let reads = simulate_hg(&dir, seed);
        let outputs: Vec<_> = geometries
            .iter()
            .enumerate()
            .map(|(i, geometry)| {
                let outdir = dir.join(format!("parts{seed}_{i}"));
                partition_k21(&reads, &outdir, geometry);
                dir_bytes(&outdir)
            })
            .collect();
        for (geometry, got) in geometries.iter().zip(&outputs).skip(1) {
            assert!(*got == outputs[0], "seed {seed}: {geometry:?} moved it");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn chaos_a_planned_presolved_run_replays_a_crash_and_ignores_a_used_checkpoint_dir() {
    // No --passes: the 800K budget makes the planner choose two passes
    // (modeled: 1 pass ~1.0 MB/task, 2 passes ~0.7 MB/task here), and
    // presolve drops frequent k-mers before tuples exist. The crash
    // replays from checkpoints under the planned geometry. A second run
    // into the same checkpoint directory crashes rank 1 before it has
    // written anything: the rank starts fresh rather than restore what the
    // first run left there.
    let dir = tmpdir("chaos_adaptive");
    let reads = simulate_hg(&dir, 1);
    let adaptive = ["--tasks", "4", "--threads", "1", "--memory-budget", "800K"];
    let adaptive = [&adaptive[..], &["--presolve", "3"]].concat();
    let reference = dir.join("reference");
    let stdout = partition_k21(&reads, &reference, &adaptive);
    assert!(stdout.contains("2 passes planned"), "{stdout}");
    for seed in CHAOS_SEEDS {
        let ckpt = dir.join(format!("ckpt{seed}"));
        let trace = dir.join(format!("trace{seed}.jsonl"));
        let faulted = |crash: &str, outdir: &str, extra: &[&str]| {
            let plan = format!("seed={seed},drop=0.05,dup=0.05,reorder=0.05,crash=rank1@{crash}");
            let mut args = adaptive.clone();
            args.extend(["--fault-plan", &plan, "--watchdog-timeout", "30000"]);
            args.extend(["--checkpoint-dir", ckpt.to_str().unwrap()]);
            args.extend(extra);
            let outdir = dir.join(format!("{outdir}{seed}"));
            let stdout = partition_k21(&reads, &outdir, &args);
            let same = dir_bytes(&reference) == dir_bytes(&outdir);
            assert!(same, "seed {seed}, crash at {crash}");
            stdout
        };
        let stdout = faulted("pass1", "parts", &["--trace-out", trace.to_str().unwrap()]);
        assert!(stdout.contains("2 passes planned"), "{stdout}");
        faulted("pass0", "reuse", &[]);
        assert!(!ckpt.join("plan.ckpt").exists());
        let report = analyze_strict(&trace);
        assert!(report.contains("presolve & pass planning"), "{report}");
        assert!(report.contains("task 1 restarted"), "{report}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_recovered_injected_crash_is_silent_and_changes_no_byte() {
    let dir = tmpdir("quiet_crash");
    let reads = dir.join("reads.fastq");
    let out = metaprep(&[
        "simulate",
        "--dataset",
        "hg",
        "--scale",
        "0.01",
        "--seed",
        "1",
        "--output",
        reads.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let partition = |outdir: &str, extra: &[&str]| {
        let outdir = dir.join(outdir);
        let mut args = vec!["partition", "--k", "21", "--m", "6", "--passes", "3"];
        args.extend(["--input", reads.to_str().unwrap()]);
        args.extend(["--outdir", outdir.to_str().unwrap()]);
        args.extend(extra);
        let out = metaprep(&args);
        assert!(out.status.success(), "{extra:?}: {}", stderr_of(&out));
        (outdir, out)
    };
    let ckpt = dir.join("ckpt");
    let (crashed, out) = partition(
        "crashed",
        &[
            "--fault-plan",
            "seed=1,crash=rank0@pass1",
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
        ],
    );
    let err = stderr_of(&out);
    assert!(!err.contains("panicked"), "{err}");
    // The model and, where the kernel reports it, the measured peak.
    let stdout = stdout_of(&out);
    let memory = stdout.lines().find(|l| l.contains("modeled")).unwrap();
    assert_eq!(
        memory.contains("   peak RSS "),
        cfg!(target_os = "linux"),
        "{memory}"
    );
    let (reference, _) = partition("reference", &[]);
    for file in ["lc.fastq", "other.fastq"] {
        let (want, got) = (reference.join(file), crashed.join(file));
        assert!(
            std::fs::read(want).unwrap() == std::fs::read(got).unwrap(),
            "{file}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn analyze_prints_every_step_the_totals_and_the_per_pass_breakdown() {
    let dir = tmpdir("analyze");
    let reads = dir.join("reads.fastq");
    let trace = dir.join("t.jsonl");
    let out = metaprep(&[
        "simulate",
        "--dataset",
        "hg",
        "--scale",
        "0.01",
        "--output",
        reads.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let out = metaprep(&[
        "partition",
        "--input",
        reads.to_str().unwrap(),
        "--k",
        "21",
        "--m",
        "6",
        "--tasks",
        "2",
        "--passes",
        "2",
        "--trace-out",
        trace.to_str().unwrap(),
        "--outdir",
        dir.join("parts").to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));

    let out = metaprep(&["analyze", "--trace", trace.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let text = stdout_of(&out);
    let secs = |col: &str| {
        col.parse::<f64>()
            .unwrap_or_else(|_| panic!("{col:?}: {text}"))
    };
    // Stage rows: name, max, mean, factor, slowest task, then the
    // five-number row across tasks, whose last entry is the max again.
    let stage_max = |name: &str| -> f64 {
        let line = text
            .lines()
            .find(|l| l.starts_with(&format!("{name} ")))
            .unwrap_or_else(|| panic!("no {name} row: {text}"));
        let cols: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(cols.len(), 11, "{line}");
        assert_eq!(cols[10].trim_end_matches(']'), cols[1], "{line}");
        secs(cols[1])
    };
    // All eight steps run in a 2-task, 2-pass partition; a task's pipeline
    // total holds each of its steps.
    let step_max: Vec<f64> = Step::all().iter().map(|s| stage_max(s.name())).collect();
    let pipeline = stage_max("pipeline");
    assert!(step_max.iter().all(|&m| m <= pipeline), "{text}");
    let index_create = text
        .lines()
        .find_map(|l| l.strip_prefix("IndexCreate "))
        .unwrap_or_else(|| panic!("no IndexCreate row: {text}"));
    assert!(index_create.ends_with("(sequential)"), "{text}");
    assert!(secs(index_create.split_whitespace().next().unwrap()) > 0.0);

    // One row per pass with a column per step; no pass outlasts the run.
    let mut lines = text
        .lines()
        .skip_while(|l| *l != "per-pass breakdown (max across tasks, s)");
    let header: Vec<String> = lines
        .nth(1)
        .unwrap()
        .split_whitespace()
        .map(String::from)
        .collect();
    let names: Vec<String> = Step::all().iter().map(|s| s.name().to_string()).collect();
    assert_eq!(header[0], "pass");
    assert_eq!(header[1..], names[..], "{text}");
    for pass in ["0", "1"] {
        let cols: Vec<&str> = lines.next().unwrap().split_whitespace().collect();
        assert_eq!(cols[0], pass, "{text}");
        for (col, max) in cols[1..].iter().zip(&step_max) {
            assert!(secs(col) <= *max, "{text}");
        }
    }

    let bad = dir.join("bad.jsonl");
    std::fs::write(&bad, "{\"type\":\"meta\",\"tasks\":2}\nnot json\n").unwrap();
    let out = metaprep(&["analyze", "--trace", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_of(&out);
    assert!(err.starts_with("error:"), "{err}");
    assert_eq!(err.trim_end().lines().count(), 1, "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn analyze_strict_reads_an_index_trace() {
    let dir = tmpdir("analyze_index");
    let reads = dir.join("reads.fastq");
    std::fs::write(&reads, fastq_of(&good_records(40))).unwrap();
    let trace = dir.join("t.jsonl");
    let out = metaprep(&[
        "index",
        "--input",
        reads.to_str().unwrap(),
        "--k",
        "11",
        "--m",
        "4",
        "--trace-out",
        trace.to_str().unwrap(),
        "--outdir",
        dir.join("idx").to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let out = metaprep(&["analyze", "--strict", "--trace", trace.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let text = stdout_of(&out);
    assert!(
        text.lines().any(|l| l.starts_with("IndexCreate ")),
        "{text}"
    );
    for needle in [
        "index-chunking",
        "index-histogram",
        "chunk_records_streamed",
    ] {
        assert!(text.contains(needle), "{needle}: {text}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn memory_budget_alone_engages_the_planner() {
    let dir = tmpdir("budget");
    let reads = dir.join("reads.fastq");
    let out = metaprep(&[
        "simulate",
        "--scale",
        "0.01",
        "--seed",
        "3",
        "--output",
        reads.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let out = metaprep(&[
        "partition",
        "--input",
        reads.to_str().unwrap(),
        "--k",
        "21",
        "--m",
        "6",
        "--tasks",
        "2",
        "--memory-budget",
        "1G",
        "--presolve",
        "50",
        "--outdir",
        dir.join("parts").to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let report = stdout_of(&out);
    assert!(report.contains("passes planned"), "{report}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn explicit_passes_with_budget_warns_and_wins_or_errors() {
    let dir = tmpdir("arbitrate");
    let reads = dir.join("reads.fastq");
    let out = metaprep(&[
        "simulate",
        "--scale",
        "0.01",
        "--seed",
        "3",
        "--output",
        reads.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));

    // Consistent pair: explicit --passes fits a huge budget. The run
    // succeeds and the arbitration note lands on stderr.
    let out = metaprep(&[
        "partition",
        "--input",
        reads.to_str().unwrap(),
        "--k",
        "21",
        "--m",
        "6",
        "--tasks",
        "2",
        "--passes",
        "2",
        "--memory-budget",
        "4G",
        "--outdir",
        dir.join("parts").to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("explicit --passes wins"),
        "{}",
        stderr_of(&out)
    );

    // Inconsistent pair: one pass cannot fit a 1-byte budget. Config
    // error, one structured line, no usage dump.
    let out = metaprep(&[
        "partition",
        "--input",
        reads.to_str().unwrap(),
        "--k",
        "21",
        "--m",
        "6",
        "--tasks",
        "2",
        "--passes",
        "1",
        "--memory-budget",
        "1",
        "--outdir",
        dir.join("parts2").to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("memory budget"), "{err}");
    assert!(!err.contains("usage:"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_memory_budget_suffix_is_an_arg_error() {
    let out = metaprep(&[
        "partition",
        "--input",
        "whatever.fastq",
        "--memory-budget",
        "12Q",
    ]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("--memory-budget"), "{err}");
    assert!(err.contains("usage: metaprep"), "{err}");
}

#[test]
fn crashes_without_checkpoint_dir_are_rejected_up_front() {
    let dir = tmpdir("nockpt");
    let reads = dir.join("reads.fastq");
    let out = metaprep(&[
        "simulate",
        "--scale",
        "0.01",
        "--output",
        reads.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let out = metaprep(&[
        "partition",
        "--input",
        reads.to_str().unwrap(),
        "--tasks",
        "2",
        "--fault-plan",
        "seed=1,crash=rank0@pass0",
    ]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("checkpoint_dir"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_crash_the_run_never_reaches_is_one_error_line_and_writes_nothing() {
    // Pass 5 of a 2-pass run, and merge round 1 of rank 1, which retires
    // after round 0: both plans used to run to completion with no restart.
    let dir = tmpdir("unreachable_crash");
    let reads = dir.join("reads.fastq");
    std::fs::write(&reads, fastq_of(&good_records(40))).unwrap();
    let (parts, ckpt) = (dir.join("parts"), dir.join("ckpt"));
    for (crash, what) in [
        ("rank1@pass5", "rank 1 at pass5"),
        ("rank1@merge1", "rank 1 at merge1"),
    ] {
        let plan = format!("seed=1,crash={crash}");
        let out = metaprep(&[
            "partition",
            "--input",
            reads.to_str().unwrap(),
            "--tasks",
            "4",
            "--passes",
            "2",
            "--fault-plan",
            &plan,
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
            "--outdir",
            parts.to_str().unwrap(),
        ]);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(1), "{crash}: {err}");
        assert_eq!(err.lines().count(), 1, "{crash}: {err}");
        assert!(err.starts_with("error: ") && err.contains(what), "{err}");
        assert!(
            !parts.exists() && !ckpt.exists(),
            "{crash}: a directory was created"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `n` well-formed records (`r1`..`rn`, 40 bases each, distinct enough to
/// index) as one line list per record, so a test can break a single line.
fn good_records(n: usize) -> Vec<[Vec<u8>; 4]> {
    (1..=n)
        .map(|i| {
            let seq: Vec<u8> = (0..40)
                .map(|j| b"ACGT"[(i * 7 + j * j + j / 3) % 4])
                .collect();
            let qual = vec![b'I'; seq.len()];
            [format!("@r{i}").into_bytes(), seq, b"+".to_vec(), qual]
        })
        .collect()
}

fn fastq_of(records: &[[Vec<u8>; 4]]) -> Vec<u8> {
    let mut out = Vec::new();
    for line in records.iter().flatten() {
        out.extend_from_slice(line);
        out.push(b'\n');
    }
    out
}

#[test]
fn rejects_what_parse_fastq_rejected_before_any_pass_runs() {
    // Nothing parses the file up front: IndexCreate is the first reader,
    // and everything `parse_fastq` used to reject must still end as one
    // `error:` line naming the file-global record — in a later chunk here,
    // and behind the paired chunker's record-start counting — before a
    // pass runs or the output directory exists; `index` on its own leaves
    // no `merhist.bin` behind.
    let broken = |record: usize, line: usize, with: &[u8]| {
        let mut records = good_records(40);
        records[record - 1][line] = with.to_vec();
        fastq_of(&records)
    };
    let truncated = {
        let mut bytes = fastq_of(&good_records(40));
        let cut = bytes.len() - "+\n".len() - 41;
        bytes.truncate(cut);
        bytes
    };
    let leading_junk = [b"junk\n".to_vec(), fastq_of(&good_records(40))].concat();
    let cases: [(&str, Vec<u8>, &[&str], &str); 8] = [
        ("qual_len", broken(30, 3, b"III"), &[], "record 30"),
        (
            "qual_len_unpaired",
            broken(30, 3, b"III"),
            &["--unpaired"],
            "record 30",
        ),
        ("no_plus", broken(30, 2, b"-"), &[], "record 30"),
        (
            "no_plus_unpaired",
            broken(30, 2, b"-"),
            &["--unpaired"],
            "record 30",
        ),
        ("truncated", truncated, &[], "record 40"),
        ("odd_pairs", fastq_of(&good_records(39)), &[], "record 39"),
        ("non_utf8", broken(30, 0, b"@r\xFF"), &[], "record 30"),
        ("leading_junk", leading_junk, &[], "record 1"),
    ];
    for (name, bytes, extra, names_record) in cases {
        let dir = tmpdir(&format!("bad_{name}"));
        let reads = dir.join("reads.fastq");
        std::fs::write(&reads, bytes).unwrap();
        for (command, chunks) in [("partition", &[][..]), ("index", &["--chunks", "4"][..])] {
            let outdir = dir.join(command);
            let mut args = vec![command, "--k", "11", "--m", "4"];
            args.extend(["--input", reads.to_str().unwrap()]);
            args.extend(["--outdir", outdir.to_str().unwrap()]);
            args.extend(chunks);
            args.extend(extra);
            let out = metaprep(&args);
            assert!(!out.status.success(), "{command} {name}");
            let err = stderr_of(&out);
            assert!(err.starts_with("error:"), "{command} {name}: {err}");
            assert_eq!(err.trim_end().lines().count(), 1, "{command} {name}: {err}");
            assert!(err.contains(names_record), "{command} {name}: {err}");
            assert!(!err.contains("panicked"), "{command} {name}: {err}");
            assert!(
                !outdir.exists(),
                "{command} {name}: output directory created"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Every file of `dir` by name, with its bytes.
fn dir_bytes(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name(), std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn accepts_what_parse_fastq_accepts_paired_or_not() {
    // `parse_fastq` reads the same records from a file with blank lines
    // before the first record, between records and at the end, CRLF
    // endings, or no final newline, as from the file written cleanly; so
    // must every file-path reader, paired or not, with the same partitions.
    let records = good_records(40);
    let spelled = |tail: &[u8]| {
        let mut out = b"\n\r\n".to_vec();
        for (i, record) in records.iter().enumerate() {
            let eol: &[u8] = if i % 3 == 0 { b"\r\n" } else { b"\n" };
            if i % 5 == 4 {
                out.extend_from_slice(eol);
            }
            for line in record {
                out.extend_from_slice(line);
                out.extend_from_slice(eol);
            }
        }
        out.extend_from_slice(tail);
        out
    };
    let mut no_final_newline = spelled(b"");
    no_final_newline.pop();
    let dir = tmpdir("accepts_what_parse_fastq_accepts");
    let files = [
        ("clean", fastq_of(&records)),
        ("trailing_blanks", spelled(b"\n\r\n\n")),
        ("no_final_newline", no_final_newline),
    ];
    let mut outputs = Vec::new();
    for (name, bytes) in files {
        let reads = dir.join(format!("{name}.fastq"));
        std::fs::write(&reads, bytes).unwrap();
        let mut got = Vec::new();
        for (command, extra) in [
            ("partition", &[][..]),
            ("partition", &["--unpaired"][..]),
            ("index", &["--chunks", "7"][..]),
        ] {
            let outdir = dir.join(format!("{name}_{command}{}", extra.len()));
            let mut args = vec![command, "--k", "11", "--m", "4"];
            args.extend(["--input", reads.to_str().unwrap()]);
            args.extend(["--outdir", outdir.to_str().unwrap()]);
            args.extend(extra);
            let out = metaprep(&args);
            assert!(
                out.status.success(),
                "{name} {command} {extra:?}: {}",
                stderr_of(&out)
            );
            if command == "partition" {
                got.push(dir_bytes(&outdir));
            } else {
                // The chunk table holds real byte offsets; the merHist
                // depends on the reads alone.
                got.push(vec![(
                    "merhist.bin".into(),
                    std::fs::read(outdir.join("merhist.bin")).unwrap(),
                )]);
            }
        }
        outputs.push((name, got));
    }
    let (_, clean) = &outputs[0];
    assert!(clean[0].len() >= 2 && clean[1].len() >= 2);
    for (name, got) in &outputs[1..] {
        assert!(got == clean, "{name}: outputs differ from the clean file's");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_malformed_record_is_named_by_number_and_byte() {
    // Record 30's quality line is short: every command names the record
    // and the file offset of its header line.
    let mut records = good_records(40);
    records[29][3].pop();
    let byte = fastq_of(&records[..29]).len();
    let dir = tmpdir("malformed_record_byte");
    let reads = dir.join("reads.fastq");
    std::fs::write(&reads, fastq_of(&records)).unwrap();
    let want = format!("record 30 (byte {byte})");
    for (command, extra) in [
        ("partition", &[][..]),
        ("partition", &["--unpaired"][..]),
        ("index", &["--chunks", "4"][..]),
    ] {
        let outdir = dir.join("out");
        let mut args = vec![command, "--k", "11", "--m", "4"];
        args.extend(["--input", reads.to_str().unwrap()]);
        args.extend(["--outdir", outdir.to_str().unwrap()]);
        args.extend(extra);
        let out = metaprep(&args);
        assert!(!out.status.success(), "{command} {extra:?}");
        let err = stderr_of(&out);
        assert!(err.starts_with("error:"), "{command} {extra:?}: {err}");
        assert!(err.contains(&want), "{command} {extra:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn partition_writes_what_the_in_memory_library_path_writes() {
    // The CLI reads the file in place on every scan; the reference is the
    // library's in-memory path over a parse of the same file.
    let dir = tmpdir("cli_vs_library");
    let reads = dir.join("reads.fastq");
    let out = metaprep(&[
        "simulate",
        "--dataset",
        "hg",
        "--scale",
        "0.01",
        "--seed",
        "3",
        "--output",
        reads.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));

    // (CLI options, tasks, passes, paired, top)
    let variants: [(&[&str], usize, usize, bool, usize); 4] = [
        (&["--tasks", "1"], 1, 1, true, 0),
        (&["--tasks", "3", "--passes", "2"], 3, 2, true, 0),
        (&["--tasks", "2", "--unpaired"], 2, 1, false, 0),
        (&["--tasks", "2", "--top", "2"], 2, 1, true, 2),
    ];
    let partition = |outdir: &Path, variant: &[&str]| {
        let mut args = vec!["partition", "--k", "21", "--m", "6"];
        args.extend(["--input", reads.to_str().unwrap()]);
        args.extend(["--outdir", outdir.to_str().unwrap()]);
        args.extend(variant);
        let out = metaprep(&args);
        assert!(out.status.success(), "{variant:?}: {}", stderr_of(&out));
        let stdout = stdout_of(&out);
        assert!(stdout.contains("  Output  "), "{stdout}");
        stdout
    };
    let assert_same_dirs = |want: &Path, got: &Path, what: &str| {
        let mut files_seen = 0;
        for entry in std::fs::read_dir(want).unwrap() {
            let name = entry.unwrap().file_name();
            let (w, g) = (
                std::fs::read(want.join(&name)),
                std::fs::read(got.join(&name)),
            );
            assert!(w.unwrap() == g.unwrap(), "{what}: {name:?} differs");
            files_seen += 1;
        }
        let in_got = std::fs::read_dir(got).unwrap().count();
        assert_eq!(files_seen, in_got, "{what}: file sets differ");
        assert!(files_seen >= 2, "{what}");
    };
    for (i, (variant, tasks, passes, paired, top)) in variants.into_iter().enumerate() {
        let (got, want) = (dir.join(format!("cli{i}")), dir.join(format!("lib{i}")));
        partition(&got, variant);

        let store = parse_fastq_path(&reads, paired).unwrap();
        let cfg = PipelineConfig::builder().k(21).m(6).tasks(tasks);
        let res = Pipeline::new(cfg.passes(passes).build())
            .run_reads(&store)
            .unwrap();
        if top > 0 {
            let parts = partition_top_n(&store, &res.labels, top, 2);
            write_multi_partition(&want, &parts).unwrap();
        } else {
            let parts = partition_reads(&store, &res.labels, res.components.largest_root);
            write_partitions(&want, &parts).unwrap();
        }
        assert_same_dirs(&want, &got, &format!("{variant:?}"));
    }

    // The benchmark's command line still passes the retired `--stream`
    // switch: it must change neither the bytes nor what is printed (the
    // indented step lines carry timings, so only their names compare).
    let printed = |stdout: String, outdir: &Path| -> Vec<String> {
        let stdout = stdout.replace(outdir.to_str().unwrap(), "OUTDIR");
        let untimed = |l: &str| match l.strip_prefix("  ") {
            Some(step) => step.split("  ").next().unwrap().to_string(),
            None => l.to_string(),
        };
        stdout.lines().map(untimed).collect()
    };
    let (plain, legacy) = (dir.join("plain"), dir.join("legacy"));
    let plain_out = partition(&plain, &["--tasks", "2", "--passes", "2"]);
    let legacy_out = partition(&legacy, &["--tasks", "2", "--stream", "--passes", "2"]);
    assert_same_dirs(&plain, &legacy, "--stream");
    assert_eq!(printed(plain_out, &plain), printed(legacy_out, &legacy));
    std::fs::remove_dir_all(&dir).unwrap();
}
